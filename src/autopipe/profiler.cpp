#include "autopipe/profiler.hpp"

#include "common/expect.hpp"

namespace autopipe::core {

Profiler::Profiler(const models::ModelSpec& model, std::size_t batch_size,
                   double speed_ema_alpha)
    : model_(model), batch_(batch_size), speed_ema_alpha_(speed_ema_alpha) {
  AUTOPIPE_EXPECT(speed_ema_alpha_ > 0.0 && speed_ema_alpha_ <= 1.0);
  AUTOPIPE_EXPECT(batch_ >= 1);
  const std::size_t L = model_.num_layers();
  for (std::size_t l = 0; l < L; ++l) {
    activation_bytes_.push_back(model_.activation_bytes(l, batch_));
    gradient_bytes_.push_back(model_.gradient_bytes(l, batch_));
    param_bytes_.push_back(model_.param_bytes(l));
    fp_flops_.push_back(model_.fwd_flops(l, batch_));
    bp_flops_.push_back(model_.bwd_flops(l, batch_));
  }
}

void Profiler::snapshot(const pipeline::PipelineExecutor& executor,
                        const sim::Cluster& cluster, ProfileSnapshot& snap) {
  snap.num_layers = model_.num_layers();
  snap.num_workers = cluster.num_workers();
  snap.activation_bytes = activation_bytes_;
  snap.gradient_bytes = gradient_bytes_;
  snap.param_bytes = param_bytes_;
  snap.fp_flops = fp_flops_;
  snap.bp_flops = bp_flops_;
  snap.iteration_time = executor.last_iteration_time();

  snap.worker_bandwidth.clear();
  for (sim::WorkerId w = 0; w < snap.num_workers; ++w)
    snap.worker_bandwidth.push_back(executor.observed_bandwidth(w));

  // Per-worker effective speed from cumulative device counters (processed
  // work / busy time since the previous snapshot) — the counter-based view
  // an nvidia-smi-style poll would give. It is exact under queueing: a
  // co-located tenant halves the processing rate and nothing else moves it.
  // Workers with no fresh work (idle, or just re-assigned by a switch)
  // keep their last known speed; before any measurement, the pre-training
  // exclusive profile seeds the estimate. The counter counts the submitted
  // (framework-inflated) FLOPs, so the efficiency factor converts back to
  // model FLOPs per second, the unit the planners use.
  if (speed_state_.empty()) {
    speed_state_.resize(snap.num_workers);
    prev_flops_.assign(snap.num_workers, 0.0);
    prev_busy_.assign(snap.num_workers, 0.0);
    for (sim::WorkerId w = 0; w < snap.num_workers; ++w)
      speed_state_[w] = cluster.gpu(w).spec().throughput *
                        executor.config().framework.compute_efficiency;
  }
  snap.worker_speed.assign(snap.num_workers, 0.0);
  const double efficiency = executor.config().framework.compute_efficiency;
  for (sim::WorkerId w = 0; w < snap.num_workers; ++w) {
    const double flops = cluster.gpu(w).total_flops_done();
    const Seconds busy = cluster.gpu(w).compute_time();
    const double dflops = flops - prev_flops_[w];
    const Seconds dbusy = busy - prev_busy_[w];
    prev_flops_[w] = flops;
    prev_busy_[w] = busy;
    if (dbusy > 1e-9 && dflops > 0.0) {
      const FlopsPerSec implied = dflops / dbusy * efficiency;
      speed_state_[w] = speed_ema_alpha_ * implied +
                        (1.0 - speed_ema_alpha_) * speed_state_[w];
    }
    snap.worker_speed[w] = speed_state_[w];
  }
}

partition::EnvironmentView Profiler::environment(
    const ProfileSnapshot& snap, const comm::FrameworkProfile& framework,
    comm::SyncScheme scheme) const {
  partition::EnvironmentView env;
  env.worker_speed = snap.worker_speed;
  env.worker_bandwidth = snap.worker_bandwidth;
  env.per_layer_overhead = framework.per_layer_overhead;
  env.comm_efficiency = framework.comm_efficiency;
  env.sync_scheme = scheme;
  return env;
}

}  // namespace autopipe::core
