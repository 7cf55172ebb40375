// AutoPipe's profiler (§4.2, Table 1). Static, per-model quantities — layer
// count, O_i, G_i, P_i — are recorded once before training; the dynamic
// quantities — per-worker available bandwidth B_i and the per-worker,
// per-layer FP/BP times — are derived *non-intrusively* from the previous
// iteration: bandwidth from observed transfer rates, and layer times from
// the measured stage times scaled by the (constant) per-layer compute-time
// ratios, exactly the paper's "we measure the ratios before training and
// obtain the speed of a certain layer from the last iteration".
#pragma once

#include <cstddef>
#include <vector>

#include "comm/framework.hpp"
#include "common/units.hpp"
#include "models/model.hpp"
#include "partition/environment.hpp"
#include "pipeline/executor.hpp"
#include "sim/cluster.hpp"

namespace autopipe::core {

/// One iteration's Table-1 readings.
struct ProfileSnapshot {
  std::size_t num_layers = 0;   // L
  std::size_t num_workers = 0;  // N
  std::vector<Bytes> activation_bytes;  // O_i, per mini-batch
  std::vector<Bytes> gradient_bytes;    // G_i
  std::vector<Bytes> param_bytes;       // P_i
  /// Per-layer forward / backward FLOPs at the profiled batch size.
  std::vector<Flops> fp_flops;
  std::vector<Flops> bp_flops;
  std::vector<BytesPerSec> worker_bandwidth;  // B_i (observed)
  /// Implied effective speed of each worker (FLOP/s), the quantity the
  /// planners actually consume.
  std::vector<FlopsPerSec> worker_speed;
  Seconds iteration_time = 0.0;

  /// FP_{i,j} / BP_{i,j}: layer j's forward / backward seconds on worker i,
  /// derived on demand from the layer's FLOPs and the worker's speed.
  Seconds fp_time(sim::WorkerId w, std::size_t layer) const {
    return fp_flops[layer] / worker_speed[w];
  }
  Seconds bp_time(sim::WorkerId w, std::size_t layer) const {
    return bp_flops[layer] / worker_speed[w];
  }
};

class Profiler {
 public:
  Profiler(const models::ModelSpec& model, std::size_t batch_size,
           double speed_ema_alpha = 0.4);

  /// Take a non-intrusive reading from the running executor into `snap`,
  /// reusing its buffers. Stateful: per-worker implied speeds are
  /// EMA-smoothed across iterations, and a worker with no fresh stage
  /// timing (idle, or just re-assigned by a switch) keeps its last known
  /// speed instead of snapping back to the exclusive-device profile.
  void snapshot(const pipeline::PipelineExecutor& executor,
                const sim::Cluster& cluster, ProfileSnapshot& snap);
  ProfileSnapshot snapshot(const pipeline::PipelineExecutor& executor,
                           const sim::Cluster& cluster) {
    ProfileSnapshot snap;
    snapshot(executor, cluster, snap);
    return snap;
  }

  /// Turn a snapshot into the planners' environment view.
  partition::EnvironmentView environment(
      const ProfileSnapshot& snap, const comm::FrameworkProfile& framework,
      comm::SyncScheme scheme) const;

  const models::ModelSpec& model() const { return model_; }
  std::size_t batch_size() const { return batch_; }

 private:
  const models::ModelSpec& model_;
  std::size_t batch_;
  // Pre-training constants.
  std::vector<Bytes> activation_bytes_;
  std::vector<Bytes> gradient_bytes_;
  std::vector<Bytes> param_bytes_;
  std::vector<double> fp_flops_;  // per layer, at batch_
  std::vector<double> bp_flops_;
  double speed_ema_alpha_;
  /// Last smoothed speed per worker (empty until the first snapshot).
  std::vector<FlopsPerSec> speed_state_;
  /// Cumulative GPU counters at the previous snapshot, for delta rates.
  std::vector<double> prev_flops_;
  std::vector<Seconds> prev_busy_;
};

}  // namespace autopipe::core
