#include "pipeline/executor.hpp"

#include <algorithm>
#include <utility>

#include "common/expect.hpp"
#include "common/log.hpp"
#include "partition/analytic_eval.hpp"

namespace autopipe::pipeline {

namespace {
/// Smoothing for the per-worker observed-bandwidth estimate.
constexpr double kBandwidthEmaAlpha = 0.25;
}  // namespace

const char* switch_phase_name(SwitchPhase phase) {
  switch (phase) {
    case SwitchPhase::kIdle:
      return "idle";
    case SwitchPhase::kPrepare:
      return "prepare";
    case SwitchPhase::kDrain:
      return "drain";
    case SwitchPhase::kTransfer:
      return "transfer";
    case SwitchPhase::kCommit:
      return "commit";
    case SwitchPhase::kAborted:
      return "aborted";
  }
  return "?";
}

PipelineExecutor::PipelineExecutor(sim::Cluster& cluster,
                                   const models::ModelSpec& model,
                                   partition::Partition initial,
                                   ExecutorConfig config)
    : cluster_(cluster),
      model_(model),
      config_(std::move(config)),
      batch_(config_.batch_size ? config_.batch_size
                                : model.default_batch_size()),
      current_partition_(
          std::make_shared<const partition::Partition>(std::move(initial))) {
  AUTOPIPE_EXPECT(current_partition_->num_layers() == model_.num_layers());
  for (sim::WorkerId w : current_partition_->all_workers())
    AUTOPIPE_EXPECT(w < cluster_.num_workers());
  AUTOPIPE_EXPECT(config_.micro_batches >= 1);
  in_flight_ = target_in_flight();
  sync_outstanding_.assign(current_partition_->num_stages(), false);
  stage_timing_.assign(current_partition_->num_stages(), StageTiming{});
  bandwidth_ema_.assign(cluster_.num_workers(),
                        Ema(kBandwidthEmaAlpha));
  set_holders_from(*current_partition_);
  worker_cb_token_ =
      cluster_.add_worker_state_callback([this](sim::WorkerId w, bool up) {
        if (up) {
          notify_worker_up(w);
        } else {
          notify_worker_down(w);
        }
      });
  link_cb_token_ =
      cluster_.add_link_state_callback([this](std::size_t server, bool up) {
        if (!up) maybe_abort_switch_on_link(server);
      });
}

PipelineExecutor::~PipelineExecutor() {
  cluster_.remove_worker_state_callback(worker_cb_token_);
  cluster_.remove_link_state_callback(link_cb_token_);
}

void PipelineExecutor::set_iteration_callback(IterationCallback cb) {
  iteration_callback_ = std::move(cb);
}

std::size_t PipelineExecutor::target_in_flight() const {
  if (config_.in_flight) return config_.in_flight;
  return partition::optimal_in_flight(*current_partition_);
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

ExecutionReport PipelineExecutor::run(std::size_t iterations,
                                      std::size_t warmup) {
  begin_run(iterations, warmup);
  sim::Simulator& sim = cluster_.simulator();
  while (completed_iterations_ < run_target_) {
    AUTOPIPE_EXPECT_MSG(sim.step(),
                        "pipeline deadlock: event queue drained at iteration "
                            << completed_iterations_ << " of " << run_target_);
  }
  return finish_run();
}

void PipelineExecutor::begin_run(std::size_t iterations, std::size_t warmup) {
  AUTOPIPE_EXPECT(iterations > warmup);
  run_ctx_.prior = completed_iterations_;
  run_ctx_.iterations = iterations;
  run_ctx_.warmup = warmup;
  run_target_ = run_ctx_.prior + iterations;
  running_ = true;

  sim::Simulator& sim = cluster_.simulator();
  run_ctx_.entry_time = sim.now();
  run_ctx_.entry_bytes = cluster_.network().total_bytes_delivered();
  run_ctx_.entry_busy.assign(cluster_.num_workers(), 0.0);
  for (sim::WorkerId w = 0; w < cluster_.num_workers(); ++w)
    run_ctx_.entry_busy[w] = cluster_.gpu(w).busy_time();

  fill_pipeline();
}

ExecutionReport PipelineExecutor::finish_run() {
  AUTOPIPE_EXPECT_MSG(run_complete(),
                      "finish_run before run target reached: "
                          << completed_iterations_ << " of " << run_target_);
  running_ = false;
  sim::Simulator& sim = cluster_.simulator();
  const std::size_t prior = run_ctx_.prior;
  const std::size_t iterations = run_ctx_.iterations;
  const std::size_t warmup = run_ctx_.warmup;
  const Seconds entry_time = run_ctx_.entry_time;

  ExecutionReport report;
  report.iterations = iterations;
  report.batch_size = batch_;
  report.elapsed = sim.now() - entry_time;
  report.bytes_on_wire =
      cluster_.network().total_bytes_delivered() - run_ctx_.entry_bytes;
  report.switches = switches_;
  report.switch_stall = total_switch_stall_;

  // Iteration completion times for this run only.
  report.iteration_end_times.assign(iteration_end_times_.begin() +
                                        static_cast<std::ptrdiff_t>(prior),
                                    iteration_end_times_.end());
  Seconds prev = entry_time;
  for (Seconds t : report.iteration_end_times) {
    const Seconds gap = t - prev;
    report.iteration_throughput.push_back(
        gap > 0.0 ? static_cast<double>(batch_) / gap : 0.0);
    prev = t;
  }

  Seconds measure_start =
      warmup == 0 ? entry_time
                  : iteration_end_times_[prior + warmup - 1];
  Seconds measure_span = sim.now() - measure_start;
  std::size_t measured = iterations - warmup;
  if (measure_span <= 0.0) {
    // A deep pipeline can complete every measured iteration in one burst at
    // a single instant when few iterations are requested relative to the
    // in-flight count; fall back to measuring the whole run.
    measure_start = entry_time;
    measure_span = sim.now() - entry_time;
    measured = iterations;
  }
  AUTOPIPE_EXPECT(measure_span > 0.0);
  report.throughput =
      static_cast<double>(measured * batch_) / measure_span;

  double busy_sum = 0.0;
  const auto workers = current_partition_->all_workers();
  for (sim::WorkerId w : workers)
    busy_sum += (cluster_.gpu(w).busy_time() - run_ctx_.entry_busy[w]);
  report.worker_utilization =
      workers.empty() ? 0.0
                      : busy_sum / (static_cast<double>(workers.size()) *
                                    report.elapsed);
  // Aggregate idle time across the partition's workers — the pipeline
  // bubble. A gauge, so consecutive run() calls report the latest run.
  metrics().set("pipeline.bubble_seconds",
                static_cast<double>(workers.size()) * report.elapsed -
                    busy_sum);
  return report;
}

void PipelineExecutor::fill_pipeline() {
  // A partition routing through a dead worker cannot make progress;
  // injection resumes when the worker returns or a recovery plan lands.
  if (!partition_serviceable()) return;
  if (is_synchronous(config_.mode)) {
    if (config_.halt_injection_at_target &&
        completed_iterations_ >= run_target_)
      return;
    if (sync_state_.empty()) start_sync_iteration();
    return;
  }
  while (active_batches_ < in_flight_ && !draining()) {
    if (config_.halt_injection_at_target &&
        completed_iterations_ + active_batches_ >= run_target_)
      break;
    inject_async_batch();
  }
}

// ---------------------------------------------------------------------------
// Injection
// ---------------------------------------------------------------------------

std::uint64_t PipelineExecutor::make_batch(Route route) {
  const std::uint64_t id = next_batch_id_++;
  batches_.emplace(id, BatchState{std::move(route), 0.0});
  ++active_batches_;
  ++fault_stats_.injected;
  if (replay_credit_ > 0) {
    --replay_credit_;
    ++fault_stats_.replayed;
  }
  return id;
}

void PipelineExecutor::inject_async_batch() {
  Route route;
  route.partition = current_partition_;
  route.micro_size = batch_;
  const std::uint64_t rr = next_round_robin_++;
  for (const auto& stage : current_partition_->stages())
    route.workers.push_back(stage.workers[rr % stage.replication()]);
  const sim::WorkerId entry = route.workers.front();
  const std::uint64_t id = make_batch(std::move(route));
  if (tracer().enabled()) {
    batches_.at(id).last_eid = tracer().instant(
        trace::Category::kCompute, "inject", cluster_.simulator().now(),
        static_cast<int>(entry), 0, {trace::arg("batch", id)});
  }
  start_fp(id, 0);
}

void PipelineExecutor::start_sync_iteration() {
  const std::size_t iter = sync_iter_counter_++;
  auto& state = sync_state_[iter];
  const std::size_t M = config_.micro_batches;
  state.fp_remaining = M;
  state.bp_remaining = M;

  const std::size_t micro_size = std::max<std::size_t>(1, batch_ / M);
  const std::size_t S = current_partition_->num_stages();
  for (std::size_t m = 0; m < M; ++m) {
    Route route;
    route.partition = current_partition_;
    route.micro_size = micro_size;
    route.sync_iteration = iter;
    // Chimera: the second half of the micro-batches flows through the
    // reversed pipeline (stage i on the worker that holds stage S-1-i).
    route.reversed =
        (config_.mode == ScheduleMode::kChimera) && (m >= (M + 1) / 2);
    const std::uint64_t rr = next_round_robin_++;
    for (std::size_t s = 0; s < S; ++s) {
      const auto& stage = current_partition_->stage(
          route.reversed ? S - 1 - s : s);
      route.workers.push_back(stage.workers[rr % stage.replication()]);
    }
    const sim::WorkerId entry = route.workers.front();
    const std::uint64_t id = make_batch(std::move(route));
    if (tracer().enabled()) {
      batches_.at(id).last_eid = tracer().instant(
          trace::Category::kCompute, "inject", cluster_.simulator().now(),
          static_cast<int>(entry), 0,
          {trace::arg("batch", id), trace::arg("micro", m)});
    }
    start_fp(id, 0);
  }
}

// ---------------------------------------------------------------------------
// Stage cost helpers
// ---------------------------------------------------------------------------

Flops PipelineExecutor::stage_fp_flops(const partition::Partition& p,
                                       std::size_t stage,
                                       std::size_t samples) const {
  const auto& st = p.stage(stage);
  return model_.range_fwd_flops(st.first_layer, st.last_layer, samples) /
         config_.framework.compute_efficiency;
}

Flops PipelineExecutor::stage_bp_flops(const partition::Partition& p,
                                       std::size_t stage,
                                       std::size_t samples) const {
  const auto& st = p.stage(stage);
  return model_.range_bwd_flops(st.first_layer, st.last_layer, samples) /
         config_.framework.compute_efficiency;
}

Seconds PipelineExecutor::stage_overhead(const partition::Partition& p,
                                         std::size_t stage) const {
  return config_.framework.per_layer_overhead *
         static_cast<double>(p.stage(stage).num_layers());
}

// ---------------------------------------------------------------------------
// Forward / backward progression
// ---------------------------------------------------------------------------

void PipelineExecutor::start_fp(std::uint64_t batch, std::size_t stage) {
  auto it = batches_.find(batch);
  if (it == batches_.end()) {
    // Dropped by fault recovery while its activation was on the wire.
    ++fault_stats_.orphan_events;
    return;
  }
  auto& state = it->second;
  const Route& route = state.route;
  const partition::Partition& p = *route.partition;
  state.task_started = cluster_.simulator().now();
  cluster_.gpu(route.workers[stage])
      .submit(stage_fp_flops(p, stage, route.micro_size),
              stage_overhead(p, stage),
              [this, batch, stage] { after_fp(batch, stage); });
}

void PipelineExecutor::after_fp(std::uint64_t batch, std::size_t stage) {
  auto it = batches_.find(batch);
  if (it == batches_.end()) {
    ++fault_stats_.orphan_events;
    return;
  }
  auto& state = it->second;
  const Route& route = state.route;
  const partition::Partition& p = *route.partition;
  const std::size_t S = p.num_stages();

  if (route.partition == current_partition_ && !route.reversed) {
    const double scale =
        static_cast<double>(batch_) / static_cast<double>(route.micro_size);
    stage_timing_[stage].fp =
        (cluster_.simulator().now() - state.task_started) * scale;
  }

  if (tracer().enabled()) {
    // The batch's previous op (inject or the inbound activation transfer)
    // is the true dependency; the ambient cause would name whatever GPU
    // completion happened to run last on this worker.
    state.last_eid = tracer().complete(
        trace::Category::kCompute, "fp", state.task_started,
        cluster_.simulator().now(), static_cast<int>(route.workers[stage]),
        static_cast<int>(stage),
        {trace::arg("batch", batch), trace::arg("micro", route.micro_size)},
        state.last_eid);
  }

  if (stage + 1 == S) {
    // Last pipeline position reached.
    if (config_.mode == ScheduleMode::kGPipe) {
      auto& sync = sync_state_.at(route.sync_iteration);
      AUTOPIPE_EXPECT(sync.fp_remaining > 0);
      sync.queued_bp.push_back(batch);
      if (--sync.fp_remaining == 0) {
        // Barrier passed: release every backward pass, last micro first.
        auto queued = std::move(sync.queued_bp);
        for (auto it = queued.rbegin(); it != queued.rend(); ++it)
          start_bp(*it, S - 1);
      }
      return;
    }
    if (is_synchronous(config_.mode)) {
      auto& sync = sync_state_.at(route.sync_iteration);
      AUTOPIPE_EXPECT(sync.fp_remaining > 0);
      --sync.fp_remaining;
    }
    start_bp(batch, S - 1);
    return;
  }

  // Ship the boundary activation downstream, then continue the FP chain.
  Bytes bytes = model_.activation_bytes(p.stage(stage).last_layer,
                                        route.micro_size) /
                config_.framework.comm_efficiency;
  observed_transfer("act", route.workers[stage], route.workers[stage + 1],
                    bytes,
                    [this, batch, stage] { start_fp(batch, stage + 1); },
                    batch);
}

void PipelineExecutor::start_bp(std::uint64_t batch, std::size_t stage) {
  auto it = batches_.find(batch);
  if (it == batches_.end()) {
    ++fault_stats_.orphan_events;
    return;
  }
  auto& state = it->second;
  const Route& route = state.route;
  const partition::Partition& p = *route.partition;
  state.task_started = cluster_.simulator().now();
  Flops work = stage_bp_flops(p, stage, route.micro_size);
  Seconds overhead = stage_overhead(p, stage);
  if (config_.recompute_activations) {
    // Re-run the stage's forward pass to regenerate the discarded
    // activations before backpropagating through them.
    work += stage_fp_flops(p, stage, route.micro_size);
    overhead += stage_overhead(p, stage) / 2.0;
  }
  cluster_.gpu(route.workers[stage])
      .submit_prioritized(work, overhead,
                          [this, batch, stage] { after_bp(batch, stage); });
}

void PipelineExecutor::after_bp(std::uint64_t batch, std::size_t stage) {
  auto it = batches_.find(batch);
  if (it == batches_.end()) {
    ++fault_stats_.orphan_events;
    return;
  }
  auto& state = it->second;
  const Route route = state.route;  // copy: finish_batch erases the entry
  const partition::Partition& p = *route.partition;

  if (route.partition == current_partition_ && !route.reversed) {
    const double scale =
        static_cast<double>(batch_) / static_cast<double>(route.micro_size);
    stage_timing_[stage].bp =
        (cluster_.simulator().now() - state.task_started) * scale;
  }

  if (tracer().enabled()) {
    state.last_eid = tracer().complete(
        trace::Category::kCompute, "bp", state.task_started,
        cluster_.simulator().now(), static_cast<int>(route.workers[stage]),
        static_cast<int>(stage),
        {trace::arg("batch", batch), trace::arg("micro", route.micro_size)},
        state.last_eid);
  }

  if (!is_synchronous(config_.mode)) maybe_async_sync(route, stage);

  if (stage == 0) {
    finish_batch(batch);
    return;
  }
  // Gradient of the tensor that entered this stage on the forward pass.
  const Bytes bytes = model_.activation_bytes(p.stage(stage - 1).last_layer,
                                              route.micro_size) /
                      config_.framework.comm_efficiency;
  observed_transfer("grad", route.workers[stage], route.workers[stage - 1],
                    bytes,
                    [this, batch, stage] { start_bp(batch, stage - 1); },
                    batch);
}

void PipelineExecutor::finish_batch(std::uint64_t batch) {
  const Route route = std::move(batches_.at(batch).route);
  batches_.erase(batch);
  AUTOPIPE_EXPECT(active_batches_ > 0);
  --active_batches_;
  ++fault_stats_.completed;

  if (is_synchronous(config_.mode)) {
    auto& sync = sync_state_.at(route.sync_iteration);
    AUTOPIPE_EXPECT(sync.bp_remaining > 0);
    if (--sync.bp_remaining == 0) run_flush_syncs(route.sync_iteration);
    return;
  }
  on_iteration_complete();
}

// ---------------------------------------------------------------------------
// Weight synchronization
// ---------------------------------------------------------------------------

void PipelineExecutor::maybe_async_sync(const Route& route,
                                        std::size_t logical_stage) {
  // Only batches routed on the current partition drive syncs; a batch
  // completing on a superseded partition updates stashed weights locally.
  if (route.partition != current_partition_) return;
  const auto& stage = current_partition_->stage(logical_stage);
  if (stage.replication() < 2) return;
  // PipeDream-2BW coalesces gradients: a sync round only starts every
  // `in_flight` iterations.
  if (config_.mode == ScheduleMode::kTwoBW &&
      completed_iterations_ % std::max<std::size_t>(1, in_flight_) != 0)
    return;
  if (sync_outstanding_[logical_stage]) return;  // coalesce into in-flight op
  sync_outstanding_[logical_stage] = true;
  const Bytes params =
      model_.range_param_bytes(stage.first_layer, stage.last_layer);
  auto partition_snapshot = current_partition_;
  const Seconds sync_started = cluster_.simulator().now();
  const sim::WorkerId sync_root = stage.workers.front();
  comm::Collective::run(
      config_.sync_scheme, cluster_, stage.workers, params,
      config_.framework.comm_efficiency,
      [this, logical_stage, partition_snapshot, sync_started, sync_root,
       params] {
        if (tracer().enabled()) {
          tracer().complete(trace::Category::kComm, "sync", sync_started,
                            cluster_.simulator().now(),
                            static_cast<int>(sync_root),
                            static_cast<int>(logical_stage),
                            {trace::arg("bytes", params)});
        }
        if (partition_snapshot == current_partition_)
          sync_outstanding_[logical_stage] = false;
      });
}

void PipelineExecutor::run_flush_syncs(std::size_t sync_iter) {
  auto& sync = sync_state_.at(sync_iter);
  AUTOPIPE_EXPECT(sync.syncs_pending == 0);
  const partition::Partition& p = *current_partition_;
  const std::size_t S = p.num_stages();

  auto finish_one = [this, sync_iter] {
    auto it = sync_state_.find(sync_iter);
    if (it == sync_state_.end()) return;  // dropped by fault recovery
    SyncIterationState& st = it->second;
    AUTOPIPE_EXPECT(st.syncs_pending > 0);
    if (--st.syncs_pending == 0) {
      sync_state_.erase(sync_iter);
      on_iteration_complete();
    }
  };

  std::size_t launched = 0;
  for (std::size_t s = 0; s < S; ++s) {
    const auto& stage = p.stage(s);
    std::vector<sim::WorkerId> members = stage.workers;
    if (config_.mode == ScheduleMode::kChimera) {
      // The reversed stream's holder of stage s co-trains its weights.
      const auto& mirror = p.stage(S - 1 - s);
      for (sim::WorkerId w : mirror.workers) {
        if (std::find(members.begin(), members.end(), w) == members.end())
          members.push_back(w);
      }
    }
    if (members.size() < 2) continue;
    ++launched;
    ++sync.syncs_pending;
    const Bytes params =
        model_.range_param_bytes(stage.first_layer, stage.last_layer);
    const Seconds sync_started = cluster_.simulator().now();
    const sim::WorkerId sync_root = members.front();
    comm::Collective::run(
        config_.sync_scheme, cluster_, std::move(members), params,
        config_.framework.comm_efficiency,
        [this, finish_one, sync_started, sync_root, s, params] {
          if (tracer().enabled()) {
            tracer().complete(trace::Category::kComm, "sync_flush",
                              sync_started, cluster_.simulator().now(),
                              static_cast<int>(sync_root),
                              static_cast<int>(s),
                              {trace::arg("bytes", params)});
          }
          finish_one();
        });
  }
  if (launched == 0) {
    sync_state_.erase(sync_iter);
    on_iteration_complete();
  }
}

// ---------------------------------------------------------------------------
// Iteration bookkeeping
// ---------------------------------------------------------------------------

void PipelineExecutor::on_iteration_complete() {
  ++completed_iterations_;
  const Seconds now = cluster_.simulator().now();
  last_iteration_time_ = now - last_iteration_end_;
  last_iteration_end_ = now;
  iteration_end_times_.push_back(now);

  // Rolling series only (never .all() gauges): the time-series sampler and
  // the anomaly detector need instantaneous speed, and series keep the
  // scalar registry — and every golden capture of it — untouched.
  if (last_iteration_time_ > 0.0) {
    metrics().observe("executor.iteration_period", last_iteration_time_);
    metrics().observe("executor.throughput",
                      static_cast<double>(batch_size()) /
                          last_iteration_time_);
  }

  if (draining()) metrics().add("executor.stalled_batches");
  if (tracer().enabled()) {
    if (config_.job_id > 0) {
      tracer().instant(trace::Category::kMark, "iteration", now,
                       trace::kPidControl, 0,
                       {trace::arg("n", completed_iterations_),
                        trace::arg("job", config_.job_id)});
    } else {
      tracer().instant(trace::Category::kMark, "iteration", now,
                       trace::kPidControl, 0,
                       {trace::arg("n", completed_iterations_)});
    }
  }

  if (iteration_callback_) iteration_callback_(completed_iterations_);

  if (draining() && active_batches_ == 0) {
    enter_transfer();
    return;
  }
  if (draining()) return;  // keep draining

  if (is_synchronous(config_.mode)) {
    const bool halted = config_.halt_injection_at_target &&
                        completed_iterations_ >= run_target_;
    if (active_batches_ == 0 && running_ && !halted && partition_serviceable())
      start_sync_iteration();
  } else {
    fill_pipeline();
  }
}

// ---------------------------------------------------------------------------
// Transfers with bandwidth observation
// ---------------------------------------------------------------------------

sim::FlowId PipelineExecutor::observed_transfer(const char* label,
                                                sim::WorkerId src,
                                                sim::WorkerId dst, Bytes bytes,
                                                std::function<void()> done,
                                                std::uint64_t batch_id) {
  const Seconds started = cluster_.simulator().now();
  // Track the flow id so emergency recovery can cancel this executor's
  // outstanding transfers. The holder is filled in after start; the
  // completion callback always runs later (via the event queue).
  auto flow_handle = std::make_shared<sim::FlowId>(0);
  const sim::FlowId flow = cluster_.transfer(
      src, dst, bytes,
      [this, label, src, dst, bytes, started, flow_handle, batch_id,
       done = std::move(done)]() mutable {
        if (*flow_handle != 0) live_flows_.erase(*flow_handle);
        const Seconds d = cluster_.simulator().now() - started;
        if (d > 0.0 && bytes > 0.0) {
          bandwidth_ema_[src].add(bytes / d);
          bandwidth_ema_[dst].add(bytes / d);
        }
        if (tracer().enabled() && src != dst) {
          // The span's cause is ambient: the flow-end event that finished
          // it, which chains back through the flow start to the producing
          // compute op — or to the bandwidth/fault instant that rescheduled
          // the completion. That edge is what lets blame walk from a slow
          // compute span down into the network layer and out to the fault.
          // A batch-owned transfer then becomes its batch's new chain head
          // so the batch's next compute op chains behind it.
          const std::uint64_t eid = tracer().complete(
              trace::Category::kComm, label, started,
              cluster_.simulator().now(), trace::kPidNetwork,
              static_cast<int>(dst),
              {trace::arg("src", src), trace::arg("dst", dst),
               trace::arg("bytes", bytes)});
          if (batch_id != 0) {
            const auto bit = batches_.find(batch_id);
            if (bit != batches_.end()) bit->second.last_eid = eid;
          }
        }
        if (done) done();
      });
  if (flow != 0) {
    *flow_handle = flow;
    live_flows_.insert(flow);
  }
  return flow;
}

BytesPerSec PipelineExecutor::observed_bandwidth(sim::WorkerId worker) const {
  AUTOPIPE_EXPECT(worker < bandwidth_ema_.size());
  if (bandwidth_ema_[worker].empty()) {
    // No transfer has touched this worker yet; report the NIC line rate.
    return cluster_.nic_bandwidth(cluster_.server_of(worker));
  }
  return bandwidth_ema_[worker].value();
}

// ---------------------------------------------------------------------------
// Partition switching
// ---------------------------------------------------------------------------

SwitchPhase PipelineExecutor::switch_phase() const {
  return switch_state_ ? switch_state_->attempt.phase : SwitchPhase::kIdle;
}

std::uint64_t PipelineExecutor::add_switch_observer(SwitchObserver observer) {
  const std::uint64_t token = next_observer_token_++;
  switch_observers_.emplace_back(token, std::move(observer));
  return token;
}

void PipelineExecutor::remove_switch_observer(std::uint64_t token) {
  switch_observers_.erase(
      std::remove_if(switch_observers_.begin(), switch_observers_.end(),
                     [token](const auto& e) { return e.first == token; }),
      switch_observers_.end());
}

void PipelineExecutor::notify_switch_observers(const SwitchAttempt& attempt) {
  // Iterate a copy: an observer may register or remove observers.
  const auto observers = switch_observers_;
  for (const auto& [token, fn] : observers) {
    if (fn) fn(attempt);
  }
}

bool PipelineExecutor::request_switch(partition::Partition next,
                                      SwitchMode mode, std::uint64_t round) {
  if (switch_state_) return false;
  AUTOPIPE_EXPECT(next.num_layers() == model_.num_layers());
  if (next == *current_partition_) return false;
  return start_switch_attempt(std::move(next), mode, round);
}

bool PipelineExecutor::start_switch_attempt(partition::Partition next,
                                            SwitchMode mode,
                                            std::uint64_t round) {
  AUTOPIPE_EXPECT(switch_state_ == nullptr);
  const Seconds now = cluster_.simulator().now();
  ++switch_generation_;
  switch_state_ = std::make_unique<SwitchState>();
  switch_state_->round = round;
  SwitchState& st = *switch_state_;
  SwitchAttempt& attempt = st.attempt;
  attempt.id = ++switch_attempt_counter_;
  attempt.mode = mode;
  attempt.phase = SwitchPhase::kPrepare;
  attempt.requested_at = now;
  attempt.target =
      std::make_shared<const partition::Partition>(std::move(next));

  // Prepare: plan the migration against the current layout. For every layer
  // whose hosting worker set changes, move the weights from one previous
  // holder to every new holder; transfers between the same (src, dst) pair
  // merge into one flow. With weight stashing, the copy belonging to the
  // latest active mini-batch moves first and the remaining versions are
  // reconstructed from it locally, so one version's bytes per layer is the
  // on-wire cost (§4.4).
  //
  // Donor selection is fault-aware: the source is the first *alive* old
  // holder (which in a healthy cluster is old_ws.front(), the historical
  // choice). When every old holder of a layer is dead, the new holder
  // rebuilds the weights from the PipeDream stash it already co-hosts
  // (versioned copies pinned by in-flight batches) — modelled as a free
  // local reconstruction at Commit, counted in
  // fault_stats().weight_reconstructions.
  const partition::Partition& from = *current_partition_;
  const partition::Partition& to = *attempt.target;
  std::unordered_map<std::uint64_t, std::size_t> pair_index;
  auto key = [](sim::WorkerId a, sim::WorkerId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };
  for (std::size_t layer = 0; layer < model_.num_layers(); ++layer) {
    const auto& old_ws = from.stage(from.stage_of_layer(layer)).workers;
    const auto& new_ws = to.stage(to.stage_of_layer(layer)).workers;
    sim::WorkerId donor = partition::Partition::npos;
    for (sim::WorkerId w : old_ws) {
      if (worker_alive(w)) {
        donor = w;
        break;
      }
    }
    for (sim::WorkerId w : new_ws) {
      if (std::find(old_ws.begin(), old_ws.end(), w) != old_ws.end())
        continue;  // already resident
      if (donor == partition::Partition::npos) {
        st.reconstructions.emplace_back(layer, w);
        continue;  // stash reconstruction on w itself: no wire traffic
      }
      const std::uint64_t k = key(donor, w);
      auto [it, inserted] = pair_index.emplace(k, st.pairs.size());
      if (inserted) st.pairs.push_back(SwitchState::MigrationPair(donor, w));
      SwitchState::MigrationPair& pair = st.pairs[it->second];
      pair.bytes += model_.param_bytes(layer);
      pair.layers.push_back(layer);
    }
  }
  for (const auto& pair : st.pairs) attempt.migration_bytes += pair.bytes;
  attempt.transfers_total = st.pairs.size();

  // Every donor, recipient and target-routed worker participates: losing
  // any of them (or their server's link) aborts the attempt.
  std::unordered_set<sim::WorkerId> involved;
  for (sim::WorkerId w : to.all_workers()) involved.insert(w);
  for (const auto& pair : st.pairs) {
    involved.insert(pair.src);
    involved.insert(pair.dst);
  }
  for (const auto& [layer, w] : st.reconstructions) involved.insert(w);
  attempt.involved_workers.assign(involved.begin(), involved.end());
  std::sort(attempt.involved_workers.begin(), attempt.involved_workers.end());
  std::unordered_set<std::size_t> servers;
  for (sim::WorkerId w : attempt.involved_workers)
    servers.insert(cluster_.server_of(w));
  attempt.involved_servers.assign(servers.begin(), servers.end());
  std::sort(attempt.involved_servers.begin(), attempt.involved_servers.end());

  metrics().add("switch.requested");
  if (tracer().enabled()) {
    trace::Fields request_args = {trace::arg("id", attempt.id)};
    if (round != 0) request_args.push_back(trace::arg("round", round));
    // The request instant picks up the ambient cause (the controller
    // decision or fault event driving it); every later phase instant of
    // this attempt chains to its predecessor through st.last_eid.
    st.last_eid = tracer().instant(
        trace::Category::kSwitch,
        mode == SwitchMode::kStopTheWorld ? "switch_request_stw"
                                          : "switch_request_fine",
        now, trace::kPidControl, 0, request_args);
    trace::Fields prepare_args = {trace::arg("id", attempt.id),
                                  trace::arg("pairs", st.pairs.size()),
                                  trace::arg("bytes", attempt.migration_bytes)};
    if (round != 0) prepare_args.push_back(trace::arg("round", round));
    st.last_eid = tracer().instant(trace::Category::kSwitch, "switch_prepare",
                                   now, trace::kPidControl, 0,
                                   prepare_args, st.last_eid);
  }
  notify_switch_observers(attempt);

  if (mode == SwitchMode::kStopTheWorld) {
    enter_phase(SwitchPhase::kDrain);
    if (active_batches_ == 0) enter_transfer();
    return true;
  }
  // Fine-grained: migrate concurrently with training, no drain phase.
  enter_transfer();
  return true;
}

void PipelineExecutor::enter_phase(SwitchPhase phase) {
  AUTOPIPE_EXPECT(switch_state_ != nullptr);
  SwitchAttempt& attempt = switch_state_->attempt;
  attempt.phase = phase;
  if (phase == SwitchPhase::kDrain && tracer().enabled()) {
    switch_state_->last_eid = tracer().instant(
        trace::Category::kSwitch, "switch_drain_begin",
        cluster_.simulator().now(), trace::kPidControl, 0,
        {trace::arg("id", attempt.id), trace::arg("active", active_batches_)},
        switch_state_->last_eid);
  }
  notify_switch_observers(attempt);
}

void PipelineExecutor::enter_transfer() {
  AUTOPIPE_EXPECT(switch_state_ != nullptr);
  SwitchState& st = *switch_state_;
  SwitchAttempt& attempt = st.attempt;
  attempt.phase = SwitchPhase::kTransfer;
  const Seconds now = cluster_.simulator().now();
  if (attempt.migration_bytes > 0.0)
    metrics().add("switch.migration_bytes", attempt.migration_bytes);
  if (tracer().enabled()) {
    st.last_eid = tracer().instant(
        trace::Category::kSwitch, "switch_transfer_begin", now,
        trace::kPidControl, 0,
        {trace::arg("id", attempt.id), trace::arg("pairs", st.pairs.size()),
         trace::arg("bytes", attempt.migration_bytes)},
        st.last_eid);
  }
  // Observers fire before the flows start, but an observer-injected fault
  // can only act through a scheduled simulator event, so the transfer state
  // below is always fully set up before any abort can land.
  notify_switch_observers(attempt);
  if (switch_state_ == nullptr ||
      switch_state_->attempt.phase != SwitchPhase::kTransfer)
    return;  // defensive: an observer tore the attempt down synchronously

  if (st.pairs.empty()) {
    commit_switch();
    return;
  }
  st.transfers_pending = st.pairs.size();
  const std::uint64_t generation = switch_generation_;
  for (const auto& pair : st.pairs) {
    const sim::FlowId flow = observed_transfer(
        "migrate", pair.src, pair.dst, pair.bytes,
        [this, generation, dst = pair.dst, bytes = pair.bytes,
         layers = pair.layers] {
          if (generation != switch_generation_)
            return;  // switch aborted by fault recovery mid-flight
          AUTOPIPE_EXPECT(switch_state_ &&
                          switch_state_->transfers_pending > 0);
          SwitchState& live = *switch_state_;
          live.attempt.transferred_bytes += bytes;
          ++live.attempt.transfers_done;
          // The weight copies have physically landed on the recipient.
          for (std::size_t layer : layers) holders_add(layer, dst);
          if (--live.transfers_pending == 0) commit_switch();
        });
    if (flow != 0) st.migration_flows.push_back(flow);
  }
}

void PipelineExecutor::commit_switch() {
  AUTOPIPE_EXPECT(switch_state_ != nullptr);
  SwitchState& st = *switch_state_;
  const SwitchMode mode = st.attempt.mode;
  const Seconds now = cluster_.simulator().now();

  // Stash reconstructions land at Commit: recipients rebuild the layers
  // they could not receive from a dead donor.
  if (!st.reconstructions.empty()) {
    for (const auto& [layer, w] : st.reconstructions) holders_add(layer, w);
    fault_stats_.weight_reconstructions += st.reconstructions.size();
    metrics().add("executor.weight_reconstructed_layers",
                  static_cast<double>(st.reconstructions.size()));
    if (tracer().enabled()) {
      st.last_eid = tracer().instant(
          trace::Category::kFault, "weight_reconstruct", now,
          trace::kPidControl, 0,
          {trace::arg("layers", st.reconstructions.size())}, st.last_eid);
    }
  }

  // Layer-by-layer restaging cost on each worker whose assignment changed
  // (PipeSwitch's per-layer transmission calls): a fixed-time task that
  // briefly occupies the GPU.
  const partition::Partition& to = *st.attempt.target;
  for (sim::WorkerId w : current_partition_->changed_workers(to)) {
    const std::size_t s = to.stage_of_worker(w);
    if (s == partition::Partition::npos) continue;
    if (!worker_alive(w)) continue;  // a down GPU cannot restage
    const std::size_t moved_layers = to.stage(s).num_layers();
    cluster_.gpu(w).submit(
        0.0, kSwitchOverheadPerLayer * static_cast<double>(moved_layers),
        nullptr);
  }

  if (mode == SwitchMode::kStopTheWorld) {
    const Seconds stall = now - st.attempt.requested_at;
    total_switch_stall_ += stall;
    metrics().add("switch.stall_seconds", stall);
  }
  metrics().add("switch.count");
  metrics().add("switch.committed");
  st.attempt.phase = SwitchPhase::kCommit;
  if (tracer().enabled()) {
    trace::Fields commit_args = {trace::arg("id", st.attempt.id),
                                 trace::arg("bytes",
                                            st.attempt.transferred_bytes)};
    if (st.round != 0) commit_args.push_back(trace::arg("round", st.round));
    st.last_eid = tracer().instant(trace::Category::kSwitch, "switch_commit",
                                   now, trace::kPidControl, 0,
                                   commit_args, st.last_eid);
    tracer().complete(trace::Category::kSwitch, "switch",
                      st.attempt.requested_at, now, trace::kPidControl, 0,
                      {trace::arg("mode", mode == SwitchMode::kStopTheWorld
                                              ? "stw"
                                              : "fine"),
                       trace::arg("id", st.attempt.id)},
                      st.last_eid);
  }

  current_partition_ = st.attempt.target;
  // Old holders release their primary copies at Commit (in-flight batches
  // finish on stashed versions, accounted in memory.hpp).
  set_holders_from(*current_partition_);
  const SwitchAttempt attempt = std::move(st.attempt);
  switch_state_.reset();
  ++switches_;
  notify_switch_observers(attempt);
  adopt_partition();
}

void PipelineExecutor::abort_switch_attempt(const char* reason,
                                            std::uint64_t cause_eid) {
  if (switch_state_ == nullptr) return;
  if (cause_eid != 0 && tracer().enabled()) {
    // Thread the arbiter's deny instant in as the ambient cause: the abort
    // instant — and the refill events the rollback schedules — then chain
    // across the job boundary to the decision that forced them.
    const std::uint64_t prev = tracer().current_cause();
    tracer().set_current_cause(cause_eid);
    abort_switch(reason);
    tracer().set_current_cause(prev);
    return;
  }
  abort_switch(reason);
}

void PipelineExecutor::abort_switch(const char* reason, bool resume_after) {
  AUTOPIPE_EXPECT(switch_state_ != nullptr);
  SwitchState& st = *switch_state_;
  const Seconds now = cluster_.simulator().now();
  const SwitchPhase at = st.attempt.phase;
  ++switch_generation_;  // orphan any in-flight migrate completions

  // Cancel exactly this attempt's outstanding migration flows; training
  // traffic (act/grad flows) keeps running.
  for (sim::FlowId f : st.migration_flows) {
    if (live_flows_.erase(f) > 0) cluster_.network().cancel_flow(f);
  }

  // Rollback: the pre-switch partition stays authoritative. Weight copies
  // that already landed on recipients are discarded — donors never
  // relinquish theirs before Commit, so no layer loses its last holder.
  const bool rolled_back = at == SwitchPhase::kTransfer;
  for (const auto& pair : st.pairs) {
    for (std::size_t layer : pair.layers) {
      const auto& assigned =
          current_partition_->stage(current_partition_->stage_of_layer(layer))
              .workers;
      if (std::find(assigned.begin(), assigned.end(), pair.dst) ==
          assigned.end())
        holders_remove(layer, pair.dst);
    }
  }

  metrics().add(std::string("switch.aborted.") + switch_phase_name(at));
  metrics().add("executor.switches_aborted");
  if (rolled_back) {
    metrics().add("switch.rolled_back");
    if (st.attempt.transferred_bytes > 0.0)
      metrics().add("switch.rollback_bytes", st.attempt.transferred_bytes);
  }
  if (tracer().enabled()) {
    // The abort instant keeps its *ambient* cause — the fault or emergency
    // event that triggered it — which is the edge the blame engine follows;
    // the rollback and terminal span then chain behind the abort.
    std::uint64_t abort_eid = tracer().instant(
        trace::Category::kSwitch, "switch_abort", now, trace::kPidControl, 0,
        {trace::arg("id", st.attempt.id),
         trace::arg("phase", switch_phase_name(at)),
         trace::arg("reason", reason)});
    if (rolled_back) {
      abort_eid = tracer().instant(
          trace::Category::kSwitch, "switch_rollback", now,
          trace::kPidControl, 0,
          {trace::arg("id", st.attempt.id),
           trace::arg("bytes", st.attempt.transferred_bytes)},
          abort_eid);
    }
    tracer().complete(trace::Category::kSwitch, "switch_aborted",
                      st.attempt.requested_at, now, trace::kPidControl, 0,
                      {trace::arg("mode",
                                  st.attempt.mode == SwitchMode::kStopTheWorld
                                      ? "stw"
                                      : "fine"),
                       trace::arg("phase", switch_phase_name(at)),
                       trace::arg("reason", reason),
                       trace::arg("id", st.attempt.id)},
                      abort_eid);
  }

  st.attempt.aborted_in = at;
  st.attempt.phase = SwitchPhase::kAborted;
  st.attempt.abort_reason = reason;
  const SwitchAttempt attempt = std::move(st.attempt);
  switch_state_.reset();
  ++switches_aborted_;
  notify_switch_observers(attempt);
  // Rollback resumes the pre-switch regime: a stop-the-world drain stops
  // blocking injection. Retry policy lives with the controller (it observes
  // the terminal notification above and backs off through the simulator).
  if (resume_after) resume_if_possible();
}

void PipelineExecutor::maybe_abort_switch_on_worker(sim::WorkerId worker) {
  if (!switch_state_) return;
  const auto& involved = switch_state_->attempt.involved_workers;
  if (std::binary_search(involved.begin(), involved.end(), worker))
    abort_switch("worker_loss");
}

void PipelineExecutor::maybe_abort_switch_on_link(std::size_t server) {
  if (!switch_state_) return;
  const auto& involved = switch_state_->attempt.involved_servers;
  if (std::binary_search(involved.begin(), involved.end(), server))
    abort_switch("link_loss");
}

// ---------------------------------------------------------------------------
// Weight-holder bookkeeping
// ---------------------------------------------------------------------------

void PipelineExecutor::set_holders_from(const partition::Partition& p) {
  layer_holders_.assign(model_.num_layers(), {});
  for (std::size_t layer = 0; layer < model_.num_layers(); ++layer) {
    std::vector<sim::WorkerId> ws = p.stage(p.stage_of_layer(layer)).workers;
    std::sort(ws.begin(), ws.end());
    layer_holders_[layer] = std::move(ws);
  }
}

void PipelineExecutor::holders_add(std::size_t layer, sim::WorkerId worker) {
  auto& hs = layer_holders_[layer];
  const auto it = std::lower_bound(hs.begin(), hs.end(), worker);
  if (it == hs.end() || *it != worker) hs.insert(it, worker);
}

void PipelineExecutor::holders_remove(std::size_t layer,
                                      sim::WorkerId worker) {
  auto& hs = layer_holders_[layer];
  const auto it = std::lower_bound(hs.begin(), hs.end(), worker);
  if (it == hs.end() || *it != worker) return;
  hs.erase(it);
  AUTOPIPE_EXPECT_MSG(!hs.empty(),
                      "weight conservation violated: layer "
                          << layer << " lost its last holder");
}

bool PipelineExecutor::weight_layout_consistent() const {
  if (layer_holders_.size() != model_.num_layers()) return false;
  for (std::size_t layer = 0; layer < model_.num_layers(); ++layer) {
    const auto& holders = layer_holders_[layer];
    if (holders.empty()) return false;
    const auto& assigned =
        current_partition_->stage(current_partition_->stage_of_layer(layer))
            .workers;
    // Every routed worker must hold its stage's layers...
    for (sim::WorkerId w : assigned) {
      if (!std::binary_search(holders.begin(), holders.end(), w))
        return false;
    }
    // ...and outside a switch no worker may hold a layer the layout does
    // not assign to it (never half-transitioned).
    if (!switch_state_) {
      for (sim::WorkerId h : holders) {
        if (std::find(assigned.begin(), assigned.end(), h) == assigned.end())
          return false;
      }
    }
  }
  return true;
}

void PipelineExecutor::adopt_partition() {
  sync_outstanding_.assign(current_partition_->num_stages(), false);
  stage_timing_.assign(current_partition_->num_stages(), StageTiming{});
  in_flight_ = target_in_flight();
  degraded_ = false;
  degraded_lost_.clear();  // a new plan supersedes any pending rejoin
  if (running_) fill_pipeline();
}

// ---------------------------------------------------------------------------
// Fault recovery
// ---------------------------------------------------------------------------

bool PipelineExecutor::worker_alive(sim::WorkerId worker) const {
  return dead_workers_.count(worker) == 0 && cluster_.worker_up(worker);
}

bool PipelineExecutor::partition_serviceable() const {
  if (dead_workers_.empty()) return true;
  for (sim::WorkerId w : current_partition_->all_workers()) {
    if (dead_workers_.count(w)) return false;
  }
  return true;
}

void PipelineExecutor::drop_batch(std::uint64_t batch, bool credit_replay) {
  auto it = batches_.find(batch);
  if (it == batches_.end()) return;
  batches_.erase(it);
  AUTOPIPE_EXPECT(active_batches_ > 0);
  --active_batches_;
  ++fault_stats_.dropped;
  if (credit_replay) ++replay_credit_;
  metrics().add("executor.dropped_batches");
}

std::size_t PipelineExecutor::drop_batches_through(sim::WorkerId worker) {
  // Forward route == backward route under PipeDream semantics, so a batch
  // routed through the lost worker at *any* stage can no longer complete.
  std::vector<std::uint64_t> doomed;
  std::unordered_set<std::size_t> doomed_iterations;
  for (const auto& [id, state] : batches_) {
    const auto& ws = state.route.workers;
    if (std::find(ws.begin(), ws.end(), worker) != ws.end()) {
      doomed.push_back(id);
      if (is_synchronous(config_.mode))
        doomed_iterations.insert(state.route.sync_iteration);
    }
  }
  if (is_synchronous(config_.mode)) {
    // A sync iteration that lost any micro-batch can never pass its
    // barrier: drop the whole iteration and let injection restart it.
    for (const auto& [id, state] : batches_) {
      if (doomed_iterations.count(state.route.sync_iteration) &&
          std::find(doomed.begin(), doomed.end(), id) == doomed.end()) {
        doomed.push_back(id);
      }
    }
    for (std::size_t iter : doomed_iterations) sync_state_.erase(iter);
  }
  for (std::uint64_t id : doomed) {
    // Sync iterations are re-run wholesale rather than replayed batch by
    // batch, so only async drops arm replay credits.
    drop_batch(id, !is_synchronous(config_.mode));
  }
  return doomed.size();
}

void PipelineExecutor::repair_degraded(sim::WorkerId worker) {
  const std::size_t s = current_partition_->stage_of_worker(worker);
  if (s == partition::Partition::npos) return;  // not in the current plan
  if (current_partition_->stage(s).replication() < 2)
    return;  // sole holder lost: stall until recovery or emergency re-plan
  std::vector<partition::StageAssignment> stages =
      current_partition_->stages();
  auto& ws = stages[s].workers;
  ws.erase(std::remove(ws.begin(), ws.end(), worker), ws.end());
  current_partition_ = std::make_shared<const partition::Partition>(
      partition::Partition(std::move(stages), model_.num_layers()));
  degraded_ = true;
  degraded_lost_[worker] = s;
  // The repaired layout no longer routes through the worker; its (intact,
  // preemption keeps device memory) copies leave the authoritative holder
  // set so the layout stays consistent. Replication >= 2 guarantees a
  // surviving holder per layer.
  for (std::size_t layer = 0; layer < model_.num_layers(); ++layer) {
    if (current_partition_->stage_of_layer(layer) == s)
      holders_remove(layer, worker);
  }
  // Same stage count: timings stay comparable, sync gating restarts.
  sync_outstanding_.assign(current_partition_->num_stages(), false);
  in_flight_ = target_in_flight();
  metrics().add("executor.degraded_repairs");
  if (tracer().enabled()) {
    tracer().instant(trace::Category::kFault, "degraded_mode",
                     cluster_.simulator().now(), static_cast<int>(worker),
                     static_cast<int>(s),
                     {trace::arg("replicas",
                                 current_partition_->stage(s).replication())});
  }
}

void PipelineExecutor::resume_if_possible() {
  if (!running_) return;
  // A draining stop-the-world switch normally advances from the iteration
  // callback; when a fault drops the last in-flight batch there will be no
  // more iterations, so complete the drain here.
  if (draining() && active_batches_ == 0) {
    enter_transfer();
    return;
  }
  if (!partition_serviceable()) return;
  if (is_synchronous(config_.mode)) {
    if (active_batches_ == 0 && sync_state_.empty() && !draining()) {
      start_sync_iteration();
    }
  } else {
    fill_pipeline();
  }
}

void PipelineExecutor::notify_worker_down(sim::WorkerId worker) {
  if (!dead_workers_.insert(worker).second) return;
  // A switch that involves the lost worker (as donor, recipient or routed
  // target) can no longer complete: abort before repairing the steady-state
  // layout so the rollback lands against the pre-switch partition.
  maybe_abort_switch_on_worker(worker);
  const std::size_t dropped = drop_batches_through(worker);
  repair_degraded(worker);
  if (tracer().enabled()) {
    tracer().instant(trace::Category::kFault, "worker_loss",
                     cluster_.simulator().now(), static_cast<int>(worker), 0,
                     {trace::arg("dropped", dropped),
                      trace::arg("degraded", degraded_ ? 1 : 0)});
  }
  metrics().add("executor.worker_losses");
  // Replicated stages keep serving with fewer replicas; replays for the
  // dropped batches flow in immediately. A sole-worker stage leaves the
  // partition unserviceable and injection stalls here.
  resume_if_possible();
}

void PipelineExecutor::notify_worker_up(sim::WorkerId worker) {
  if (dead_workers_.erase(worker) == 0) return;
  if (tracer().enabled()) {
    tracer().instant(trace::Category::kFault, "worker_return",
                     cluster_.simulator().now(), static_cast<int>(worker), 0);
  }
  metrics().add("executor.worker_returns");
  // A worker a degraded-mode repair dropped from a replicated stage rejoins
  // that stage in place: preemption keeps device memory, so only the weight
  // versions it missed need reconstructing from a surviving replica's
  // PipeDream stash (local, no wire traffic). Re-admission into a *new*
  // plan — after an emergency re-plan — remains the controller's call.
  const auto lost = degraded_lost_.find(worker);
  if (lost != degraded_lost_.end()) {
    const std::size_t s = lost->second;
    degraded_lost_.erase(lost);
    if (s < current_partition_->num_stages() &&
        current_partition_->stage_of_worker(worker) ==
            partition::Partition::npos) {
      std::vector<partition::StageAssignment> stages =
          current_partition_->stages();
      stages[s].workers.push_back(worker);
      current_partition_ = std::make_shared<const partition::Partition>(
          partition::Partition(std::move(stages), model_.num_layers()));
      sync_outstanding_.assign(current_partition_->num_stages(), false);
      in_flight_ = target_in_flight();
      if (degraded_lost_.empty()) degraded_ = false;
      for (std::size_t layer = 0; layer < model_.num_layers(); ++layer) {
        if (current_partition_->stage_of_layer(layer) == s)
          holders_add(layer, worker);
      }
      const std::size_t layers = current_partition_->stage(s).num_layers();
      fault_stats_.weight_reconstructions += layers;
      metrics().add("executor.weight_reconstructed_layers",
                    static_cast<double>(layers));
      metrics().add("executor.worker_rejoins");
      if (tracer().enabled()) {
        tracer().instant(trace::Category::kFault, "worker_rejoin",
                         cluster_.simulator().now(),
                         static_cast<int>(worker), static_cast<int>(s),
                         {trace::arg("layers", layers)});
      }
    }
  }
  // Preemption keeps device memory: the returned worker still holds its
  // stashed weights, so a pipeline stalled on it resumes by itself.
  resume_if_possible();
}

bool PipelineExecutor::emergency_adopt(partition::Partition next) {
  AUTOPIPE_EXPECT(next.num_layers() == model_.num_layers());
  for (sim::WorkerId w : next.all_workers()) {
    AUTOPIPE_EXPECT(w < cluster_.num_workers());
    if (!worker_alive(w) || !cluster_.worker_reachable(w)) return false;
  }
  const Seconds now = cluster_.simulator().now();

  // Abort any in-flight switch attempt through the staged protocol (this
  // cancels its migration flows and rolls holders back); retry policy
  // lives in the controller, which sees the terminal notification.
  if (switch_state_) abort_switch("emergency", /*resume_after=*/false);

  // Drop whatever is in flight — the batches (conserved and, for async
  // schedules, replayed), the sync-iteration barriers, and this executor's
  // outstanding transfers.
  std::size_t dropped = 0;
  while (!batches_.empty()) {
    drop_batch(batches_.begin()->first, !is_synchronous(config_.mode));
    ++dropped;
  }
  sync_state_.clear();
  for (sim::FlowId f : live_flows_) cluster_.network().cancel_flow(f);
  live_flows_.clear();

  metrics().add("executor.emergency_adopts");
  if (tracer().enabled()) {
    tracer().instant(trace::Category::kFault, "emergency_adopt", now,
                     trace::kPidControl, 0,
                     {trace::arg("dropped", dropped),
                      trace::arg("partition", next.to_string())});
  }

  if (next == *current_partition_) {
    // Nothing to migrate (e.g. a link flap unwedged by dropping the stalled
    // batches): resume on the plan already in place.
    degraded_ = false;
    resume_if_possible();
    return true;
  }
  // Stop-the-world with an instantly-complete drain: the pipeline is
  // already empty, so the attempt advances straight to Transfer.
  return start_switch_attempt(std::move(next), SwitchMode::kStopTheWorld);
}

}  // namespace autopipe::pipeline
