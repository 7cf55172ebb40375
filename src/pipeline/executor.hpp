// Event-driven pipeline-parallel training executor.
//
// Runs a work partition on the simulated cluster: per-stage FP/BP compute
// tasks on the stage's GPUs, activation/gradient flows across the network,
// weight-synchronization collectives inside replicated stages, and — the
// part that makes AutoPipe possible — *live partition switching* while the
// pipeline keeps running.
//
// Mini-batch routing: a replicated stage serves whole mini-batches
// round-robin across its replicas (PipeDream's replication semantics), so a
// batch's route fixes one worker per stage at injection time. In-flight
// batches complete on the route they started with even across a partition
// switch; PipeDream's weight stashing is what makes that sound, and the
// executor models its memory cost in memory.hpp.
//
// Switching modes:
//  * kStopTheWorld — the straw-man of §3.1: stop injecting, drain, move the
//    re-homed layers' weights, refill. The drain+refill bubble is visible in
//    the iteration-time series.
//  * kFineGrained — AutoPipe §4.4: weight migration flows start immediately
//    and contend with training traffic; the affected workers pay a
//    layer-by-layer restaging overhead; injection never stops, and the new
//    assignment takes effect for batches injected after the migration
//    completes (earlier batches finish on stashed weights).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "comm/collective.hpp"
#include "comm/framework.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "models/model.hpp"
#include "partition/partition.hpp"
#include "pipeline/report.hpp"
#include "pipeline/schedule.hpp"
#include "sim/cluster.hpp"

namespace autopipe::pipeline {

/// Protocol phase of a partition switch. Every switch is a staged
/// transaction — Prepare (plan the migration, pick donors) → Drain
/// (stop-the-world only: wait for in-flight batches) → Transfer (weight
/// migration flows on the wire) → Commit (adopt the new layout, restage).
/// Abort/Rollback is reachable from every non-committed phase: the
/// pre-switch partition stays authoritative and partially-received weight
/// copies are discarded (donors never relinquish theirs before Commit, so
/// rollback is always safe).
enum class SwitchPhase {
  kIdle,      ///< no switch in progress
  kPrepare,   ///< migration plan computed, donors chosen
  kDrain,     ///< stop-the-world: waiting for the pipeline to empty
  kTransfer,  ///< weight-migration flows in flight
  kCommit,    ///< terminal: new partition adopted
  kAborted,   ///< terminal: rolled back to the pre-switch partition
};

/// Stable lower-case name ("idle", "prepare", ...), used in trace events,
/// metrics names (switch.aborted.<phase>) and ledger outcomes.
const char* switch_phase_name(SwitchPhase phase);

/// Fixed restaging cost per migrated layer on an affected worker during a
/// fine-grained switch (PipeSwitch's per-layer transmission calls); the
/// controller's switch-cost estimate charges the same.
inline constexpr Seconds kSwitchOverheadPerLayer = millis(2);

struct ExecutorConfig {
  /// Samples per mini-batch; 0 uses the model's default.
  std::size_t batch_size = 0;
  comm::FrameworkProfile framework = comm::pytorch_profile();
  comm::SyncScheme sync_scheme = comm::SyncScheme::kRing;
  ScheduleMode mode = ScheduleMode::kAsync1F1B;
  /// Micro-batches per mini-batch for the synchronous schedules.
  std::size_t micro_batches = 4;
  /// In-flight mini-batches (PipeDream's NOW); 0 derives it from the
  /// partition.
  std::size_t in_flight = 0;
  /// GPipe's activation recomputation: discard stage-internal activations
  /// after the forward pass and recompute them at backward time. Trades
  /// one extra forward pass of compute for an O(stage) smaller activation
  /// stash (§2.1: "GPipe recomputes the FP").
  bool recompute_activations = false;
  /// Co-tenancy: 1-based job id tagged on this executor's trace events
  /// (`job=` arg on iteration marks and switch-phase instants). 0 — the
  /// single-tenant default — emits no job arg, keeping legacy artifacts
  /// byte-identical.
  std::uint64_t job_id = 0;
  /// Stop injecting new batches once the in-flight set suffices to reach
  /// run_target_. Single-tenant run() loops leave this off (the executor is
  /// the only event source, so over-injection is harmless and the historical
  /// traces depend on it); a fleet must set it or a finished job keeps
  /// training on shared GPUs while its siblings run on.
  bool halt_injection_at_target = false;
};

class PipelineExecutor {
 public:
  PipelineExecutor(sim::Cluster& cluster, const models::ModelSpec& model,
                   partition::Partition initial, ExecutorConfig config);

  /// Unregisters the cluster worker/link-state observers the constructor
  /// added (multi-slot, so several co-tenant executors can share a cluster).
  ~PipelineExecutor();

  PipelineExecutor(const PipelineExecutor&) = delete;
  PipelineExecutor& operator=(const PipelineExecutor&) = delete;

  /// Invoked after every completed iteration (weight update) with the count
  /// so far; the AutoPipe controller and the dynamic-resource traces hook
  /// here. Safe to call request_switch() from inside.
  using IterationCallback = std::function<void(std::size_t iterations)>;
  void set_iteration_callback(IterationCallback cb);

  /// Run `iterations` mini-batch updates; throughput is measured after the
  /// first `warmup` of them. Resumable: consecutive runs continue the same
  /// training timeline.
  ExecutionReport run(std::size_t iterations, std::size_t warmup = 0);

  /// Split-phase run for co-tenant fleets, where one caller drives the
  /// simulator for several executors at once: begin_run primes the pipeline
  /// and captures measurement baselines (but pumps no events); the caller
  /// steps the shared simulator until run_complete(); finish_run() closes
  /// the measurement window *at that moment* and returns the report.
  /// run() == begin_run + step-until-complete + finish_run.
  void begin_run(std::size_t iterations, std::size_t warmup = 0);
  bool run_complete() const { return completed_iterations_ >= run_target_; }
  ExecutionReport finish_run();

  enum class SwitchMode { kStopTheWorld, kFineGrained };

  /// Adopt a new partition. Returns false (no-op) if a switch is already in
  /// progress or the partition is identical to the current one. `round` is
  /// the decision-round ledger id driving this switch (0 = none); it tags
  /// the attempt's switch-phase trace instants so the causal trace links
  /// protocol events back to the controller decision.
  bool request_switch(partition::Partition next, SwitchMode mode,
                      std::uint64_t round = 0);
  bool switch_in_progress() const { return switch_state_ != nullptr; }

  /// Phase of the in-flight switch; kIdle when none is in progress.
  SwitchPhase switch_phase() const;

  /// One switch attempt's protocol state, as seen by phase observers. The
  /// terminal notification carries phase == kCommit or kAborted; an aborted
  /// attempt records the phase the fault interrupted in `aborted_in` and a
  /// stable reason string ("worker_loss", "link_loss", "emergency").
  struct SwitchAttempt {
    std::uint64_t id = 0;  ///< 1-based, monotonic per executor
    SwitchMode mode = SwitchMode::kFineGrained;
    SwitchPhase phase = SwitchPhase::kIdle;
    SwitchPhase aborted_in = SwitchPhase::kIdle;
    std::string abort_reason;
    Seconds requested_at = 0.0;
    Bytes migration_bytes = 0.0;    ///< planned on-wire bytes
    Bytes transferred_bytes = 0.0;  ///< bytes whose flows completed
    std::size_t transfers_total = 0;
    std::size_t transfers_done = 0;
    /// Workers/servers whose failure aborts this attempt: every donor,
    /// every recipient and every worker routed by the target partition.
    /// Sorted, deduplicated.
    std::vector<sim::WorkerId> involved_workers;
    std::vector<std::size_t> involved_servers;
    /// The layout this attempt migrates toward (rollback keeps the current
    /// partition). Shared so observers can retry an aborted target.
    std::shared_ptr<const partition::Partition> target;
  };

  /// Observe every phase transition of every switch attempt, including the
  /// terminal kCommit/kAborted notification. Multi-slot; fired
  /// synchronously, so observers must not re-enter the switch path —
  /// schedule follow-up work (retries, fault injection) through the
  /// simulator instead. Returns a token for remove_switch_observer.
  using SwitchObserver = std::function<void(const SwitchAttempt&)>;
  std::uint64_t add_switch_observer(SwitchObserver observer);
  void remove_switch_observer(std::uint64_t token);

  /// Abort the in-flight switch attempt from outside the protocol — the
  /// cluster arbiter denying a reconfiguration that a sibling job won. The
  /// rollback path is the same staged-protocol abort used for faults; a
  /// non-zero `cause_eid` (the arbiter's deny instant) becomes the abort
  /// instant's causal parent so blame chains cross the job boundary. No-op
  /// when no switch is in progress.
  void abort_switch_attempt(const char* reason, std::uint64_t cause_eid = 0);

  /// Total switch attempts accepted (committed + aborted + in-flight).
  std::size_t switch_attempts() const { return switch_attempt_counter_; }
  std::size_t switches_aborted() const { return switches_aborted_; }

  /// Per-layer primary weight-holder sets, tracked through the physical
  /// copy operations (migration flows, stash reconstructions, degraded
  /// repairs) rather than recomputed from the logical layout — so tests can
  /// verify the two never diverge. Sorted per layer.
  const std::vector<std::vector<sim::WorkerId>>& layer_holders() const {
    return layer_holders_;
  }

  /// Weight-conservation / consistent-layout invariant: every layer has at
  /// least one holder, every worker the current partition routes holds its
  /// stage's layers, and — outside a switch — no worker holds a layer the
  /// layout does not assign to it (never half-transitioned).
  bool weight_layout_consistent() const;

  const partition::Partition& current_partition() const {
    return *current_partition_;
  }
  std::size_t completed_iterations() const { return completed_iterations_; }
  std::size_t switches_performed() const { return switches_; }
  bool running() const { return running_; }

  // --- fault recovery ---------------------------------------------------

  /// Mini-batch conservation accounting across faults: at every instant,
  /// injected == completed + dropped + active. Replays are fresh
  /// injections credited against earlier drops.
  struct FaultStats {
    std::uint64_t injected = 0;   ///< batch units created (micro for sync)
    std::uint64_t completed = 0;  ///< batch units that finished BP at stage 0
    std::uint64_t dropped = 0;    ///< batch units lost to worker failures
    std::uint64_t replayed = 0;   ///< re-injections covering earlier drops
    std::uint64_t weight_reconstructions = 0;  ///< layers rebuilt from stash
    std::uint64_t orphan_events = 0;  ///< completions for dropped batches
  };
  const FaultStats& fault_stats() const { return fault_stats_; }
  std::size_t active_batches() const { return active_batches_; }

  /// Worker-loss transitions, invoked by the cluster's worker-state
  /// callback (registered in the constructor). On loss: drop every
  /// in-flight batch routed through the worker, then — if the worker's
  /// stage has surviving replicas — shrink the stage in place and keep
  /// going in degraded mode; a sole-worker stage stalls injection until
  /// the worker returns or a controller adopts an emergency plan. On
  /// return: the worker's stashed weights are assumed intact (preemption,
  /// not disk loss), so a stalled pipeline resumes by itself.
  void notify_worker_down(sim::WorkerId worker);
  void notify_worker_up(sim::WorkerId worker);

  /// Fewer replicas than planned are serving some stage while recovery
  /// runs. Cleared when a new partition is adopted.
  bool degraded() const { return degraded_; }

  /// Every stage of the current partition has at least its routed workers
  /// alive; injection pauses while false.
  bool partition_serviceable() const;

  /// Controller-driven emergency recovery: abort any in-flight switch,
  /// drop all in-flight batches (counted, replayable), cancel this
  /// executor's outstanding transfers, and adopt `next` immediately with
  /// donor-aware weight migration (alive holders first, stash
  /// reconstruction otherwise). Returns false when `next` routes through a
  /// dead or unreachable worker.
  bool emergency_adopt(partition::Partition next);

  // --- profiler-facing telemetry ---------------------------------------

  /// EMA of transfer rates observed at each worker over the last
  /// iterations — the paper's non-intrusive available-bandwidth estimate.
  BytesPerSec observed_bandwidth(sim::WorkerId worker) const;

  struct StageTiming {
    Seconds fp = 0.0;
    Seconds bp = 0.0;
  };
  /// Most recent measured FP/BP wall time per stage of the current
  /// partition (whole mini-batch, one replica).
  const std::vector<StageTiming>& last_stage_timing() const {
    return stage_timing_;
  }
  Seconds last_iteration_time() const { return last_iteration_time_; }

  const ExecutorConfig& config() const { return config_; }
  std::size_t batch_size() const { return batch_; }
  const models::ModelSpec& model() const { return model_; }

 private:
  /// One mini-batch's (or micro-batch's) pinned route through the stages.
  struct Route {
    std::shared_ptr<const partition::Partition> partition;
    std::vector<sim::WorkerId> workers;  // one per stage
    std::size_t micro_size;              // samples in this batch unit
    std::size_t sync_iteration = 0;      // owning iteration (sync modes)
    bool reversed = false;               // Chimera stream B
  };

  struct SyncIterationState {
    std::size_t fp_remaining = 0;    // micro FPs yet to finish at last stage
    std::size_t bp_remaining = 0;    // micro BPs yet to finish at stage 0
    std::size_t syncs_pending = 0;   // weight syncs in flight at flush
    std::vector<std::uint64_t> queued_bp;  // GPipe: BPs released after barrier
  };

  /// In-flight switch attempt. `attempt` is the observer-visible protocol
  /// record; the rest is migration-plan state computed at Prepare.
  struct SwitchState {
    SwitchAttempt attempt;
    /// One planned migration flow: donor → recipient carrying `layers`.
    struct MigrationPair {
      MigrationPair(sim::WorkerId s, sim::WorkerId d) : src(s), dst(d) {}
      sim::WorkerId src = 0;
      sim::WorkerId dst = 0;
      Bytes bytes = 0.0;
      std::vector<std::size_t> layers;
    };
    std::vector<MigrationPair> pairs;
    /// Layers with no alive donor: the recipient rebuilds them from its
    /// co-hosted PipeDream stash at Commit (no wire traffic).
    std::vector<std::pair<std::size_t, sim::WorkerId>> reconstructions;
    std::size_t transfers_pending = 0;
    /// Flow ids of the in-flight migration transfers, so abort can cancel
    /// exactly these (activation/gradient flows keep running).
    std::vector<sim::FlowId> migration_flows;
    /// Trace eid of the attempt's latest switch-phase instant: each phase
    /// transition chains to the previous one regardless of which event's
    /// callback drives it.
    std::uint64_t last_eid = 0;
    /// Decision-round ledger id tagged on the phase instants (0 = none).
    std::uint64_t round = 0;
  };
  bool draining() const {
    return switch_state_ != nullptr &&
           switch_state_->attempt.phase == SwitchPhase::kDrain;
  }

  // Injection / iteration control.
  void fill_pipeline();
  void inject_async_batch();
  void start_sync_iteration();
  void on_iteration_complete();
  std::size_t target_in_flight() const;

  // Per-batch pipeline progression.
  std::uint64_t make_batch(Route route);
  void start_fp(std::uint64_t batch, std::size_t stage);
  void after_fp(std::uint64_t batch, std::size_t stage);
  void start_bp(std::uint64_t batch, std::size_t stage);
  void after_bp(std::uint64_t batch, std::size_t stage);
  void finish_batch(std::uint64_t batch);

  // Stage cost helpers.
  Flops stage_fp_flops(const partition::Partition& p, std::size_t stage,
                       std::size_t samples) const;
  Flops stage_bp_flops(const partition::Partition& p, std::size_t stage,
                       std::size_t samples) const;
  Seconds stage_overhead(const partition::Partition& p,
                         std::size_t stage) const;

  // Weight synchronization.
  void maybe_async_sync(const Route& route, std::size_t stage);
  void run_flush_syncs(std::size_t sync_iter);

  // Transfers with bandwidth observation. `label` names the traffic class in
  // the trace ("act", "grad", "migrate"). Returns the flow id (0 for a
  // device-local copy) so switch rollback can cancel migration flows.
  // The transfer's trace span takes its cause from the ambient context (the
  // flow-end event that completed it, which chains back to the flow start
  // or to the fault/bandwidth instant that rescheduled it); a non-zero
  // `batch_id` additionally makes the span the batch's new chain head so
  // the batch's next compute op chains behind the transfer.
  sim::FlowId observed_transfer(const char* label, sim::WorkerId src,
                                sim::WorkerId dst, Bytes bytes,
                                std::function<void()> done,
                                std::uint64_t batch_id = 0);

  // The simulator-owned trace/metrics sinks every emission goes through.
  trace::TraceRecorder& tracer() { return cluster_.simulator().tracer(); }
  trace::MetricsRegistry& metrics() { return cluster_.simulator().metrics(); }

  // Switching — the staged protocol. start_switch_attempt runs Prepare and
  // advances into Drain (stop-the-world) or Transfer (fine-grained);
  // enter_transfer launches the migration flows; commit_switch adopts the
  // target; abort_switch rolls back to the pre-switch partition.
  bool start_switch_attempt(partition::Partition next, SwitchMode mode,
                            std::uint64_t round = 0);
  void enter_phase(SwitchPhase phase);
  void enter_transfer();
  void commit_switch();
  /// Roll back to the pre-switch partition. `resume_after` restarts
  /// injection (false only on the emergency path, which re-empties the
  /// pipeline itself right after).
  void abort_switch(const char* reason, bool resume_after = true);
  void notify_switch_observers(const SwitchAttempt& attempt);
  /// A worker/server fault that touches an in-flight attempt aborts it.
  void maybe_abort_switch_on_worker(sim::WorkerId worker);
  void maybe_abort_switch_on_link(std::size_t server);
  void adopt_partition();

  // Physical weight-holder bookkeeping (see layer_holders()).
  void set_holders_from(const partition::Partition& p);
  void holders_add(std::size_t layer, sim::WorkerId worker);
  void holders_remove(std::size_t layer, sim::WorkerId worker);

  // Fault handling.
  bool worker_alive(sim::WorkerId worker) const;
  /// Erase one batch (and its conservation accounting). `credit_replay`
  /// arms a replacement injection for async schedules.
  void drop_batch(std::uint64_t batch, bool credit_replay);
  /// Drop every batch routed through `worker`; in sync modes whole
  /// iterations are dropped (their barrier can no longer be satisfied).
  std::size_t drop_batches_through(sim::WorkerId worker);
  /// Shrink the dead worker's stage in place when replicas survive.
  void repair_degraded(sim::WorkerId worker);
  void resume_if_possible();

  sim::Cluster& cluster_;
  const models::ModelSpec& model_;
  ExecutorConfig config_;
  std::size_t batch_;
  std::shared_ptr<const partition::Partition> current_partition_;
  std::size_t in_flight_;

  struct BatchState {
    Route route;
    Seconds task_started = 0.0;
    /// Trace eid of the batch's latest op (inject, fp, bp, act/grad
    /// transfer): the next op in the chain records it as explicit cause, so
    /// the causal trace carries the true per-batch dependency even when
    /// unrelated events interleave on the ambient context.
    std::uint64_t last_eid = 0;
  };
  std::unordered_map<std::uint64_t, BatchState> batches_;
  std::uint64_t next_batch_id_ = 1;
  std::uint64_t next_round_robin_ = 0;  // replica selection counter
  std::size_t active_batches_ = 0;

  // Sync-mode state (one mini-batch iteration at a time).
  std::size_t sync_iter_counter_ = 0;
  std::unordered_map<std::size_t, SyncIterationState> sync_state_;

  // Async weight-sync gating: one outstanding collective per stage.
  std::vector<bool> sync_outstanding_;

  std::unique_ptr<SwitchState> switch_state_;
  std::size_t switches_ = 0;
  std::size_t switches_aborted_ = 0;
  std::uint64_t switch_attempt_counter_ = 0;
  Seconds total_switch_stall_ = 0.0;
  /// Invalidates in-flight migration-transfer callbacks when a fault aborts
  /// the switch they belong to.
  std::uint64_t switch_generation_ = 0;
  /// Phase observers, keyed by registration token (see add_switch_observer).
  std::vector<std::pair<std::uint64_t, SwitchObserver>> switch_observers_;
  std::uint64_t next_observer_token_ = 1;
  /// Per-layer primary weight-holder sets (sorted); see layer_holders().
  std::vector<std::vector<sim::WorkerId>> layer_holders_;

  // Fault state.
  std::unordered_set<sim::WorkerId> dead_workers_;
  std::unordered_set<sim::FlowId> live_flows_;
  FaultStats fault_stats_;
  std::uint64_t replay_credit_ = 0;
  bool degraded_ = false;
  /// Workers dropped from a replicated stage by a degraded-mode repair,
  /// keyed to the stage they left — so a preempted worker that comes back
  /// can rejoin in place. Cleared when a switch installs a new partition.
  std::unordered_map<sim::WorkerId, std::size_t> degraded_lost_;

  IterationCallback iteration_callback_;
  std::size_t completed_iterations_ = 0;
  std::size_t run_target_ = 0;
  bool running_ = false;

  /// Measurement baselines captured by begin_run, consumed by finish_run.
  struct RunContext {
    std::size_t prior = 0;
    std::size_t iterations = 0;
    std::size_t warmup = 0;
    Seconds entry_time = 0.0;
    Bytes entry_bytes = 0.0;
    std::vector<Seconds> entry_busy;
  };
  RunContext run_ctx_;

  /// Tokens for the cluster worker/link-state observers registered in the
  /// constructor (multi-slot, so several executors share one cluster).
  std::uint64_t worker_cb_token_ = 0;
  std::uint64_t link_cb_token_ = 0;

  // Telemetry.
  std::vector<Ema> bandwidth_ema_;  // per worker
  std::vector<StageTiming> stage_timing_;
  Seconds last_iteration_end_ = 0.0;
  Seconds last_iteration_time_ = 0.0;
  std::vector<Seconds> iteration_end_times_;
};

}  // namespace autopipe::pipeline
