// The AutoPipe controller: the closed loop of §4. Every iteration it takes
// a non-intrusive profile; on resource change (or a periodic fallback) it
// enumerates the two-worker candidate neighbourhood, predicts each
// candidate's speed with the meta-network (or the analytic model, for the
// ablation), asks the arbiter whether the best candidate is worth the
// switching cost, and if so performs a fine-grained switch on the running
// executor. Measured outcomes flow back as RL rewards and, given a
// meta-network, as its online-adaptation samples.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "autopipe/features.hpp"
#include "autopipe/meta_network.hpp"
#include "common/ledger.hpp"
#include "autopipe/profiler.hpp"
#include "autopipe/resource_monitor.hpp"
#include "autopipe/switch_cost.hpp"
#include "partition/neighborhood.hpp"
#include "pipeline/executor.hpp"
#include "rl/dqn.hpp"

namespace autopipe::core {

/// The knobs callers set. The policy constants behind them (history window,
/// validation window, thresholds, watchdog and retry timing) live in
/// controller.cpp; docs/FAULTS.md lists the fault-recovery ones.
struct ControllerConfig {
  enum class ArbiterMode {
    kRl,            ///< the paper's learned arbiter
    kAlwaysSwitch,  ///< straw-man: adopt every improving candidate
    kNeverSwitch,   ///< static configuration (PipeDream behaviour)
    kThreshold,     ///< switch on a fixed gain that pays back the cost
  };
  ArbiterMode arbiter_mode = ArbiterMode::kRl;
  pipeline::PipelineExecutor::SwitchMode switch_mode =
      pipeline::PipelineExecutor::SwitchMode::kFineGrained;
  /// false: score candidates with the analytic integrated model instead of
  /// the meta-network (predictor ablation).
  bool use_meta_network = true;
  /// No decisions before this many completed iterations: the pipeline is
  /// filling and the profiler is converging, so early periods and speeds
  /// are not representative.
  std::size_t min_history_iterations = 10;
  /// Periodic re-evaluation interval (iterations) when no change detected.
  std::size_t decision_interval = 5;
  /// Minimum predicted relative gain for a candidate to be considered.
  double candidate_gain_floor = 0.01;
  /// Explore (epsilon-greedy) in the RL arbiter — on for offline training
  /// episodes, off for deployment.
  bool arbiter_explore = false;
  /// Measured-feedback validation: after a switch, compare the measured
  /// speed over a fixed window with the pre-switch speed; on regression,
  /// revert to the previous partition, skip it for the rest of the regime
  /// and back off further decisions exponentially. This is the deployment
  /// safety net around predictor error (the RL reward plays the same role
  /// during training).
  bool validate_switches = true;
  /// On a detected resource change, compute a full re-plan against the
  /// profiled environment and adopt it in one fine-grained switch when it
  /// predicts a clear gain. Between changes, the two-worker neighbourhood
  /// fine-tunes gradually (§4.2).
  bool replan_on_change = true;
  /// A switch attempt aborted by a fault mid-protocol (the executor rolls
  /// the partial migration back) is retried after a backoff that starts at
  /// this many simulated seconds and doubles per attempt; after three
  /// attempts the target is abandoned (docs/FAULTS.md).
  Seconds switch_retry_base_interval = 0.05;

  // --- Co-tenancy (multi-job clusters) ---
  /// 1-based job id stamped on this controller's ledger decision records.
  /// 0 — the single-tenant default — leaves records untagged so legacy
  /// ledgers stay byte-identical.
  std::uint64_t job_id = 0;
  /// The cluster workers this controller's job owns. Empty (the default)
  /// means the whole cluster, which is the historical single-tenant
  /// behaviour. When set, planning, watchdog reachability and recovery all
  /// confine themselves to these workers; the JobManager adjusts the set at
  /// runtime through set_owned_workers() as the arbiter grants and revokes
  /// GPUs.
  std::vector<sim::WorkerId> owned_workers;
};

class AutoPipeController {
 public:
  /// `meta` and `agent` may be null: a null meta falls back to the analytic
  /// predictor; a null agent is only legal for non-RL arbiter modes.
  AutoPipeController(sim::Cluster& cluster,
                     pipeline::PipelineExecutor& executor,
                     ControllerConfig config, MetaNetwork* meta,
                     rl::DqnAgent* agent,
                     FeatureEncoder encoder = FeatureEncoder{});
  ~AutoPipeController();

  /// Register as the executor's iteration callback. Call once.
  void attach();

  /// The per-iteration hook (public so tests can drive it directly).
  void on_iteration(std::size_t completed_iterations);

  struct Stats {
    std::size_t decisions = 0;
    std::size_t switches_requested = 0;
    std::size_t candidates_evaluated = 0;
    Seconds total_decision_wall_seconds = 0.0;  // host wall clock (Fig 12)
    Seconds last_decision_wall_seconds = 0.0;
    std::size_t changes_detected = 0;
    // Fault-recovery counters.
    std::size_t wedges_detected = 0;
    std::size_t emergency_replans = 0;
    std::size_t readmissions = 0;
    // Interruptible-switch retry policy.
    std::size_t switch_retries = 0;
    std::size_t switch_abandonments = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Decision cooldown (iterations) after `reverts` consecutive reverted
  /// switches: 6 << min(reverts, 6), so many successive reverts saturate at
  /// a 384-iteration pause instead of freezing planning forever. Public so
  /// tests can pin the ceiling.
  static std::size_t revert_backoff_iterations(std::size_t reverts);

  /// Workers excluded by the last emergency re-plan and not yet readmitted.
  const std::vector<sim::WorkerId>& excluded_workers() const {
    return excluded_workers_;
  }

  /// Replace the job's owned-worker set (sorted, deduplicated internally).
  /// The resource monitor is deliberately NOT reset: its next update sees a
  /// changed worker population, reports "worker population changed" and
  /// re-primes — exactly the resource-change signal that triggers a re-plan
  /// onto the new set.
  void set_owned_workers(std::vector<sim::WorkerId> workers);

 private:
  /// A measurement window over completed iterations: the first one past
  /// `after` opens it at that instant, and each later one adds a sample.
  struct Window {
    std::size_t after = 0;
    double start = -1.0;  ///< simulated instant it opened; negative until then
    std::size_t samples = 0;
    /// Count one completed iteration; true when this call opened the window.
    bool step(std::size_t iterations, double now);
    bool full() const;
  };

  /// A committed switch under measured-feedback validation.
  struct Validation {
    partition::Partition previous;  ///< revert destination if validated out
    /// Mean seconds/iteration before the switch (lower is better).
    double period_before = 0.0;
    Window window{};  ///< opens after the Commit iteration
    /// Ledger record whose outcome this window decides (ledger enabled only).
    std::optional<std::uint64_t> ledger_id{};
  };

  /// A decided switch being shepherded through the executor's staged
  /// protocol. Armed before request_switch so a synchronous Commit sees it;
  /// cleared on Commit (validation/probe arming moves there — an aborted
  /// attempt must not be validated) or on abandonment/supersession.
  struct TrackedSwitch {
    partition::Partition target;
    /// Becomes validation_ on Commit; empty for an unvalidated switch.
    std::optional<Validation> validation{};
    std::optional<std::uint64_t> ledger_id{};
    std::size_t attempts = 1;  ///< request_switch calls issued so far
    bool retry_scheduled = false;
    pipeline::SwitchPhase last_abort_phase = pipeline::SwitchPhase::kIdle;
  };

  /// An open realized-speed measurement for a ledger record: every hold
  /// decision, and switches that could not arm a validation window. Resolved
  /// once its window is full, or superseded when the regime changes under
  /// it. Only kept while the ledger is enabled; a hold does NOT supersede
  /// earlier holds (the regime is unchanged), so a few probes overlap when
  /// decision_interval is shorter than the window.
  struct LedgerProbe {
    std::uint64_t id = 0;
    bool switched = false;
    Window window;  ///< opens after the decision iteration
  };

  /// One planning round: the inputs its steps share and its ledger record
  /// (filled only while the ledger is on).
  struct Round {
    const ProfileSnapshot& snapshot;
    const partition::Partition& current;
    /// One environment view serves every prediction and cost of the round.
    partition::EnvironmentView env;
    double current_speed = 0.0;
    double best_speed = 0.0;
    bool ledger_on = false;
    trace::DecisionRecord rec{};
  };

  // --- Monitor: the steps of on_iteration before any decision ---
  void note_progress(std::size_t completed_iterations);
  ProfileSnapshot& observe();
  void adapt_meta_network(const ProfileSnapshot& snapshot);
  bool detect_change(const ProfileSnapshot& snapshot);
  bool workers_usable(const ProfileSnapshot& snapshot) const;
  bool decision_due(std::size_t completed_iterations, bool changed) const;

  // --- Validator ---
  /// Advance the validation window; true when it was full, which ends the
  /// iteration.
  bool validate(std::size_t completed_iterations);
  /// Revert a switch that measured worse. False when the switch engine was
  /// busy: the window stays full and the revert retries next iteration.
  bool revert(double after_period, std::size_t completed_iterations);
  /// Median of the recent iteration periods.
  double baseline_period() const;

  // --- Candidates and scorer ---
  void evaluate_and_decide(const ProfileSnapshot& snapshot,
                           bool after_change);
  void begin_record(Round& r);
  /// On a detected change, adopt a full re-plan that predicts a clear gain.
  /// Returns whether its switch was issued.
  bool adopt_replan(Round& r);
  /// Full re-plan against the profiled environment `env` (DP + short
  /// descent). Returns the plan and its analytic speed prediction.
  std::pair<partition::Partition, double> replan(
      const ProfileSnapshot& snapshot, const partition::EnvironmentView& env);
  /// Score every two-worker move in place on the scratch stages; returns
  /// the best one as a Partition and leaves its speed in `r.best_speed`.
  std::optional<partition::Partition> score_moves(Round& r);
  /// Predicted samples/s of a partition given by its stages; `env` is the
  /// round's view of `snapshot` (used by the analytic predictor).
  double predict_speed(const ProfileSnapshot& snapshot,
                       std::span<const partition::StageAssignment> stages,
                       const partition::EnvironmentView& env);
  SwitchCostEstimate switch_cost(
      const Round& r, std::span<const partition::StageAssignment> to) const;
  /// Name `stages` as the round's next ledger candidate and, unless
  /// skipped, cost it.
  const trace::CandidateScore& add_candidate(
      Round& r, std::span<const partition::StageAssignment> stages,
      double speed, bool skipped);
  /// Membership in rejected_, and insertion into it.
  bool rejected(std::span<const partition::StageAssignment> stages) const;
  void reject(const partition::Partition& p);

  // --- Arbiter and actuator ---
  /// The gain floor, the arbiter's verdict and its actuation.
  void decide(Round& r, const std::optional<partition::Partition>& winner);
  /// The arbiter mode's verdict (1 = switch), named in `r.rec` and counted
  /// in the metrics and the trace.
  int arbitrate(Round& r, const std::vector<double>& state,
                double cost_seconds);
  void settle_pending_reward(const ProfileSnapshot& snapshot);
  /// The one path every controller switch takes: supersede the tracked
  /// switch as `supersede_reason`, arm a new one (validated on Commit when
  /// `validate`), file `record` in the ledger (closing the open validation
  /// record and probes; its id replaces `round`), then request the switch.
  /// All of it is armed first because an empty-pipeline attempt can Commit
  /// synchronously. A busy engine drops the switch as `engine_busy`.
  /// Returns whether the executor accepted the request.
  bool issue_switch(const partition::Partition& target,
                    const std::string& supersede_reason, bool validate,
                    trace::DecisionRecord* record, std::uint64_t round = 0);
  /// Executor phase-observer hook: arms validation on Commit, schedules a
  /// backed-off retry (or abandons) on a fault Abort.
  void on_switch_event(const pipeline::PipelineExecutor::SwitchAttempt& a);
  /// Schedule the next retry of the tracked switch, or abandon it once the
  /// attempt budget is spent.
  void schedule_switch_retry();
  /// Terminal failure: resolve the ledger record to aborted_<phase>,
  /// blacklist the target for this regime, emit `switch.abandoned`.
  void abandon_tracked_switch();
  /// Forget the tracked switch, resolving its ledger record (if any) to
  /// `status`: superseded by a newer decision or recovery, or aborted.
  void drop_tracked_switch(
      const std::string& reason,
      trace::OutcomeStatus status = trace::OutcomeStatus::kSuperseded);

  // --- Recovery: stall watchdog, emergency re-plan, readmission ---
  /// True when every worker of `p` is up and its server's link is up.
  bool partition_reachable(const partition::Partition& p) const;
  void arm_watchdog();
  void watchdog_tick();
  /// One emergency-recovery attempt: re-plan over the reachable workers and
  /// adopt it through the executor's emergency path. Bounded retries with
  /// exponential backoff; gives up after the retry budget.
  void attempt_recovery(Seconds now);
  /// Fold returned excluded workers back in with a full-width re-plan.
  /// Returns true if a switch was requested.
  bool maybe_readmit(const ProfileSnapshot& snapshot);
  /// Speed-proportional plan over the reachable owned workers (at most one
  /// per layer, one stage each), or nothing when none is reachable or the
  /// environment is still too unsettled to plan on.
  std::optional<partition::Partition> reachable_plan(
      const ProfileSnapshot& snapshot) const;

  // --- Decision-ledger plumbing (no-ops while the ledger is disabled) ---
  trace::DecisionLedger& ledger();
  /// FNV-1a hex digest of the resource snapshot a decision was taken under.
  std::string snapshot_digest(const ProfileSnapshot& snapshot) const;
  /// Resolve record `id` and feed the live calibration series in metrics().
  void ledger_resolve(std::uint64_t id, trace::OutcomeStatus status,
                      double realized, int window, std::string reason);
  /// File a hold decision and open its probe.
  void file_hold(trace::DecisionRecord& rec);
  /// Advance every open realized-speed probe by one completed iteration.
  void advance_probes();
  /// Resolve a probe from its window so far: the action sets the status.
  void resolve_probe(const LedgerProbe& p, double now, std::string reason);
  /// Terminal-state every open probe: the regime changed under it.
  void supersede_probes(const std::string& reason);
  /// Supersede the active validation's record and every open probe.
  void supersede_records(const std::string& reason);
  /// Resolve the record attached to the active validation window, if any.
  void resolve_validation_record(trace::OutcomeStatus status, double realized,
                                 int window, const std::string& reason);
  /// Record an instant on the control row at the current simulated time,
  /// when tracing is on.
  template <typename... F>
  void record_instant(trace::Category category, std::string_view name,
                      const F&... fields);

  /// Owned-worker subselection helpers for co-tenancy: owned_ is always the
  /// authoritative sorted set (the whole cluster when config_.owned_workers
  /// is empty), and job_scoped() says whether it is a strict subset.
  bool job_scoped() const { return owned_.size() < cluster_.num_workers(); }
  /// Profile snapshot restricted to the owned workers (identity when not
  /// job-scoped): dense [0, owned) id space for the DP planner and the
  /// resource monitor.
  ProfileSnapshot scoped_snapshot(const ProfileSnapshot& snapshot) const;

  sim::Cluster& cluster_;
  pipeline::PipelineExecutor& executor_;
  ControllerConfig config_;
  MetaNetwork* meta_;
  rl::DqnAgent* agent_;
  FeatureEncoder encoder_;
  Profiler profiler_;
  ResourceMonitor monitor_;

  std::deque<std::vector<double>> dynamic_history_;
  std::vector<double> static_features_;

  struct PendingDecision {
    std::vector<double> state;
    int action = 0;
    double cost_if_switched = 0.0;
  };
  std::optional<PendingDecision> pending_;
  std::size_t last_switch_iteration_ = 0;

  std::optional<Validation> validation_;
  std::optional<TrackedSwitch> tracked_switch_;
  std::uint64_t switch_observer_token_ = 0;
  /// Bumped whenever tracked_switch_ is consumed; orphans scheduled retries.
  std::uint64_t retry_epoch_ = 0;

  std::size_t cooldown_until_ = 0;
  /// Consecutive reverted switches; drives exponential decision backoff so
  /// a mispredicting predictor cannot thrash a stable environment.
  std::size_t consecutive_reverts_ = 0;
  /// Rolling window of recent iteration periods (seconds), the baseline a
  /// switch is validated against.
  std::deque<double> recent_period_;
  /// Partitions that measured worse than predicted after adoption; skipped
  /// until the environment changes again.
  std::vector<partition::Partition> rejected_;

  /// Buffers reused across iterations and planning rounds (grown on first
  /// use): the profile reading, the resource monitor's view of it, the
  /// round's move list and the scratch stages moves are scored on.
  ProfileSnapshot snapshot_;
  ProfileSnapshot monitor_view_;
  std::vector<partition::Move> moves_;
  std::vector<partition::StageAssignment> scratch_;

  std::vector<SpeedSample> adaptation_buffer_;
  Stats stats_;
  std::vector<LedgerProbe> probes_;

  // --- Watchdog / fault-recovery state ---
  bool watchdog_armed_ = false;
  /// Whether a tick has ever observed the executor running (distinguishes
  /// "run() not started yet" from "training finished").
  bool watchdog_saw_running_ = false;
  bool wedged_ = false;
  bool recovery_given_up_ = false;
  /// EMA of iteration periods (simulated seconds), the stall yardstick.
  double ema_period_ = 0.0;
  Seconds last_iteration_at_ = -1.0;
  Seconds last_progress_time_ = 0.0;
  std::size_t last_progress_iterations_ = 0;
  std::size_t recovery_attempts_ = 0;
  Seconds next_recovery_at_ = 0.0;
  std::vector<sim::WorkerId> excluded_workers_;
  /// A worker's last good profiler samples, substituted while its feed is
  /// muted (fault-injected dropout).
  struct HeldSample {
    BytesPerSec bandwidth = 0.0;
    FlopsPerSec speed = 0.0;
    BytesPerSec nic_bandwidth = 0.0;
  };
  std::vector<HeldSample> held_;
  /// Sorted owned-worker set (see set_owned_workers); every worker of the
  /// cluster when the config left owned_workers empty.
  std::vector<sim::WorkerId> owned_;
};

}  // namespace autopipe::core
