#include "autopipe/controller.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/expect.hpp"
#include "common/log.hpp"
#include "common/profile.hpp"
#include "partition/analytic_eval.hpp"
#include "partition/neighborhood.hpp"
#include "partition/pipedream_planner.hpp"
#include "partition/rebalance.hpp"

namespace autopipe::core {

namespace {

// Policy constants. Fault-recovery ones are documented in docs/FAULTS.md.
/// LSTM window of dynamic-metric timesteps.
constexpr std::size_t kHistoryWindow = 8;
/// Threshold arbiter: switch only on at least this predicted relative gain,
/// and only if the switching cost pays back within the horizon (iterations
/// of the predicted gain).
constexpr double kThresholdGain = 0.05;
constexpr double kPaybackHorizonIterations = 25.0;
/// Online-adaptation samples per meta-network training batch.
constexpr std::size_t kAdaptationBatch = 16;
/// Completed iterations a switch is measured over before it is kept or
/// reverted; also the window of every ledger probe.
constexpr std::size_t kValidationWindow = 8;
/// A switch is kept only if the measured period improves by at least this
/// fraction; otherwise it is reverted and skipped for the regime.
constexpr double kRegressionTolerance = 0.005;
/// Decision cooldown after a revert, doubled per consecutive revert up to
/// the shift ceiling (6 << 6 = 384 iterations).
constexpr std::size_t kRevertCooldown = 6;
constexpr std::size_t kMaxRevertBackoffShift = 6;
static_assert(kMaxRevertBackoffShift < std::numeric_limits<std::size_t>::digits,
              "the revert backoff shift must stay below the word width");
/// Minimum predicted relative gain for adopting a change-triggered re-plan.
constexpr double kReplanGainThreshold = 0.10;
/// Stall watchdog: the pipeline is wedged when no iteration completes within
/// kWatchdogFactor x the EMA iteration period (never less than the tick
/// floor) and either a worker is unreachable or the stall outlasts the fill
/// grace, which covers pipeline fill, long stop-the-world drains and slow
/// first iterations.
constexpr double kWatchdogFactor = 4.0;
constexpr Seconds kWatchdogMinInterval = 0.25;
constexpr Seconds kWatchdogFillGrace = 10.0;
/// Emergency re-plan attempts before the watchdog gives up, spaced by
/// kWatchdogMinInterval x kRecoveryBackoffBase^attempt.
constexpr std::size_t kRecoveryMaxRetries = 6;
constexpr double kRecoveryBackoffBase = 2.0;
/// Attempts of a fault-aborted switch before it is abandoned; the retry
/// delay grows by this factor per attempt from the configured base.
constexpr std::size_t kSwitchRetryMax = 3;
constexpr double kSwitchRetryBackoff = 2.0;

/// A stage list in the ledger's compact form, which fits its
/// space-separated key=value lines.
std::string compact_stages(
    std::span<const partition::StageAssignment> stages) {
  return partition::format_stages(stages, "|");
}

bool fine_grained(const ControllerConfig& config) {
  return config.switch_mode ==
         pipeline::PipelineExecutor::SwitchMode::kFineGrained;
}

}  // namespace

AutoPipeController::AutoPipeController(sim::Cluster& cluster,
                                       pipeline::PipelineExecutor& executor,
                                       ControllerConfig config,
                                       MetaNetwork* meta, rl::DqnAgent* agent,
                                       FeatureEncoder encoder)
    : cluster_(cluster),
      executor_(executor),
      config_(config),
      meta_(meta),
      agent_(agent),
      encoder_(std::move(encoder)),
      profiler_(executor.model(), executor.batch_size()) {
  AUTOPIPE_EXPECT_MSG(
      agent_ != nullptr ||
          config_.arbiter_mode != ControllerConfig::ArbiterMode::kRl,
      "RL arbiter mode requires an agent");
  if (config_.use_meta_network) {
    AUTOPIPE_EXPECT_MSG(meta_ != nullptr,
                        "use_meta_network requires a MetaNetwork");
  }
  set_owned_workers(config_.owned_workers);
  ledger().set_run_info(static_cast<int>(executor_.batch_size()),
                        static_cast<int>(cluster_.num_workers()),
                        executor_.model().name());
  // Observe the executor's staged switch protocol: validation arms on
  // Commit, fault aborts feed the retry/backoff/abandonment policy.
  switch_observer_token_ = executor_.add_switch_observer(
      [this](const pipeline::PipelineExecutor::SwitchAttempt& a) {
        on_switch_event(a);
      });
}

AutoPipeController::~AutoPipeController() {
  executor_.remove_switch_observer(switch_observer_token_);
}

void AutoPipeController::set_owned_workers(
    std::vector<sim::WorkerId> workers) {
  if (workers.empty()) {
    // The historical single-tenant contract: the whole cluster is ours.
    owned_.resize(cluster_.num_workers());
    for (sim::WorkerId w = 0; w < cluster_.num_workers(); ++w) owned_[w] = w;
    return;
  }
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
  for (sim::WorkerId w : workers)
    AUTOPIPE_EXPECT_MSG(w < cluster_.num_workers(),
                        "owned worker " << w << " outside cluster of "
                                        << cluster_.num_workers());
  owned_ = std::move(workers);
}

ProfileSnapshot AutoPipeController::scoped_snapshot(
    const ProfileSnapshot& snapshot) const {
  if (!job_scoped()) return snapshot;
  ProfileSnapshot scoped = snapshot;
  scoped.num_workers = owned_.size();
  scoped.worker_bandwidth.clear();
  scoped.worker_speed.clear();
  for (sim::WorkerId w : owned_) {
    if (w < snapshot.worker_bandwidth.size())
      scoped.worker_bandwidth.push_back(snapshot.worker_bandwidth[w]);
    if (w < snapshot.worker_speed.size())
      scoped.worker_speed.push_back(snapshot.worker_speed[w]);
  }
  return scoped;
}

void AutoPipeController::attach() {
  executor_.set_iteration_callback(
      [this](std::size_t iters) { on_iteration(iters); });
  arm_watchdog();
}

template <typename... F>
void AutoPipeController::record_instant(trace::Category category,
                                        std::string_view name,
                                        const F&... fields) {
  auto& sim = cluster_.simulator();
  if (sim.tracer().enabled())
    sim.tracer().instant(category, name, sim.now(), trace::kPidControl, 1,
                         {fields...});
}

bool AutoPipeController::Window::step(std::size_t iterations, double now) {
  if (iterations <= after) return false;
  if (start < 0.0) {
    start = now;
    return true;
  }
  ++samples;
  return false;
}

bool AutoPipeController::Window::full() const {
  return samples >= kValidationWindow;
}

void AutoPipeController::on_iteration(std::size_t completed_iterations) {
  note_progress(completed_iterations);
  const ProfileSnapshot& snapshot = observe();
  const bool changed = detect_change(snapshot);
  if (executor_.switch_in_progress()) return;
  advance_probes();
  if (maybe_readmit(snapshot)) return;
  if (!workers_usable(snapshot)) return;
  if (validate(completed_iterations)) return;
  if (decision_due(completed_iterations, changed))
    evaluate_and_decide(snapshot, changed);
}

void AutoPipeController::note_progress(std::size_t completed_iterations) {
  // Progress bookkeeping for the stall watchdog: a completed iteration is
  // the definition of forward progress.
  const Seconds now_s = cluster_.simulator().now();
  if (last_iteration_at_ >= 0.0 && now_s > last_iteration_at_) {
    const double period = now_s - last_iteration_at_;
    ema_period_ =
        ema_period_ > 0.0 ? 0.25 * period + 0.75 * ema_period_ : period;
  }
  last_iteration_at_ = now_s;
  last_progress_iterations_ = completed_iterations;
  last_progress_time_ = now_s;
  if (!wedged_) return;
  wedged_ = false;
  recovery_attempts_ = 0;
  next_recovery_at_ = 0.0;
  recovery_given_up_ = false;
  cluster_.simulator().metrics().add("controller.recoveries");
  record_instant(trace::Category::kFault, "pipeline_recovered",
                 trace::arg("iterations", completed_iterations));
  arm_watchdog();  // the give-up path stops the ticks; progress restarts them
}

ProfileSnapshot& AutoPipeController::observe() {
  profiler_.snapshot(executor_, cluster_, snapshot_);
  ProfileSnapshot& snapshot = snapshot_;

  // Profiler dropouts: a muted worker's readings would simply be absent in
  // a real deployment, so the controller holds that worker's last good
  // sample instead of consuming whatever the counters happen to report.
  // Change detection runs on link-level bandwidth (what NIC/switch counters
  // report) rather than per-flow achieved rates: the latter shift with the
  // job's own traffic pattern and would alias as phantom resource events.
  const bool first = held_.size() != snapshot.num_workers;
  if (first) held_.resize(snapshot.num_workers);
  for (sim::WorkerId w = 0; w < snapshot.num_workers; ++w) {
    HeldSample& held = held_[w];
    if (!first && cluster_.profiler_muted(w)) {
      snapshot.worker_bandwidth[w] = held.bandwidth;
      snapshot.worker_speed[w] = held.speed;
    } else {
      held.bandwidth = snapshot.worker_bandwidth[w];
      held.speed = snapshot.worker_speed[w];
      held.nic_bandwidth = cluster_.nic_bandwidth(cluster_.server_of(w));
    }
  }

  if (static_features_.empty())
    static_features_ = encoder_.static_features(snapshot);
  dynamic_history_.push_back(encoder_.dynamic_features(snapshot));
  while (dynamic_history_.size() > kHistoryWindow)
    dynamic_history_.pop_front();

  settle_pending_reward(snapshot);

  if (snapshot.iteration_time > 0.0) {
    recent_period_.push_back(snapshot.iteration_time);
    while (recent_period_.size() > 2 * kValidationWindow)
      recent_period_.pop_front();
  }
  adapt_meta_network(snapshot);
  return snapshot;
}

void AutoPipeController::adapt_meta_network(const ProfileSnapshot& snapshot) {
  // Online adaptation: the measured speed of the *current* partition is a
  // free labelled sample for the meta-network.
  if (!meta_ || snapshot.iteration_time <= 0.0) return;
  SpeedSample sample;
  sample.dynamic_seq.assign(dynamic_history_.begin(), dynamic_history_.end());
  sample.static_feat = static_features_;
  sample.partition_feat = encoder_.partition_features(
      executor_.current_partition(), snapshot.num_layers);
  sample.target = encoder_.normalize_throughput(
      static_cast<double>(executor_.batch_size()) / snapshot.iteration_time);
  adaptation_buffer_.push_back(std::move(sample));
  if (adaptation_buffer_.size() >= kAdaptationBatch) {
    meta_->train_batch(adaptation_buffer_);
    adaptation_buffer_.clear();
  }
}

bool AutoPipeController::detect_change(const ProfileSnapshot& snapshot) {
  // The monitor reads only per-worker bandwidth and speed, and only of the
  // owned workers: a sibling job's bandwidth shift must not trigger a
  // replan here, while a change in the owned population itself (an arbiter
  // grant or revocation) reports as "worker population changed" and does.
  monitor_view_.num_workers = owned_.size();
  monitor_view_.worker_bandwidth.clear();
  monitor_view_.worker_speed.clear();
  for (sim::WorkerId w : owned_) {
    monitor_view_.worker_bandwidth.push_back(held_[w].nic_bandwidth);
    monitor_view_.worker_speed.push_back(snapshot.worker_speed[w]);
  }
  const ResourceChange change = monitor_.update(monitor_view_);
  if (!change.changed) return false;
  ++stats_.changes_detected;
  cluster_.simulator().metrics().add("controller.changes");
  record_instant(trace::Category::kControl, "change_detected",
                 trace::arg("what", change.description));
  // A shifted environment invalidates earlier measured rejections and
  // resets the exploration backoff. Open ledger probes were measuring the
  // old regime; close them out rather than mix measurements across it.
  rejected_.clear();
  consecutive_reverts_ = 0;
  cooldown_until_ = 0;
  supersede_probes("regime_change");
  LOG_DEBUG("resource change detected: " << change.description);
  return true;
}

bool AutoPipeController::workers_usable(
    const ProfileSnapshot& snapshot) const {
  // While any worker is unreachable — or its measured bandwidth/speed has
  // not yet recovered to a positive value after an outage — the normal
  // planning paths are meaningless: planners and the analytic model assume
  // every worker is usable, and a zero-bandwidth snapshot entry would trip
  // their contracts. The watchdog's emergency path owns reconfiguration
  // until the topology heals; once a returned worker is re-admitted the
  // regular optimization loop resumes.
  for (sim::WorkerId w : owned_) {
    if (!cluster_.worker_reachable(w)) return false;
    if (w < snapshot.num_workers && (snapshot.worker_bandwidth[w] <= 0.0 ||
                                     snapshot.worker_speed[w] <= 0.0))
      return false;
  }
  return true;
}

bool AutoPipeController::decision_due(std::size_t completed_iterations,
                                      bool changed) const {
  if (completed_iterations < config_.min_history_iterations) return false;
  if (!changed && completed_iterations < cooldown_until_) return false;
  const bool periodic =
      config_.decision_interval > 0 &&
      completed_iterations % config_.decision_interval == 0;
  if (!changed && !periodic) return false;
  return dynamic_history_.size() >= 2;  // else nothing to learn from yet
}

bool AutoPipeController::validate(std::size_t completed_iterations) {
  // Measured-feedback validation of the last switch: compare mean
  // seconds/iteration over a post-switch window against the pre-switch
  // baseline, on elapsed simulated time (robust to completion bursts).
  if (!validation_ || !config_.validate_switches) return false;
  Validation& v = *validation_;
  const double now = cluster_.simulator().now();
  if (v.window.step(completed_iterations, now)) {
    record_instant(trace::Category::kControl, "validation_start",
                   trace::arg("round", v.ledger_id.value_or(0)),
                   trace::arg("period_before", v.period_before));
  }
  if (!v.window.full()) return false;
  const double after_period =
      (now - v.window.start) / static_cast<double>(v.window.samples);
  const bool regressed =
      after_period > v.period_before * (1.0 - kRegressionTolerance);
  record_instant(trace::Category::kControl, "validation_end",
                 trace::arg("round", v.ledger_id.value_or(0)),
                 trace::arg("period_after", after_period),
                 trace::arg("verdict", regressed ? "regressed" : "validated"));
  // Keep the new partition only if it is measurably better; an
  // equal-or-worse measurement sends it back (and into rejected_).
  if (regressed) {
    if (!revert(after_period, completed_iterations)) return true;
  } else {
    consecutive_reverts_ = 0;  // the switch held up under measurement
    resolve_validation_record(
        trace::OutcomeStatus::kExecuted,
        static_cast<double>(executor_.batch_size()) / after_period,
        static_cast<int>(v.window.samples), "validated");
  }
  validation_.reset();
  return true;
}

bool AutoPipeController::revert(double after_period,
                                std::size_t completed_iterations) {
  const Validation& v = *validation_;
  LOG_DEBUG("switch regressed (period " << v.period_before << " -> "
                                        << after_period << "); reverting");
  const double realized =
      static_cast<double>(executor_.batch_size()) / after_period;
  const int window = static_cast<int>(v.window.samples);
  if (!partition_reachable(v.previous)) {
    // A fault took out part of the old placement: nothing to revert to.
    // Keep the current partition and move on.
    resolve_validation_record(trace::OutcomeStatus::kExecuted, realized,
                              window, "revert_unreachable");
    return true;
  }
  reject(executor_.current_partition());
  // The revert is itself a staged switch: tracked so a fault mid-revert
  // retries with backoff (but never re-validated).
  if (!issue_switch(v.previous, "revert", /*validate=*/false, nullptr,
                    v.ledger_id.value_or(0)))
    return false;
  resolve_validation_record(trace::OutcomeStatus::kReverted, realized, window,
                            "regressed");
  supersede_probes("revert");
  cluster_.simulator().metrics().add("controller.reverts");
  record_instant(trace::Category::kControl, "revert",
                 trace::arg("period_before", v.period_before),
                 trace::arg("period_after", after_period));
  consecutive_reverts_ =
      std::min<std::size_t>(consecutive_reverts_ + 1, kMaxRevertBackoffShift);
  cooldown_until_ =
      completed_iterations + revert_backoff_iterations(consecutive_reverts_);
  return true;
}

double AutoPipeController::predict_speed(
    const ProfileSnapshot& snapshot,
    std::span<const partition::StageAssignment> stages,
    const partition::EnvironmentView& env) {
  PROF_SPAN_AGG("predictor/infer");
  if (meta_ && config_.use_meta_network) {
    const std::vector<std::vector<double>> seq(dynamic_history_.begin(),
                                               dynamic_history_.end());
    const double normalized = meta_->predict(
        seq, static_features_,
        encoder_.partition_features(stages, snapshot.num_layers));
    return encoder_.denormalize_throughput(normalized);
  }
  // Analytic integrated model on the profiled environment.
  return partition::analytic_throughput(executor_.model(), stages, env,
                                        executor_.batch_size());
}

bool AutoPipeController::rejected(
    std::span<const partition::StageAssignment> stages) const {
  return std::any_of(rejected_.begin(), rejected_.end(),
                     [&](const partition::Partition& p) {
                       return std::ranges::equal(p.stages(), stages);
                     });
}

void AutoPipeController::reject(const partition::Partition& p) {
  if (!rejected(p.stages())) rejected_.push_back(p);
}

double AutoPipeController::baseline_period() const {
  AUTOPIPE_EXPECT(!recent_period_.empty());
  std::vector<double> sorted(recent_period_.begin(), recent_period_.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted[sorted.size() / 2];  // median: robust to fill-phase spikes
}

std::size_t AutoPipeController::revert_backoff_iterations(
    std::size_t reverts) {
  return kRevertCooldown << std::min(reverts, kMaxRevertBackoffShift);
}

std::pair<partition::Partition, double> AutoPipeController::replan(
    const ProfileSnapshot& snapshot, const partition::EnvironmentView& env) {
  PROF_SPAN("planner/replan");
  // The DP planner plans over a dense [0, N) worker space. A job-scoped
  // controller plans over its owned subset (dense via scoped_snapshot) and
  // maps the result back onto its real cluster worker ids; the descent and
  // rebalance below evaluate with the full-cluster env, which indexes by
  // real id and never leaves the owned set (a two-worker move only
  // permutes workers already in the partition).
  std::optional<partition::EnvironmentView> scoped_env;
  if (job_scoped())
    scoped_env = profiler_.environment(scoped_snapshot(snapshot),
                                       executor_.config().framework,
                                       executor_.config().sync_scheme);
  const partition::EnvironmentView& plan_env = scoped_env ? *scoped_env : env;
  partition::PipeDreamPlanner planner(
      executor_.model(), plan_env, executor_.batch_size(),
      partition::PipeDreamPlanner::Mode::kCurrentEnvironment);
  partition::PlanResult plan = planner.plan(plan_env.num_workers());
  if (scoped_env)
    plan.partition = partition::remap_workers(plan.partition, owned_);
  // Refine with a short neighbourhood descent under the integrated model.
  partition::Descent refined = partition::descend(
      executor_.model(), plan.partition, env, executor_.batch_size(), 20);
  plan.partition = std::move(refined.partition);
  Seconds best = refined.batch_time;
  // Heterogeneity-aware alternative: keep the current stage structure but
  // re-draw the layer boundaries in proportion to the profiled speeds. This
  // escapes the multi-slow-stage local optimum the count-based DP and the
  // two-worker neighbourhood both miss.
  partition::Partition rebalanced = partition::speed_proportional_rebalance(
      executor_.model(), executor_.current_partition(), env,
      executor_.batch_size());
  const Seconds rebalanced_time = partition::analytic_batch_time(
      executor_.model(), rebalanced, env, executor_.batch_size());
  if (rebalanced_time < best) {
    best = rebalanced_time;
    plan.partition = std::move(rebalanced);
  }
  return {std::move(plan.partition),
          static_cast<double>(executor_.batch_size()) / best};
}

void AutoPipeController::evaluate_and_decide(const ProfileSnapshot& snapshot,
                                             bool after_change) {
  PROF_SPAN("planner/decide_round");
  const auto wall0 = std::chrono::steady_clock::now();
  ++stats_.decisions;

  Round r{.snapshot = snapshot,
          .current = executor_.current_partition(),
          .env = profiler_.environment(snapshot, executor_.config().framework,
                                       executor_.config().sync_scheme)};
  r.current_speed = predict_speed(snapshot, r.current.stages(), r.env);
  // One ledger record per planning round. Only simulated-time quantities
  // land in it — never the wall-clock timings below — so same-seed runs
  // serialize byte-identical ledgers.
  r.ledger_on = ledger().enabled();
  if (r.ledger_on) begin_record(r);

  // On a real environment shift, the two-worker neighbourhood may be too
  // local: consult the full re-plan first.
  if (after_change && config_.replan_on_change && adopt_replan(r)) return;

  const std::optional<partition::Partition> winner = score_moves(r);

  const auto wall1 = std::chrono::steady_clock::now();
  stats_.last_decision_wall_seconds =
      std::chrono::duration<double>(wall1 - wall0).count();
  stats_.total_decision_wall_seconds += stats_.last_decision_wall_seconds;

  decide(r, winner);
}

void AutoPipeController::begin_record(Round& r) {
  trace::DecisionRecord& rec = r.rec;
  rec = trace::DecisionRecord{};
  rec.job = config_.job_id;
  rec.time = cluster_.simulator().now();
  rec.iteration = executor_.completed_iterations();
  rec.kind = "neighborhood";
  rec.digest = snapshot_digest(r.snapshot);
  rec.num_workers = static_cast<int>(r.snapshot.num_workers);
  rec.iteration_time = r.snapshot.iteration_time;
  rec.current = compact_stages(r.current.stages());
  rec.current_pred = r.current_speed;
}

bool AutoPipeController::adopt_replan(Round& r) {
  auto [plan, plan_speed] = replan(r.snapshot, r.env);
  if (!(plan_speed > r.current_speed * (1.0 + kReplanGainThreshold) &&
        !(plan == r.current) && !rejected(plan.stages()) &&
        partition_reachable(plan)))
    return false;
  LOG_DEBUG("re-plan adoption: " << plan.to_string() << " (predicted "
                                 << r.current_speed << " -> " << plan_speed
                                 << ")");
  if (r.ledger_on) {
    // Re-plan adoption is this round's single candidate; filled before the
    // switch request so `current` is still the pre-switch partition.
    const trace::CandidateScore& cs =
        add_candidate(r, plan.stages(), plan_speed, /*skipped=*/false);
    r.rec.kind = "replan";
    r.rec.action = trace::DecisionAction::kSwitch;
    r.rec.target = cs.partition;
    r.rec.chosen_pred = plan_speed;
    r.rec.best_pred = plan_speed;
    r.rec.cost_seconds = fine_grained(config_) ? cs.cost_fine : cs.cost_stw;
    r.rec.arbiter = "replan";
  }
  if (issue_switch(plan, "new_decision", /*validate=*/true,
                   r.ledger_on ? &r.rec : nullptr)) {
    cluster_.simulator().metrics().add("controller.replans");
    record_instant(trace::Category::kControl, "replan_adopt",
                   trace::arg("predicted_current", r.current_speed),
                   trace::arg("predicted_plan", plan_speed));
    ++stats_.switches_requested;
    last_switch_iteration_ = executor_.completed_iterations();
    return true;
  }
  // Switch engine busy: the verdict never took effect. Fall through to the
  // neighbourhood round with a fresh record.
  if (r.ledger_on) begin_record(r);
  return false;
}

std::optional<partition::Partition> AutoPipeController::score_moves(
    Round& r) {
  // Only the winner becomes a Partition.
  partition::enumerate_moves(r.current.stages(), moves_);
  stats_.candidates_evaluated += moves_.size();
  scratch_ = r.current.stages();
  if (r.ledger_on) r.rec.candidates.reserve(moves_.size());
  // A move keeps the partition's worker set, so one check covers them all.
  const bool reachable = partition_reachable(r.current);
  // Read once, so a candidate costs one branch while tracing is off.
  const bool tracing = cluster_.simulator().tracer().enabled();

  double best_speed = 0.0;
  std::optional<partition::Move> best;
  for (const partition::Move& move : moves_) {
    partition::apply_move(scratch_, move);
    // Skip a faulted destination, or one that measured worse than predicted
    // earlier in this regime.
    const bool skipped =
        !reachable || (config_.validate_switches && rejected(scratch_));
    const double speed =
        skipped ? 0.0 : predict_speed(r.snapshot, scratch_, r.env);
    // The ledger names every candidate and, unless skipped, estimates its
    // switch cost; the decision gates on the winner's estimate only.
    if (r.ledger_on) add_candidate(r, scratch_, speed, skipped);
    partition::undo_move(scratch_, r.current.stages(), move);
    if (skipped) continue;
    if (tracing)
      record_instant(trace::Category::kControl, "predict",
                     trace::arg("speed", speed));
    if (!best || speed > best_speed) {
      best_speed = speed;
      best = move;
    }
  }
  r.best_speed = best_speed;
  if (!best) return std::nullopt;
  return partition::apply_move(r.current, *best);
}

SwitchCostEstimate AutoPipeController::switch_cost(
    const Round& r, std::span<const partition::StageAssignment> to) const {
  return analytic_switch_cost(
      executor_.model(), r.current.stages(), to, r.env,
      r.snapshot.iteration_time > 0.0 ? r.snapshot.iteration_time : 0.1,
      partition::optimal_in_flight(r.current),
      pipeline::kSwitchOverheadPerLayer);
}

const trace::CandidateScore& AutoPipeController::add_candidate(
    Round& r, std::span<const partition::StageAssignment> stages,
    double speed, bool skipped) {
  trace::CandidateScore& cs = r.rec.candidates.emplace_back();
  cs.partition = compact_stages(stages);
  cs.skipped = skipped;
  if (!skipped) {
    const SwitchCostEstimate cost = switch_cost(r, stages);
    cs.predicted_speed = speed;
    cs.cost_fine = cost.fine_grained;
    cs.cost_stw = cost.stop_the_world;
  }
  return cs;
}

void AutoPipeController::decide(
    Round& r, const std::optional<partition::Partition>& winner) {
  // Non-RL arbiters only consider candidates above the gain floor. The RL
  // arbiter sees every best-of-neighbourhood proposal — learning to decline
  // unprofitable switches is precisely its job, and declined proposals
  // still produce reward observations.
  const bool below_floor =
      !winner ||
      r.best_speed <= r.current_speed * (1.0 + config_.candidate_gain_floor);
  if (below_floor &&
      (config_.arbiter_mode != ControllerConfig::ArbiterMode::kRl ||
       !winner)) {
    if (r.ledger_on) {
      // No candidate cleared the gain floor: an implicit hold, recorded so
      // the round still joins to a realized (status-quo) speed.
      r.rec.action = trace::DecisionAction::kHold;
      r.rec.chosen_pred = r.current_speed;
      r.rec.best_pred = winner ? r.best_speed : r.current_speed;
      r.rec.arbiter = "floor";
      file_hold(r.rec);
    }
    return;
  }

  // Cost of adopting the best candidate.
  const Seconds cost_seconds =
      cost_for_mode(switch_cost(r, winner->stages()), fine_grained(config_));
  std::vector<double> state = encoder_.arbiter_state(
      r.snapshot, r.current_speed, r.best_speed, cost_seconds,
      static_cast<double>(executor_.completed_iterations() -
                          last_switch_iteration_));
  const int action = arbitrate(r, state, cost_seconds);
  if (agent_) {
    // Normalized switching cost: the training speed lost to the switch,
    // expressed in the same units as the speed reward (§4.3's "normalized
    // switching cost"): current normalized speed times the cost expressed
    // in iterations.
    const double period = std::max(r.snapshot.iteration_time, 1e-6);
    const double cost_normalized =
        action == 1 ? encoder_.normalize_throughput(
                          static_cast<double>(executor_.batch_size()) /
                          period) *
                          (cost_seconds / period)
                    : 0.0;
    pending_ = PendingDecision{std::move(state), action, cost_normalized};
  }

  if (r.ledger_on) {
    r.rec.action = action == 1 ? trace::DecisionAction::kSwitch
                               : trace::DecisionAction::kHold;
    if (action == 1) r.rec.target = compact_stages(winner->stages());
    r.rec.chosen_pred = action == 1 ? r.best_speed : r.current_speed;
    r.rec.best_pred = r.best_speed;
    r.rec.cost_seconds = cost_seconds;
  }

  if (action != 1) {
    if (r.ledger_on) file_hold(r.rec);
    return;
  }
  // An adopted switch opens a new regime: earlier probes stop here.
  if (issue_switch(*winner, "new_decision", /*validate=*/true,
                   r.ledger_on ? &r.rec : nullptr)) {
    ++stats_.switches_requested;
    last_switch_iteration_ = executor_.completed_iterations();
    LOG_DEBUG("switching to " << winner->to_string() << " (predicted "
                              << r.current_speed << " -> " << r.best_speed
                              << " samples/s)");
  }
}

int AutoPipeController::arbitrate(Round& r, const std::vector<double>& state,
                                  double cost_seconds) {
  // Is the predicted gain worth the cost? Each case also names itself in
  // the round's record, which is filed only with the ledger on.
  int action = 0;
  switch (config_.arbiter_mode) {
    case ControllerConfig::ArbiterMode::kRl: {
      rl::DqnAgent::DecisionInfo info =
          agent_->decide(state, config_.arbiter_explore);
      action = info.action;
      r.rec.arbiter = "rl";
      r.rec.q_values = std::move(info.q);
      r.rec.explored = info.explored;
      break;
    }
    case ControllerConfig::ArbiterMode::kAlwaysSwitch:
      action = 1;
      r.rec.arbiter = "always";
      break;
    case ControllerConfig::ArbiterMode::kNeverSwitch:
      r.rec.arbiter = "never";
      break;
    case ControllerConfig::ArbiterMode::kThreshold: {
      const bool gain_ok =
          r.best_speed > r.current_speed * (1.0 + kThresholdGain);
      // Cost-aware gate: the migration must pay back within the horizon.
      const double gain_per_iteration =
          (r.best_speed / std::max(r.current_speed, 1e-9) - 1.0) *
          std::max(r.snapshot.iteration_time, 1e-6);
      const bool payback_ok =
          cost_seconds < gain_per_iteration * kPaybackHorizonIterations;
      action = (gain_ok && payback_ok) ? 1 : 0;
      r.rec.arbiter = "threshold";
      break;
    }
  }
  cluster_.simulator().metrics().add(action == 1 ? "arbiter.accept"
                                                 : "arbiter.reject");
  record_instant(trace::Category::kControl,
                 action == 1 ? "arbiter_accept" : "arbiter_reject",
                 trace::arg("current_speed", r.current_speed),
                 trace::arg("best_speed", r.best_speed),
                 trace::arg("cost_seconds", cost_seconds),
                 trace::arg("candidates", moves_.size()));
  return action;
}

// ---------------------------------------------------------------------------
// Stall watchdog and emergency recovery
// ---------------------------------------------------------------------------

bool AutoPipeController::partition_reachable(
    const partition::Partition& p) const {
  for (sim::WorkerId w : p.all_workers())
    if (!cluster_.worker_reachable(w)) return false;
  return true;
}

void AutoPipeController::arm_watchdog() {
  if (watchdog_armed_ || recovery_given_up_) return;
  watchdog_armed_ = true;
  const Seconds interval = std::max(kWatchdogMinInterval, ema_period_);
  cluster_.simulator().after(
      interval, [this] { watchdog_tick(); }, "watchdog");
}

void AutoPipeController::watchdog_tick() {
  watchdog_armed_ = false;
  auto& sim = cluster_.simulator();
  const Seconds now = sim.now();
  if (!executor_.running()) {
    // Either training finished (stop ticking so the event queue can drain)
    // or run() has not started yet (keep waiting, without counting the idle
    // span as a stall).
    if (watchdog_saw_running_ || executor_.completed_iterations() > 0) return;
    last_progress_time_ = now;
    arm_watchdog();
    return;
  }
  watchdog_saw_running_ = true;

  const std::size_t iters = executor_.completed_iterations();
  if (iters != last_progress_iterations_) {
    last_progress_iterations_ = iters;
    last_progress_time_ = now;
  } else {
    // The EMA yardstick; a stop-the-world drain legitimately spans many
    // iteration periods, so in-progress switches get the fill grace.
    Seconds threshold =
        ema_period_ > 0.0
            ? std::max(kWatchdogFactor * ema_period_, kWatchdogMinInterval)
            : kWatchdogFillGrace;
    if (executor_.switch_in_progress())
      threshold = std::max(threshold, kWatchdogFillGrace);
    const Seconds stall = now - last_progress_time_;
    if (stall > threshold) {
      bool worker_down = false;
      for (sim::WorkerId w : owned_)
        if (!cluster_.worker_reachable(w)) { worker_down = true; break; }
      // With every worker reachable, a slow patch is not a fault: only a
      // stall past the hard grace bound (and outside a switch, whose drain
      // is deterministic) triggers recovery.
      const bool hard_stall = ema_period_ > 0.0 &&
                              !executor_.switch_in_progress() &&
                              stall > std::max(threshold, kWatchdogFillGrace);
      if (worker_down || hard_stall) {
        if (!wedged_) {
          wedged_ = true;
          ++stats_.wedges_detected;
          sim.metrics().add("controller.wedges");
          record_instant(trace::Category::kFault, "pipeline_wedged",
                         trace::arg("stalled_seconds", stall),
                         trace::arg("iterations", iters));
        }
        if (now >= next_recovery_at_) attempt_recovery(now);
      }
    }
  }
  arm_watchdog();
}

void AutoPipeController::attempt_recovery(Seconds now) {
  auto& sim = cluster_.simulator();
  if (recovery_attempts_ >= kRecoveryMaxRetries) {
    if (!recovery_given_up_) {
      recovery_given_up_ = true;
      sim.metrics().add("controller.recovery_giveups");
      record_instant(trace::Category::kFault, "watchdog_giveup",
                     trace::arg("attempts", recovery_attempts_));
    }
    return;
  }
  ++recovery_attempts_;
  next_recovery_at_ =
      now + kWatchdogMinInterval *
                std::pow(kRecoveryBackoffBase,
                         static_cast<double>(recovery_attempts_));

  // No plan (nowhere to land, or an environment too unsettled to plan on)
  // or a fault racing the adopt (e.g. a second preemption mid-migration):
  // the backoff schedule retries with a fresh reachable set.
  std::optional<partition::Partition> plan =
      reachable_plan(profiler_.snapshot(executor_, cluster_));
  if (!plan || !executor_.emergency_adopt(std::move(*plan))) return;
  ++stats_.emergency_replans;
  sim.metrics().add("controller.emergency_replans");
  excluded_workers_.clear();
  for (sim::WorkerId w : owned_)
    if (!cluster_.worker_reachable(w)) excluded_workers_.push_back(w);
  // The emergency plan invalidates every piece of steady-state decision
  // context (an in-flight switch was already aborted through the staged
  // protocol by emergency_adopt; its tracked state resolved there).
  drop_tracked_switch("fault");
  supersede_records("fault");
  validation_.reset();
  rejected_.clear();
  cooldown_until_ = 0;
  consecutive_reverts_ = 0;
  pending_.reset();
  monitor_.reset();
}

std::optional<partition::Partition> AutoPipeController::reachable_plan(
    const ProfileSnapshot& snapshot) const {
  std::vector<sim::WorkerId> alive;
  for (sim::WorkerId w : owned_)
    if (cluster_.worker_reachable(w)) alive.push_back(w);
  if (alive.size() > snapshot.num_layers) alive.resize(snapshot.num_layers);
  if (alive.empty()) return std::nullopt;
  try {
    const auto env = profiler_.environment(snapshot,
                                           executor_.config().framework,
                                           executor_.config().sync_scheme);
    return partition::speed_proportional_rebalance(
        executor_.model(),
        partition::Partition::even_split(snapshot.num_layers,
                                         std::move(alive)),
        env, executor_.batch_size());
  } catch (const std::exception&) {
    // A half-transitioned environment (e.g. a link that dropped between the
    // reachability scan and the snapshot) can violate planner contracts.
    return std::nullopt;
  }
}

bool AutoPipeController::maybe_readmit(const ProfileSnapshot& snapshot) {
  // A worker excluded by an emergency re-plan has come back: fold it in
  // with a full-width plan over every reachable worker.
  const auto back = [this](sim::WorkerId w) {
    return cluster_.worker_reachable(w);
  };
  if (excluded_workers_.empty() || wedged_ ||
      std::none_of(excluded_workers_.begin(), excluded_workers_.end(), back))
    return false;
  // No plan (nothing reachable, or an environment still unsettled): retry
  // next iteration.
  const std::optional<partition::Partition> plan = reachable_plan(snapshot);
  if (!plan) return false;
  if (*plan == executor_.current_partition()) {
    std::erase_if(excluded_workers_, back);
    return false;
  }
  if (!issue_switch(*plan, "readmit", /*validate=*/false, nullptr))
    return false;
  ++stats_.readmissions;
  ++stats_.switches_requested;
  last_switch_iteration_ = executor_.completed_iterations();
  cluster_.simulator().metrics().add("controller.readmissions");
  record_instant(trace::Category::kFault, "worker_readmit",
                 trace::arg("workers", plan->num_workers()));
  std::erase_if(excluded_workers_, back);
  supersede_records("readmit");
  validation_.reset();
  rejected_.clear();
  return true;
}

// ---------------------------------------------------------------------------
// Interruptible-switch tracking: retry / backoff / abandonment
// ---------------------------------------------------------------------------

namespace {

trace::OutcomeStatus aborted_outcome(
    pipeline::SwitchPhase phase) {
  using SwitchPhase = pipeline::SwitchPhase;
  switch (phase) {
    case SwitchPhase::kDrain:
      return trace::OutcomeStatus::kAbortedDrain;
    case SwitchPhase::kTransfer:
      return trace::OutcomeStatus::kAbortedTransfer;
    default:
      return trace::OutcomeStatus::kAbortedPrepare;
  }
}

}  // namespace

void AutoPipeController::on_switch_event(
    const pipeline::PipelineExecutor::SwitchAttempt& a) {
  using SwitchPhase = pipeline::SwitchPhase;
  auto& sim = cluster_.simulator();
  if (a.phase == SwitchPhase::kCommit) {
    if (!tracked_switch_) return;  // e.g. an emergency adoption's own switch
    TrackedSwitch tracked = std::move(*tracked_switch_);
    tracked_switch_.reset();
    ++retry_epoch_;
    // Validation arms only now: an attempt that aborted never changed the
    // running configuration, so there is nothing to measure or revert.
    const Window window{executor_.completed_iterations()};
    if (tracked.validation) {
      validation_ = std::move(tracked.validation);
      validation_->window = window;
      validation_->ledger_id = tracked.ledger_id;
    } else if (tracked.ledger_id) {
      probes_.push_back(LedgerProbe{*tracked.ledger_id, true, window});
    }
    return;
  }
  if (a.phase != SwitchPhase::kAborted) return;

  // Switch-cost accounting for aborted work: the attempt consumed wall
  // time (and, mid-Transfer, network bytes — counted by the executor as
  // switch.rollback_bytes) without delivering a new configuration.
  sim.metrics().add("controller.aborted_switch_seconds",
                    sim.now() - a.requested_at);

  if (a.abort_reason == "emergency") {
    // attempt_recovery owns the aftermath; the decided target is moot.
    drop_tracked_switch("fault");
    return;
  }

  if (a.abort_reason == "tenant_contention" ||
      a.abort_reason == "job_finished") {
    // Terminal aborts from the cluster co-tenancy layer. "tenant_contention":
    // the arbiter denied this job the contested worker — final until the
    // ownership map changes again, so the retry policy must NOT adopt the
    // attempt (re-requesting the same target would route batches through
    // another tenant's GPU). "job_finished": the run target was reached with
    // a switch still staged; retrying would reconfigure onto workers the job
    // has already released.
    if (tracked_switch_ && a.abort_reason == "tenant_contention")
      reject(tracked_switch_->target);
    drop_tracked_switch(a.abort_reason, aborted_outcome(a.aborted_in));
    return;
  }

  if (!tracked_switch_) {
    // An attempt this controller did not issue (harness- or test-driven):
    // adopt it so the retry policy covers every aborted switch.
    if (!a.target) return;
    tracked_switch_ = TrackedSwitch{.target = *a.target};
  }
  tracked_switch_->last_abort_phase = a.aborted_in;
  schedule_switch_retry();
}

void AutoPipeController::schedule_switch_retry() {
  AUTOPIPE_EXPECT(tracked_switch_.has_value());
  TrackedSwitch& t = *tracked_switch_;
  if (t.retry_scheduled) return;
  if (t.attempts >= kSwitchRetryMax) {
    abandon_tracked_switch();
    return;
  }
  t.retry_scheduled = true;
  const Seconds delay =
      config_.switch_retry_base_interval *
      std::pow(kSwitchRetryBackoff, static_cast<double>(t.attempts - 1));
  const std::uint64_t epoch = retry_epoch_;
  cluster_.simulator().after(
      delay,
      [this, epoch] {
        if (epoch != retry_epoch_ || !tracked_switch_) return;
        TrackedSwitch& tr = *tracked_switch_;
        tr.retry_scheduled = false;
        if (tr.target == executor_.current_partition()) {
          // Someone (a rejoin repair, another decision) already landed the
          // configuration; nothing left to retry.
          drop_tracked_switch("target_reached");
          return;
        }
        if (executor_.switch_in_progress() ||
            !partition_reachable(tr.target)) {
          // Engine busy or the target still routes through an unreachable
          // worker: burn one attempt and back off again, so a permanently
          // dead worker leads to abandonment rather than eternal polling.
          ++tr.attempts;
          schedule_switch_retry();
          return;
        }
        ++tr.attempts;
        if (executor_.request_switch(
                tr.target, config_.switch_mode,
                tr.ledger_id ? *tr.ledger_id : 0)) {
          ++stats_.switch_retries;
          cluster_.simulator().metrics().add("switch.retries");
          record_instant(trace::Category::kControl, "switch_retry",
                         trace::arg("attempt", tr.attempts));
        } else {
          schedule_switch_retry();
        }
      },
      "switch_retry");
}

void AutoPipeController::abandon_tracked_switch() {
  const TrackedSwitch& t = *tracked_switch_;
  ++stats_.switch_abandonments;
  cluster_.simulator().metrics().add("switch.abandoned");
  record_instant(trace::Category::kControl, "switch_abandon",
                 trace::arg("attempts", t.attempts),
                 trace::arg("phase",
                            pipeline::switch_phase_name(t.last_abort_phase)));
  // Repeated fault pressure on this exact move: skip it until the
  // environment changes again.
  reject(t.target);
  drop_tracked_switch("abandoned", aborted_outcome(t.last_abort_phase));
}

void AutoPipeController::drop_tracked_switch(const std::string& reason,
                                             trace::OutcomeStatus status) {
  if (!tracked_switch_) return;
  if (tracked_switch_->ledger_id)
    ledger_resolve(*tracked_switch_->ledger_id, status, -1.0, 0, reason);
  tracked_switch_.reset();
  ++retry_epoch_;
}

bool AutoPipeController::issue_switch(const partition::Partition& target,
                                      const std::string& supersede_reason,
                                      bool validate,
                                      trace::DecisionRecord* record,
                                      std::uint64_t round) {
  drop_tracked_switch(supersede_reason);
  tracked_switch_ = TrackedSwitch{.target = target};
  // Validation arms only when the staged protocol commits, never for an
  // attempt that aborts mid-flight.
  if (validate && config_.validate_switches && !recent_period_.empty())
    tracked_switch_->validation =
        Validation{.previous = executor_.current_partition(),
                   .period_before = baseline_period()};
  if (record) {
    supersede_records(supersede_reason);
    round = ledger().add(std::move(*record));
    tracked_switch_->ledger_id = round;
  }
  if (executor_.request_switch(target, config_.switch_mode, round))
    return true;
  drop_tracked_switch("engine_busy");
  return false;
}

// ---------------------------------------------------------------------------
// Decision-ledger plumbing
// ---------------------------------------------------------------------------

trace::DecisionLedger& AutoPipeController::ledger() {
  return cluster_.simulator().ledger();
}

std::string AutoPipeController::snapshot_digest(
    const ProfileSnapshot& snapshot) const {
  // FNV-1a over the bit patterns of the planner-relevant snapshot fields:
  // two snapshots hash equal iff the controller saw the same environment.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mix_double = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(static_cast<std::uint64_t>(snapshot.num_workers));
  mix_double(snapshot.iteration_time);
  for (sim::WorkerId w = 0; w < snapshot.num_workers; ++w) {
    mix_double(snapshot.worker_bandwidth[w]);
    mix_double(snapshot.worker_speed[w]);
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return std::string(buf);
}

void AutoPipeController::ledger_resolve(std::uint64_t id,
                                        trace::OutcomeStatus status,
                                        double realized, int window,
                                        std::string reason) {
  auto& lg = ledger();
  if (!lg.enabled() || id >= lg.size()) return;
  auto& metrics = cluster_.simulator().metrics();
  metrics.add(std::string("ledger.") + trace::outcome_status_name(status));
  // Live calibration: relative prediction error of the chosen action and
  // hindsight regret against the best candidate, as rolling series. The
  // offline report (src/analysis/calibration.*) recomputes the same
  // quantities from the serialized ledger.
  const trace::DecisionRecord& record = lg.records()[id];
  if (realized > 0.0) {
    if (record.chosen_pred > 0.0) {
      const double rel = (record.chosen_pred - realized) / realized;
      metrics.observe("calibration.predictor_ape", std::abs(rel));
      metrics.observe("calibration.predictor_bias", rel);
    }
    if (record.best_pred > 0.0) {
      metrics.observe("calibration.regret",
                      std::max(0.0, record.best_pred - realized) / realized);
    }
  }
  trace::DecisionOutcome outcome;
  outcome.status = status;
  outcome.realized_speed = realized;
  outcome.window_iterations = window;
  outcome.reason = std::move(reason);
  lg.resolve(id, std::move(outcome));
}

void AutoPipeController::file_hold(trace::DecisionRecord& rec) {
  const std::uint64_t id = ledger().add(std::move(rec));
  probes_.push_back(
      LedgerProbe{id, false, Window{executor_.completed_iterations()}});
}

void AutoPipeController::advance_probes() {
  if (probes_.empty()) return;
  const double now = cluster_.simulator().now();
  const std::size_t iters = executor_.completed_iterations();
  for (std::size_t i = 0; i < probes_.size();) {
    LedgerProbe& p = probes_[i];
    p.window.step(iters, now);
    if (p.window.full() && now > p.window.start) {
      resolve_probe(p, now, "measured");
      probes_.erase(probes_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void AutoPipeController::resolve_probe(const LedgerProbe& p, double now,
                                       std::string reason) {
  const double realized = static_cast<double>(executor_.batch_size()) *
                          static_cast<double>(p.window.samples) /
                          (now - p.window.start);
  ledger_resolve(p.id,
                 p.switched ? trace::OutcomeStatus::kExecuted
                            : trace::OutcomeStatus::kRejected,
                 realized, static_cast<int>(p.window.samples),
                 std::move(reason));
}

void AutoPipeController::supersede_probes(const std::string& reason) {
  if (probes_.empty()) return;
  const double now = cluster_.simulator().now();
  for (const LedgerProbe& p : probes_) {
    if (p.window.samples > 0 && now > p.window.start) {
      // Enough of a window to salvage a short measurement.
      resolve_probe(p, now, "partial_" + reason);
    } else {
      ledger_resolve(p.id, trace::OutcomeStatus::kSuperseded, -1.0, 0,
                     reason);
    }
  }
  probes_.clear();
}

void AutoPipeController::supersede_records(const std::string& reason) {
  resolve_validation_record(trace::OutcomeStatus::kSuperseded, -1.0, 0,
                            reason);
  supersede_probes(reason);
}

void AutoPipeController::resolve_validation_record(trace::OutcomeStatus status,
                                                   double realized, int window,
                                                   const std::string& reason) {
  if (!validation_ || !validation_->ledger_id) return;
  ledger_resolve(*validation_->ledger_id, status, realized, window, reason);
  validation_->ledger_id.reset();
}

void AutoPipeController::settle_pending_reward(
    const ProfileSnapshot& snapshot) {
  if (!agent_ || !pending_) return;
  // Reward: the training speed of the iteration following the decision,
  // net of the normalized switching cost (§4.3's reward function).
  const double speed =
      snapshot.iteration_time > 0.0
          ? static_cast<double>(executor_.batch_size()) /
                snapshot.iteration_time
          : 0.0;
  rl::Transition t;
  t.state = pending_->state;
  t.action = pending_->action;
  t.reward = encoder_.normalize_throughput(speed) -
             (pending_->action == 1 ? pending_->cost_if_switched : 0.0);
  // Next state: the same encoding re-evaluated now, with no candidate yet.
  t.next_state = encoder_.arbiter_state(snapshot, speed, speed, 0.0,
                                        static_cast<double>(
                                            executor_.completed_iterations() -
                                            last_switch_iteration_));
  t.terminal = false;
  agent_->observe(std::move(t));
  pending_.reset();
}

}  // namespace autopipe::core
