// Decision ledger: a structured audit trail of every planning round the
// AutoPipe controller runs. Where the event trace answers "what did the
// pipeline do", the ledger answers "what did the controller *consider*, what
// did its predictors say, and what did it pick" — one DecisionRecord per
// round, carrying the resource-snapshot digest, every candidate partition in
// the search neighborhood with its predicted speed and switch-cost estimate,
// the arbiter's verdict (Q-values included when the RL agent decided), and
// the chosen action. Each record is later *resolved* with a realized
// outcome, so offline tooling (src/analysis/calibration.*) can compute
// prediction error, bias and regret by joining ledger against trace.
//
// Like the TraceRecorder, the ledger is owned by the Simulator, disabled by
// default, and timestamped in simulated seconds only — no host wall-clock
// ever lands in a record, so a run's ledger is byte-identical across
// same-seed executions. The text sink is a line-based key=value format
// (one `decision`/`cand`*/`choice`/`outcome` group per record) documented in
// docs/DECISIONS.md; analysis::read_ledger() parses it back losslessly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace autopipe::trace {

/// One candidate partition examined during a planning round.
struct CandidateScore {
  std::string partition;        ///< compact form (format_stages with "|")
  double predicted_speed = 0.0; ///< samples/s the predictor expects
  double cost_fine = 0.0;       ///< est. fine-grained switch stall (seconds)
  double cost_stw = 0.0;        ///< est. stop-the-world switch stall (seconds)
  bool skipped = false;         ///< pruned (unreachable worker / rejected set)
};

enum class DecisionAction { kHold, kSwitch };

const char* decision_action_name(DecisionAction action);

enum class OutcomeStatus {
  kPending,     ///< not yet resolved (never written; finalize() clears these)
  kExecuted,    ///< switch adopted and kept through validation
  kReverted,    ///< switch adopted then rolled back by validation
  kRejected,    ///< hold decision, realized speed measured under status quo
  kSuperseded,  ///< overtaken before measurement completed (fault, new plan…)
  // A decided switch whose staged execution was interrupted by a fault and,
  // after the controller's retry budget ran out, abandoned. The phase names
  // the furthest point the *last* attempt reached before aborting; each
  // attempted switch resolves to exactly one terminal outcome.
  kAbortedPrepare,   ///< aborted while planning the migration
  kAbortedDrain,     ///< aborted while draining in-flight batches (STW only)
  kAbortedTransfer,  ///< aborted mid-weight-migration and rolled back
};

const char* outcome_status_name(OutcomeStatus status);

struct DecisionOutcome {
  OutcomeStatus status = OutcomeStatus::kPending;
  double realized_speed = -1.0;  ///< samples/s over the window; -1 unmeasured
  int window_iterations = 0;     ///< iterations the measurement spanned
  std::string reason;            ///< terminal cause ("run_end", "fault", …)
};

/// One planning round.
struct DecisionRecord {
  std::uint64_t id = 0;        ///< dense, 0-based, assigned by add()
  /// Co-tenancy: 1-based id of the job whose controller took this decision.
  /// 0 (single-tenant) serializes no job= field, keeping legacy ledgers
  /// byte-identical.
  std::uint64_t job = 0;
  double time = 0.0;           ///< simulated seconds
  std::uint64_t iteration = 0; ///< controller iteration count at decision
  std::string kind;            ///< "neighborhood" or "replan"
  std::string digest;          ///< FNV-1a hex digest of the resource snapshot
  int num_workers = 0;
  double iteration_time = 0.0; ///< smoothed seconds/iteration at decision
  std::string current;         ///< active partition, compact form
  double current_pred = 0.0;   ///< predicted speed of staying put
  std::vector<CandidateScore> candidates;

  DecisionAction action = DecisionAction::kHold;
  std::string target;          ///< chosen partition ("" on hold)
  double chosen_pred = 0.0;    ///< predicted speed of the chosen action
  double best_pred = 0.0;      ///< best predicted speed over all candidates
  double cost_seconds = 0.0;   ///< switch-cost estimate of the chosen mode
  std::string arbiter;         ///< "rl", "threshold", "always", "never", "floor"
  std::vector<double> q_values;///< RL arbiter only; empty otherwise
  bool explored = false;       ///< RL epsilon-greedy exploration fired

  DecisionOutcome outcome;
};

class DecisionLedger {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Identify the run; lands in the header line.
  void set_run_info(int batches_per_iteration, int num_workers,
                    std::string model);

  /// Append a record (outcome typically still kPending); returns its id.
  std::uint64_t add(DecisionRecord record);

  /// Attach the realized outcome to record `id`.
  void resolve(std::uint64_t id, DecisionOutcome outcome);

  /// Mark every still-pending record superseded with `reason`. Call at end
  /// of run so no dangling records survive serialization.
  void finalize(const std::string& reason = "run_end");

  bool all_resolved() const;

  const std::vector<DecisionRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  void clear() { records_.clear(); }

  /// Deterministic text sink; byte-identical for same-seed runs.
  void write_text(std::ostream& os) const;

  int batches_per_iteration() const { return batches_; }
  int run_workers() const { return workers_; }
  const std::string& model() const { return model_; }

 private:
  bool enabled_ = false;
  int batches_ = 0;
  int workers_ = 0;
  std::string model_;
  std::vector<DecisionRecord> records_;
};

}  // namespace autopipe::trace
