#include "common/ledger.hpp"

#include <string_view>

#include "common/text_writer.hpp"

namespace autopipe::trace {

const char* decision_action_name(DecisionAction action) {
  return action == DecisionAction::kSwitch ? "switch" : "hold";
}

const char* outcome_status_name(OutcomeStatus status) {
  switch (status) {
    case OutcomeStatus::kPending:
      return "pending";
    case OutcomeStatus::kExecuted:
      return "executed";
    case OutcomeStatus::kReverted:
      return "reverted";
    case OutcomeStatus::kRejected:
      return "rejected";
    case OutcomeStatus::kSuperseded:
      return "superseded";
    case OutcomeStatus::kAbortedPrepare:
      return "aborted_prepare";
    case OutcomeStatus::kAbortedDrain:
      return "aborted_drain";
    case OutcomeStatus::kAbortedTransfer:
      return "aborted_transfer";
  }
  return "pending";
}

void DecisionLedger::set_run_info(int batches_per_iteration, int num_workers,
                                  std::string model) {
  batches_ = batches_per_iteration;
  workers_ = num_workers;
  model_ = std::move(model);
}

std::uint64_t DecisionLedger::add(DecisionRecord record) {
  record.id = records_.size();
  records_.push_back(std::move(record));
  return records_.back().id;
}

void DecisionLedger::resolve(std::uint64_t id, DecisionOutcome outcome) {
  if (id < records_.size()) records_[id].outcome = std::move(outcome);
}

void DecisionLedger::finalize(const std::string& reason) {
  for (DecisionRecord& record : records_) {
    if (record.outcome.status == OutcomeStatus::kPending) {
      record.outcome.status = OutcomeStatus::kSuperseded;
      record.outcome.reason = reason;
    }
  }
}

bool DecisionLedger::all_resolved() const {
  for (const DecisionRecord& record : records_) {
    if (record.outcome.status == OutcomeStatus::kPending) return false;
  }
  return true;
}

namespace {

// "-" marks an absent optional value in the text form.
std::string_view opt_str(const std::string& s) {
  return s.empty() ? std::string_view("-") : std::string_view(s);
}

/// A realized speed; negative means unmeasured.
struct OptSpeed {
  double value;
};
TextWriter& operator<<(TextWriter& out, OptSpeed speed) {
  return speed.value < 0 ? out << '-' : out << General{speed.value};
}

/// The RL arbiter's Q-values, comma-joined.
struct QList {
  const std::vector<double>& values;
};
TextWriter& operator<<(TextWriter& out, QList q) {
  if (q.values.empty()) return out << '-';
  for (std::size_t i = 0; i < q.values.size(); ++i) {
    if (i) out << ',';
    out << General{q.values[i]};
  }
  return out;
}

}  // namespace

void DecisionLedger::write_text(std::ostream& os) const {
  TextWriter out(os);
  out << "ledger v1 model=" << opt_str(model_) << " batch=" << batches_
      << " workers=" << workers_ << " decisions=" << records_.size() << "\n";
  for (const DecisionRecord& r : records_) {
    out << "decision id=" << r.id << " t=" << General{r.time}
        << " iter=" << r.iteration << " kind=" << opt_str(r.kind)
        << " digest=" << opt_str(r.digest) << " workers=" << r.num_workers
        << " iter_time=" << General{r.iteration_time}
        << " current=" << opt_str(r.current)
        << " current_pred=" << General{r.current_pred};
    if (r.job > 0) out << " job=" << r.job;
    out << "\n";
    for (std::size_t i = 0; i < r.candidates.size(); ++i) {
      const CandidateScore& c = r.candidates[i];
      out << "cand id=" << r.id << " n=" << i
          << " part=" << opt_str(c.partition)
          << " pred=" << General{c.predicted_speed}
          << " cost_fine=" << General{c.cost_fine}
          << " cost_stw=" << General{c.cost_stw}
          << " skip=" << (c.skipped ? 1 : 0) << "\n";
    }
    out << "choice id=" << r.id
        << " action=" << decision_action_name(r.action)
        << " target=" << opt_str(r.target)
        << " pred=" << General{r.chosen_pred}
        << " best=" << General{r.best_pred}
        << " cost=" << General{r.cost_seconds}
        << " arbiter=" << opt_str(r.arbiter)
        << " explore=" << (r.explored ? 1 : 0) << " q=" << QList{r.q_values}
        << "\n";
    out << "outcome id=" << r.id
        << " status=" << outcome_status_name(r.outcome.status)
        << " realized=" << OptSpeed{r.outcome.realized_speed}
        << " window=" << r.outcome.window_iterations
        << " reason=" << opt_str(r.outcome.reason) << "\n";
  }
}

}  // namespace autopipe::trace
