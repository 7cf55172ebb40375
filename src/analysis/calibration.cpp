#include "analysis/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "analysis/json.hpp"
#include "analysis/switches.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"

namespace autopipe::analysis {

namespace {

CalibrationReport build(const trace::DecisionLedger& ledger,
                        const std::vector<SwitchPostMortem>* post_mortems,
                        double tolerance) {
  CalibrationReport report;
  report.decisions = ledger.size();
  report.rows.reserve(ledger.size());

  double ape_sum = 0.0, bias_sum = 0.0, regret_sum = 0.0;
  double cost_err_sum = 0.0, cost_bias_sum = 0.0;
  std::vector<bool> pm_used(post_mortems ? post_mortems->size() : 0, false);

  for (const trace::DecisionRecord& rec : ledger.records()) {
    CalibrationRow row;
    row.id = rec.id;
    row.time = rec.time;
    row.action = trace::decision_action_name(rec.action);
    row.status = trace::outcome_status_name(rec.outcome.status);
    row.predicted = rec.chosen_pred;
    row.cost_pred = rec.cost_seconds;

    const bool switched = rec.action == trace::DecisionAction::kSwitch;
    (switched ? report.switches : report.holds) += 1;
    switch (rec.outcome.status) {
      case trace::OutcomeStatus::kExecuted: ++report.executed; break;
      case trace::OutcomeStatus::kReverted: ++report.reverted; break;
      case trace::OutcomeStatus::kRejected: ++report.rejected; break;
      case trace::OutcomeStatus::kSuperseded: ++report.superseded; break;
      case trace::OutcomeStatus::kAbortedPrepare:
      case trace::OutcomeStatus::kAbortedDrain:
      case trace::OutcomeStatus::kAbortedTransfer: ++report.aborted; break;
      case trace::OutcomeStatus::kPending: break;
    }

    if (rec.outcome.realized_speed > 0.0) {
      row.realized = rec.outcome.realized_speed;
      ++report.measured;
      if (rec.chosen_pred > 0.0) {
        row.bias = (rec.chosen_pred - row.realized) / row.realized;
        row.ape = std::abs(row.bias);
        ape_sum += row.ape;
        bias_sum += row.bias;
      }
      if (rec.best_pred > 0.0) {
        row.regret =
            std::max(0.0, rec.best_pred - row.realized) / row.realized;
        regret_sum += row.regret;
        report.max_regret = std::max(report.max_regret, row.regret);
      }
    }

    // Switch-cost join: the controller requests the switch synchronously
    // with the decision, so the matching post-mortem's request instant
    // coincides with rec.time. Executed and reverted switches both left a
    // switch span in the trace.
    if (post_mortems && switched &&
        (rec.outcome.status == trace::OutcomeStatus::kExecuted ||
         rec.outcome.status == trace::OutcomeStatus::kReverted)) {
      // The ledger's timestamps round-trip through %.9g (9 significant
      // digits), so the match window must scale with |t| on top of the
      // caller's tolerance.
      const double window =
          tolerance + 1e-8 * std::max(1.0, std::abs(rec.time));
      for (std::size_t i = 0; i < post_mortems->size(); ++i) {
        if (pm_used[i]) continue;
        if (std::abs((*post_mortems)[i].request_ts - rec.time) <= window) {
          pm_used[i] = true;
          row.cost_actual = (*post_mortems)[i].stall_seconds;
          ++report.cost_joined;
          cost_err_sum += std::abs(row.cost_pred - row.cost_actual);
          cost_bias_sum += row.cost_pred - row.cost_actual;
          break;
        }
      }
    }
    report.rows.push_back(std::move(row));
  }

  if (report.decisions > 0)
    report.accept_rate = static_cast<double>(report.switches) /
                         static_cast<double>(report.decisions);
  if (report.measured > 0) {
    report.speed_mape = ape_sum / static_cast<double>(report.measured);
    report.speed_bias = bias_sum / static_cast<double>(report.measured);
    report.mean_regret = regret_sum / static_cast<double>(report.measured);
  }
  if (report.cost_joined > 0) {
    report.cost_mae = cost_err_sum / static_cast<double>(report.cost_joined);
    report.cost_bias = cost_bias_sum / static_cast<double>(report.cost_joined);
  }
  return report;
}

std::string opt_num(double v, int decimals = 3) {
  return v < 0.0 ? "-" : TextTable::num(v, decimals);
}

}  // namespace

CalibrationReport calibrate(const trace::DecisionLedger& ledger) {
  return build(ledger, nullptr, 0.0);
}

CalibrationReport calibrate(const trace::DecisionLedger& ledger,
                            const TraceView& view, double tolerance) {
  const std::vector<SwitchPostMortem> post_mortems =
      switch_post_mortems(view);
  return build(ledger, &post_mortems, tolerance);
}

void render_calibration(const CalibrationReport& report, std::ostream& os) {
  os << "decisions: " << report.decisions << " (switch " << report.switches
     << ", hold " << report.holds << ", accept rate "
     << TextTable::num(100.0 * report.accept_rate, 1) << "%)\n";
  os << "outcomes: executed " << report.executed << ", reverted "
     << report.reverted << ", rejected " << report.rejected
     << ", superseded " << report.superseded << ", aborted "
     << report.aborted << "\n";
  os << "speed predictor over " << report.measured
     << " measured decisions: MAPE "
     << TextTable::num(100.0 * report.speed_mape, 2) << "%, bias "
     << TextTable::num(100.0 * report.speed_bias, 2) << "%\n";
  os << "arbiter regret: mean "
     << TextTable::num(100.0 * report.mean_regret, 2) << "%, max "
     << TextTable::num(100.0 * report.max_regret, 2) << "%\n";
  if (report.cost_joined > 0) {
    os << "switch-cost model over " << report.cost_joined
       << " joined switches: MAE " << TextTable::num(report.cost_mae, 4)
       << " s, bias " << TextTable::num(report.cost_bias, 4) << " s\n";
  } else {
    os << "switch-cost model: no joined switches\n";
  }
  if (report.rows.empty()) return;

  TextTable table({"id", "t", "action", "status", "pred", "realized", "ape%",
                   "regret%", "cost_pred", "cost_actual"});
  for (const CalibrationRow& row : report.rows) {
    table.add_row({std::to_string(row.id), TextTable::num(row.time, 3),
                   row.action, row.status, TextTable::num(row.predicted, 2),
                   opt_num(row.realized, 2),
                   row.ape < 0.0 ? "-" : TextTable::num(100.0 * row.ape, 2),
                   row.regret < 0.0 ? "-"
                                    : TextTable::num(100.0 * row.regret, 2),
                   TextTable::num(row.cost_pred, 4),
                   opt_num(row.cost_actual, 4)});
  }
  table.print(os, "per-decision calibration");
}

void write_calibration_json(const CalibrationReport& report,
                            std::ostream& os) {
  JsonWriter json(os);
  json.begin_object();
  json.kv("schema", "autopipe-calibration-v1");
  json.kv("decisions", report.decisions);
  json.kv("switches", report.switches);
  json.kv("holds", report.holds);
  json.kv("accept_rate", report.accept_rate);
  json.kv("executed", report.executed);
  json.kv("reverted", report.reverted);
  json.kv("rejected", report.rejected);
  json.kv("superseded", report.superseded);
  json.kv("aborted", report.aborted);
  json.kv("measured", report.measured);
  json.kv("speed_mape", report.speed_mape);
  json.kv("speed_bias", report.speed_bias);
  json.kv("mean_regret", report.mean_regret);
  json.kv("max_regret", report.max_regret);
  json.kv("cost_joined", report.cost_joined);
  json.kv("cost_mae", report.cost_mae);
  json.kv("cost_bias", report.cost_bias);
  json.key("rows");
  json.begin_array();
  for (const CalibrationRow& row : report.rows) {
    json.begin_object();
    json.kv("id", row.id);
    json.kv("time", row.time);
    json.kv("action", row.action);
    json.kv("status", row.status);
    json.kv("predicted", row.predicted);
    json.kv("realized", row.realized);
    json.kv("ape", row.ape);
    json.kv("bias", row.bias);
    json.kv("regret", row.regret);
    json.kv("cost_pred", row.cost_pred);
    json.kv("cost_actual", row.cost_actual);
    json.end();
  }
  json.end();
  json.end();
  os << "\n";
}

void render_decisions(const trace::DecisionLedger& ledger, std::ostream& os) {
  os << "ledger: model=" << (ledger.model().empty() ? "-" : ledger.model())
     << " batch=" << ledger.batches_per_iteration()
     << " workers=" << ledger.run_workers() << " decisions=" << ledger.size()
     << "\n";
  if (ledger.empty()) return;
  TextTable table({"id", "t", "iter", "kind", "cands", "arbiter", "action",
                   "target", "pred", "status", "realized", "reason"});
  for (const trace::DecisionRecord& rec : ledger.records()) {
    table.add_row(
        {std::to_string(rec.id), TextTable::num(rec.time, 3),
         std::to_string(rec.iteration), rec.kind,
         std::to_string(rec.candidates.size()), rec.arbiter,
         trace::decision_action_name(rec.action),
         rec.target.empty() ? "-" : rec.target,
         TextTable::num(rec.chosen_pred, 2),
         trace::outcome_status_name(rec.outcome.status),
         opt_num(rec.outcome.realized_speed, 2),
         rec.outcome.reason.empty() ? "-" : rec.outcome.reason});
  }
  table.print(os, "decisions");
}

void write_decisions_json(const trace::DecisionLedger& ledger,
                          std::ostream& os) {
  JsonWriter json(os);
  json.begin_object();
  json.kv("schema", "autopipe-decisions-v1");
  json.kv("model", ledger.model());
  json.kv("batch", ledger.batches_per_iteration());
  json.kv("workers", ledger.run_workers());
  json.key("decisions");
  json.begin_array();
  for (const trace::DecisionRecord& rec : ledger.records()) {
    json.begin_object();
    json.kv("id", rec.id);
    json.kv("time", rec.time);
    json.kv("iteration", rec.iteration);
    json.kv("kind", rec.kind);
    json.kv("digest", rec.digest);
    json.kv("workers", rec.num_workers);
    json.kv("iteration_time", rec.iteration_time);
    json.kv("current", rec.current);
    json.kv("current_pred", rec.current_pred);
    json.key("candidates");
    json.begin_array();
    for (const trace::CandidateScore& cs : rec.candidates) {
      json.begin_object();
      json.kv("partition", cs.partition);
      json.kv("predicted_speed", cs.predicted_speed);
      json.kv("cost_fine", cs.cost_fine);
      json.kv("cost_stw", cs.cost_stw);
      json.kv("skipped", cs.skipped);
      json.end();
    }
    json.end();
    json.kv("action", trace::decision_action_name(rec.action));
    json.kv("target", rec.target);
    json.kv("chosen_pred", rec.chosen_pred);
    json.kv("best_pred", rec.best_pred);
    json.kv("cost_seconds", rec.cost_seconds);
    json.kv("arbiter", rec.arbiter);
    json.kv("explored", rec.explored);
    json.key("q_values");
    json.begin_array();
    for (double q : rec.q_values) json.value(q);
    json.end();
    json.kv("status", trace::outcome_status_name(rec.outcome.status));
    json.kv("realized_speed", rec.outcome.realized_speed);
    json.kv("window_iterations", rec.outcome.window_iterations);
    json.kv("reason", rec.outcome.reason);
    json.end();
  }
  json.end();
  json.end();
  os << "\n";
}

std::vector<DecisionPathMark> decision_path_marks(
    const CriticalPath& path, const trace::DecisionLedger& ledger) {
  std::vector<DecisionPathMark> marks;
  marks.reserve(ledger.size());
  for (const trace::DecisionRecord& rec : ledger.records()) {
    DecisionPathMark mark;
    mark.id = rec.id;
    mark.time = rec.time;
    for (const PathSegment& seg : path.segments) {
      if (seg.span != nullptr) continue;  // only wait segments matter
      if (rec.time >= seg.begin && rec.time <= seg.end) {
        mark.on_wait = true;
        break;
      }
    }
    marks.push_back(mark);
  }
  return marks;
}

}  // namespace autopipe::analysis
