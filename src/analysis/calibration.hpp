// Predictor calibration: join a decision ledger against the realized
// outcomes it recorded (and, when a trace is available, against the measured
// switch stalls) to quantify how trustworthy the controller's predictions
// were. Produces per-decision rows plus the aggregates the paper's
// evaluation leans on — speed-prediction MAPE and bias for the meta-network
// (or analytic predictor), switch-cost MAE/bias against the post-mortem
// stalls, arbiter accept rate, and hindsight regret (best candidate's
// predicted speed vs what the taken action actually delivered).
//
// Metric definitions live in docs/DECISIONS.md; the controller maintains the
// same APE/bias/regret series live in MetricsRegistry ("calibration.*").
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/critical_path.hpp"
#include "analysis/trace_view.hpp"
#include "common/ledger.hpp"

namespace autopipe::analysis {

/// One resolved decision joined to its realized outcome.
struct CalibrationRow {
  std::uint64_t id = 0;
  double time = 0.0;
  std::string action;      ///< "switch" | "hold"
  std::string status;      ///< terminal outcome state
  double predicted = 0.0;  ///< chosen action's predicted speed (samples/s)
  double realized = -1.0;  ///< measured speed; -1 when never measured
  double ape = -1.0;       ///< |pred - realized| / realized; -1 unmeasured
  double bias = 0.0;       ///< (pred - realized) / realized, signed
  double regret = -1.0;    ///< max(0, best_pred - realized) / realized
  double cost_pred = 0.0;  ///< estimated switch stall (seconds)
  double cost_actual = -1.0;  ///< joined post-mortem stall; -1 when no join
};

struct CalibrationReport {
  std::size_t decisions = 0;
  std::size_t switches = 0;  ///< action == switch
  std::size_t holds = 0;
  double accept_rate = 0.0;  ///< switches / decisions
  std::size_t executed = 0, reverted = 0, rejected = 0, superseded = 0;
  std::size_t aborted = 0;  ///< any aborted_<phase> outcome

  std::size_t measured = 0;    ///< rows with a realized speed
  double speed_mape = 0.0;     ///< mean APE over measured rows
  double speed_bias = 0.0;     ///< mean signed relative error
  double mean_regret = 0.0;    ///< mean relative regret over measured rows
  double max_regret = 0.0;

  std::size_t cost_joined = 0;  ///< switch rows joined to a trace stall
  double cost_mae = 0.0;        ///< mean |cost_pred - stall| (seconds)
  double cost_bias = 0.0;       ///< mean (cost_pred - stall)

  std::vector<CalibrationRow> rows;  ///< every decision, in ledger order
};

/// Ledger-only calibration: realized speeds come from the recorded outcomes.
CalibrationReport calibrate(const trace::DecisionLedger& ledger);

/// Calibration with the switch-cost join: each executed/reverted switch
/// decision is matched to the trace's switch post-mortem whose request
/// instant coincides with the decision (the controller requests the switch
/// synchronously, so the timestamps agree up to `tolerance` plus the
/// ledger's 9-significant-digit serialization round-off).
CalibrationReport calibrate(const trace::DecisionLedger& ledger,
                            const TraceView& view, double tolerance = 1e-9);

/// Human-readable report (aggregates plus a per-decision table).
void render_calibration(const CalibrationReport& report, std::ostream& os);
void write_calibration_json(const CalibrationReport& report, std::ostream& os);

/// Decision table for `autopipe_trace decisions`: one line per record with
/// its candidates count, verdict and outcome.
void render_decisions(const trace::DecisionLedger& ledger, std::ostream& os);
void write_decisions_json(const trace::DecisionLedger& ledger,
                          std::ostream& os);

/// Decision markers against the critical path: which planning rounds fired
/// while the walked path sat in a wait segment (the pipeline starving while
/// the controller deliberated — prime switch opportunities).
struct DecisionPathMark {
  std::uint64_t id = 0;
  double time = 0.0;
  bool on_wait = false;
};
std::vector<DecisionPathMark> decision_path_marks(
    const CriticalPath& path, const trace::DecisionLedger& ledger);

}  // namespace autopipe::analysis
