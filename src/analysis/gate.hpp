// The one gate behind every committed perf bound (docs/BENCHMARKS.md,
// "Gates"). A baseline is an earlier copy of the JSON report being gated:
// autopipe_sweep --out, cotenancy_fleet --out or autopipe_trace profile
// --json. The report's "schema" picks the policy from one table in
// gate.cpp, so neither the baselines nor the callers carry gate settings.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace autopipe::analysis {

/// `id_key` names an entry and `value_key` holds its gated number, which
/// may move by `tolerance` × baseline in the worse direction.
struct GatePolicy {
  std::string schema;
  std::string id_key;
  std::string value_key;
  bool higher_is_better = true;
  double tolerance = 0.0;
};

/// Throws std::runtime_error for a schema with no gate.
const GatePolicy& gate_policy(const std::string& schema);

/// A report as the gate sees it: id -> value of every JSON object that
/// carries the id key; nullopt when the object has no value (a failed sweep
/// scenario). A repeated id keeps its last value.
struct GateValues {
  const GatePolicy* policy = nullptr;
  std::map<std::string, std::optional<double>> values;
};

/// Read a report or baseline as JsonWriter writes it, one member per line.
/// Throws std::runtime_error when "schema" is not the first member or names
/// no gate, an id is not a string or a value not a number, the top-level
/// object is never closed, or no object carries the id key.
GateValues read_gate_values(std::istream& is);
/// Same, from a file; the error names the path.
GateValues read_gate_file(const std::string& path);

struct GateRow {
  std::string id;
  double baseline = 0.0;
  std::optional<double> measured;
  double limit = 0.0;   ///< the worst value that still passes
  std::string verdict;  ///< "ok" | "regression" | "missing" | "no value"
};

struct GateResult {
  const GatePolicy* policy = nullptr;
  std::vector<GateRow> rows;  ///< one per valued baseline entry, id order
  std::size_t failures = 0;   ///< rows whose verdict is not "ok"
  bool ok() const { return failures == 0; }
};

/// Every baseline entry with a value must be in the report with a value
/// within its limit. Report entries absent from the baseline pass
/// unexamined. Throws std::runtime_error when the two schemas differ.
GateResult gate(const GateValues& report, const GateValues& baseline);

/// The verdict table and a one-line outcome.
void write_gate_result(const GateResult& result, std::ostream& os);

}  // namespace autopipe::analysis
