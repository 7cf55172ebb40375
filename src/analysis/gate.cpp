#include "analysis/gate.hpp"

#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/table.hpp"
#include "common/trace.hpp"

namespace autopipe::analysis {

const GatePolicy& gate_policy(const std::string& schema) {
  static const GatePolicy kPolicies[] = {
      {"autopipe-sweep-v1", "label", "throughput", true, 0.10},
      {"autopipe-cotenancy-v1", "label", "fleet_throughput", true, 0.10},
      {"autopipe-profile-report-v1", "name", "ns_per_call", false, 0.15},
  };
  for (const GatePolicy& policy : kPolicies)
    if (policy.schema == schema) return policy;
  throw std::runtime_error("no gate for schema '" + schema + "'");
}

GateValues read_gate_values(std::istream& is) {
  // Every gated report is JsonWriter output: each member on a line of its
  // own (`"key": value,`), an entry's id before its value, and every object
  // closed on a line of its own, the top level by a bare "}".
  GateValues out;
  std::optional<std::string> id;  // the entry whose object is open
  bool closed = false;
  std::string line;
  for (std::size_t lineno = 1; std::getline(is, line); ++lineno) {
    const auto fail = [&](const std::string& why) {
      throw std::runtime_error("line " + std::to_string(lineno) + ": " + why);
    };
    if (!line.empty()) closed = line == "}";
    const std::size_t open = line.find_first_not_of(' ');
    const std::size_t colon = line.find("\": ");
    if (open == std::string::npos || line[open] != '"' ||
        colon == std::string::npos) {
      if (line.find('}') != std::string::npos) id.reset();
      continue;
    }
    const std::string key = line.substr(open + 1, colon - open - 1);
    std::string value = line.substr(colon + 3);
    if (!value.empty() && value.back() == ',') value.pop_back();
    const auto unquote = [&] {
      if (value.size() < 2 || value.front() != '"' || value.back() != '"')
        fail("\"" + key + "\" must be a string");
      return value.substr(1, value.size() - 2);
    };
    if (out.policy == nullptr) {
      if (key != "schema") fail("the first key must be \"schema\"");
      out.policy = &gate_policy(unquote());
    } else if (key == out.policy->id_key) {
      id = unquote();
      out.values[*id] = std::nullopt;
    } else if (key == out.policy->value_key && id) {
      char* end = nullptr;
      const double number = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0')
        fail("malformed " + key + " '" + value + "'");
      out.values[*id] = number;
    }
  }
  if (out.policy == nullptr)
    throw std::runtime_error("no \"schema\" key on a line of its own");
  if (!closed) throw std::runtime_error("truncated: no closing '}'");
  if (out.values.empty())
    throw std::runtime_error("no entry has a \"" + out.policy->id_key +
                             "\" key");
  return out;
}

GateValues read_gate_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot open '" + path + "'");
  try {
    return read_gate_values(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("'" + path + "': " + e.what());
  }
}

GateResult gate(const GateValues& report, const GateValues& baseline) {
  if (report.policy != baseline.policy)
    throw std::runtime_error("report schema '" + report.policy->schema +
                             "' does not match baseline schema '" +
                             baseline.policy->schema + "'");
  const GatePolicy& policy = *baseline.policy;
  GateResult result;
  result.policy = &policy;
  for (const auto& [id, expected] : baseline.values) {
    if (!expected) continue;  // a failed baseline entry sets no bound
    GateRow row{id, *expected, std::nullopt, 0.0, "ok"};
    row.limit = policy.higher_is_better ? *expected * (1.0 - policy.tolerance)
                                        : *expected * (1.0 + policy.tolerance);
    const auto it = report.values.find(id);
    if (it == report.values.end()) {
      row.verdict = "missing";
    } else if (!it->second) {
      row.verdict = "no value";
    } else {
      row.measured = it->second;
      if (policy.higher_is_better ? *it->second < row.limit
                                  : *it->second > row.limit)
        row.verdict = "regression";
    }
    if (row.verdict != "ok") ++result.failures;
    result.rows.push_back(std::move(row));
  }
  return result;
}

void write_gate_result(const GateResult& result, std::ostream& os) {
  const GatePolicy& policy = *result.policy;
  TextTable table({policy.id_key, "baseline", "measured", "limit", "verdict"});
  for (const GateRow& row : result.rows) {
    table.add_row({row.id, trace::format_double(row.baseline),
                   row.measured ? trace::format_double(*row.measured) : "-",
                   trace::format_double(row.limit), row.verdict});
  }
  table.print(os, "gate " + policy.schema + ": " + policy.value_key +
                      (policy.higher_is_better ? " fails below -"
                                               : " fails above +") +
                      trace::format_double(policy.tolerance * 100.0) + "%");
  os << "gate " << (result.ok() ? "ok" : "FAILED") << ": " << result.failures
     << " of " << result.rows.size() << " baseline entries out of bounds\n";
}

}  // namespace autopipe::analysis
