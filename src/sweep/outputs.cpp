#include "sweep/outputs.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "analysis/json.hpp"
#include "common/flags.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "sim/simulator.hpp"

namespace autopipe::sweep {

namespace {

std::ofstream open_output(const std::string& path, const char* what) {
  std::ofstream out(path);
  if (!out.good()) {
    throw std::runtime_error(std::string("cannot open ") + what +
                             " file: " + path);
  }
  return out;
}

}  // namespace

std::pair<std::string, double> split_interval(const std::string& spec) {
  const std::string::size_type colon = spec.rfind(':');
  if (colon != std::string::npos) {
    const auto v = parse::number(spec.substr(colon + 1));
    if (v && *v > 0.0) return {spec.substr(0, colon), *v};
  }
  return {spec, 1.0};
}

std::string splice_label(const std::string& path, const std::string& label) {
  if (label.empty()) return path;
  std::string safe = label;
  for (char& c : safe) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
        c != '_' && c != '-') {
      c = '_';
    }
  }
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.rfind('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return path + "." + safe;  // no extension to splice around
  return path.substr(0, dot) + "." + safe + path.substr(dot);
}

RunOutputs::RunOutputs(const Flags& flags)
    : trace(flags.get("trace", "")),
      metrics(flags.get("metrics", "")),
      ledger(flags.get("ledger", "")) {
  if (flags.has("timeseries")) {
    std::tie(timeseries, timeseries_interval) =
        split_interval(flags.get("timeseries", ""));
  }
}

void RunOutputs::enable(sim::Simulator& simulator) const {
  if (!trace.empty()) simulator.tracer().set_enabled(true);
  if (!ledger.empty()) simulator.ledger().set_enabled(true);
  if (!timeseries.empty())
    simulator.timeseries().configure(timeseries_interval);
}

void RunOutputs::check_writable() const {
  if (!trace.empty()) open_output(trace, "trace");
  if (!metrics.empty()) open_output(metrics, "metrics");
  if (!ledger.empty()) open_output(ledger, "ledger");
  if (!timeseries.empty()) open_output(timeseries, "timeseries");
}

std::string RunOutputs::write(sim::Simulator& simulator,
                              const std::string& label) const {
  std::ostringstream log;
  if (!trace.empty()) {
    const std::string path = splice_label(trace, label);
    std::ofstream out = open_output(path, "trace");
    if (path.ends_with(".trace") || path.ends_with(".txt")) {
      simulator.tracer().write_text(out);
    } else {
      simulator.tracer().write_chrome_json(out);
    }
    log << "trace: " << simulator.tracer().size() << " events -> " << path
        << "\n";
  }
  if (!metrics.empty()) {
    const std::string path = splice_label(metrics, label);
    std::ofstream out = open_output(path, "metrics");
    const auto values = simulator.metrics().flattened();
    analysis::write_scalar_map_json(values, out);
    log << "metrics: " << values.size() << " values -> " << path << "\n";
  }
  if (!ledger.empty()) {
    const std::string path = splice_label(ledger, label);
    std::ofstream out = open_output(path, "ledger");
    simulator.ledger().finalize("run_end");
    simulator.ledger().write_text(out);
    log << "ledger: " << simulator.ledger().size() << " decisions -> "
        << path << "\n";
  }
  if (!timeseries.empty()) {
    const std::string path = splice_label(timeseries, label);
    std::ofstream out = open_output(path, "timeseries");
    simulator.timeseries().finalize(simulator.now(), simulator.metrics());
    simulator.timeseries().write_text(out);
    log << "timeseries: " << simulator.timeseries().size()
        << " samples every " << TextTable::num(timeseries_interval, 3)
        << "s -> " << path << "\n";
  }
  return log.str();
}

void start_profile(const std::string& path) {
  if (path.empty()) return;
  open_output(path, "profile");
  prof::reset();
  prof::set_enabled(true);
}

std::vector<prof::ThreadProfile> write_profile(const std::string& path,
                                               std::ostream& log) {
  if (path.empty()) return {};
  prof::set_enabled(false);
  std::vector<prof::ThreadProfile> profiles = prof::collect();
  std::ofstream out = open_output(path, "profile");
  if (path.ends_with(".json")) {
    prof::write_chrome_json(profiles, out);
  } else {
    prof::write_text(profiles, out);
  }
  std::size_t spans = 0;
  for (const prof::ThreadProfile& tp : profiles)
    spans += tp.spans.size() + tp.aggregates.size();
  log << "profile: " << spans << " span record(s) across " << profiles.size()
      << " thread(s) -> " << path << "\n";
  return profiles;
}

}  // namespace autopipe::sweep
