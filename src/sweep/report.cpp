#include "sweep/report.hpp"

#include <cstdint>
#include <ostream>

#include "analysis/json.hpp"
#include "common/table.hpp"

namespace autopipe::sweep {

void write_summary_table(const SweepResult& result, std::ostream& os) {
  TextTable table({"scenario", "status", "samples/s", "util", "p50(ms)",
                   "switches", "aborts", "events"});
  std::size_t failed = 0;
  for (const ScenarioResult& r : result.scenarios) {
    if (r.ok) {
      table.add_row({r.spec.label, "ok", TextTable::num(r.throughput, 1),
                     TextTable::num(r.utilization, 3),
                     TextTable::num(r.iteration_p50_ms, 3),
                     std::to_string(r.switches),
                     std::to_string(r.switch_aborts),
                     std::to_string(r.events)});
    } else {
      ++failed;
      table.add_row({r.spec.label, "FAIL", "-", "-", "-", "-", "-", "-"});
    }
  }
  table.print(os, "sweep: " + std::to_string(result.scenarios.size()) +
                      " scenarios");
  if (failed > 0) {
    os << "\n" << failed << " scenario(s) failed:\n";
    for (const ScenarioResult& r : result.scenarios)
      if (!r.ok) os << "  " << r.spec.label << ": " << r.error << "\n";
  }
}

void write_bench_json(const SweepResult& result, std::ostream& os,
                      bool include_timing) {
  analysis::JsonWriter json(os);
  json.begin_object();
  json.kv("schema", "autopipe-sweep-v1");
  json.kv("scenario_count", result.scenarios.size());
  std::size_t ok_count = 0;
  for (const ScenarioResult& r : result.scenarios)
    if (r.ok) ++ok_count;
  json.kv("ok_count", ok_count);

  json.key("scenarios");
  json.begin_array();
  for (const ScenarioResult& r : result.scenarios) {
    json.begin_object();
    json.kv("label", r.spec.label);
    json.kv("model", r.spec.model);
    json.kv("system", r.spec.system);
    json.kv("servers", r.spec.servers);
    json.kv("gpus_per_server", r.spec.gpus_per_server);
    json.kv("bandwidth_gbps", r.spec.bandwidth_gbps);
    json.kv("extra_jobs", static_cast<std::int64_t>(r.spec.extra_jobs));
    json.kv("churn", r.spec.churn);
    json.kv("faults", r.spec.faults);
    json.kv("seed", static_cast<std::uint64_t>(r.spec.seed));
    json.kv("iterations", r.spec.iterations);
    json.kv("warmup", r.spec.warmup);
    json.kv("ok", r.ok);
    if (r.ok) {
      json.kv("throughput", r.throughput);
      json.kv("utilization", r.utilization);
      json.kv("batch", r.batch);
      json.kv("iteration_p50_ms", r.iteration_p50_ms);
      json.kv("iteration_p95_ms", r.iteration_p95_ms);
      json.kv("iteration_p99_ms", r.iteration_p99_ms);
      json.kv("switches", r.switches);
      json.kv("switch_aborts", r.switch_aborts);
      json.kv("events", r.events);
      if (r.spec.jobs > 1) {
        // Co-tenancy view; omitted for single-tenant scenarios so legacy
        // bench JSON stays byte-stable.
        json.kv("fleet_jobs", r.spec.jobs);
        json.kv("arbiter", r.spec.arbiter);
        json.kv("fleet_jain", r.fleet_jain);
        json.kv("fleet_conflicts", r.fleet_conflicts);
        json.kv("fleet_grants", r.fleet_grants);
        json.kv("fleet_contention_aborts", r.fleet_contention_aborts);
        json.key("job_throughputs");
        json.begin_array();
        for (double t : r.job_throughputs) json.value(t);
        json.end();
      }
    } else {
      json.kv("error", r.error);
    }
    if (!r.trace_file.empty()) json.kv("trace_file", r.trace_file);
    if (!r.metrics_file.empty()) json.kv("metrics_file", r.metrics_file);
    if (!r.ledger_file.empty()) json.kv("ledger_file", r.ledger_file);
    if (!r.timeseries_file.empty())
      json.kv("timeseries_file", r.timeseries_file);
    json.end();
  }
  json.end();

  if (include_timing) {
    json.key("timing");
    json.begin_object();
    json.kv("jobs", result.jobs);
    json.kv("wall_seconds", result.wall_seconds);
    json.key("scenario_wall_seconds");
    json.begin_array();
    for (const ScenarioResult& r : result.scenarios)
      json.value(r.wall_seconds);
    json.end();
    if (!result.profile.empty()) {
      json.key("profile");
      json.begin_array();
      for (const HostProfileRow& row : result.profile) {
        json.begin_object();
        json.kv("name", row.name);
        json.kv("count", row.count);
        json.kv("inclusive_ns", row.inclusive_ns);
        json.kv("exclusive_ns", row.exclusive_ns);
        json.end();
      }
      json.end();
    }
    json.end();
  }
  json.end();
  os << "\n";
}

}  // namespace autopipe::sweep
