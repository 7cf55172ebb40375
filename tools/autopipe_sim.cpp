// autopipe_sim — the scenario driver. Runs any (model, bandwidth, sharing,
// schedule, system) combination from the command line and prints a
// one-block report, so new scenarios don't require writing C++.
//
// Examples:
//   autopipe_sim --model vgg16 --bandwidth 25 --system autopipe
//   autopipe_sim --model resnet50 --bandwidth 10 --extra-jobs 2
//                --system pipedream --iterations 200
//   autopipe_sim --model bert48 --schedule dapple --micro-batches 8
//                --system autopipe --bw-drop-iter 30 --bw-drop-gbps 10
//   autopipe_sim --model alexnet --system baseline --scheme ps
#include <cstdint>
#include <iostream>
#include <optional>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/trace_view.hpp"
#include "cluster/jobs_spec.hpp"
#include "common/flags.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "sweep/outputs.hpp"
#include "sweep/runner.hpp"

using namespace autopipe;

namespace {

void usage() {
  std::cout <<
      "autopipe_sim — shared-GPU-cluster pipeline-parallelism scenarios\n\n"
      "  --model NAME          alexnet | vgg16 | resnet50 | bert48 (default"
      " resnet50)\n"
      "  --system NAME         autopipe | pipedream | baseline | even"
      " (default autopipe)\n"
      "  --schedule NAME       1f1b | gpipe | dapple | chimera | 2bw"
      " (default 1f1b)\n"
      "  --scheme NAME         ring | ps (default ring)\n"
      "  --framework NAME      pytorch | tensorflow | mxnet (default"
      " pytorch)\n"
      "  --bandwidth GBPS      NIC line rate (default 25)\n"
      "  --servers N           physical servers (default 5)\n"
      "  --gpus-per-server N   (default 2)\n"
      "  --extra-jobs N        co-located identical jobs (default 0)\n"
      "  --iterations N        training iterations (default 100)\n"
      "  --warmup N            iterations excluded from the measurement"
      " (default 20)\n"
      "  --micro-batches N     for synchronous schedules (default 4)\n"
      "  --batch N             mini-batch size (default: model's)\n"
      "  --bw-drop-iter N      change bandwidth mid-run at iteration N\n"
      "  --bw-drop-gbps GBPS   the new bandwidth for --bw-drop-iter\n"
      "  --jobs-iter N         add a tenant on every GPU at iteration N\n"
      "  --churn               stochastic background workload\n"
      "  --faults SPEC         inject faults; SPEC is 'random:key=v,...'\n"
      "                        (keys: seed,start,clear,gpus,links,flaps,\n"
      "                        stragglers,profiler_drops,min_outage,\n"
      "                        max_outage), '@file' with one\n"
      "                        '<time> <kind> <index> [scale]' per line, or\n"
      "                        the same lines inline separated by ';'\n"
      "                        (see docs/FAULTS.md)\n"
      "  --seed N              RNG seed (default 1)\n"
      "  --jobs-spec SPEC|@FILE\n"
      "                        co-tenancy mode: run N independent AutoPipe\n"
      "                        jobs on the shared cluster under a\n"
      "                        cluster-level arbiter. SPEC is 'key = value'\n"
      "                        statements ('job' declares one job; arbiter,\n"
      "                        claim-window, preempt are fleet-level); see\n"
      "                        docs/COTENANCY.md. Replaces the single-job\n"
      "                        run; --model/--system/--schedule are ignored\n"
      "  --trace PATH          write an event trace of the run; .json gives\n"
      "                        Chrome trace_event format (chrome://tracing,\n"
      "                        Perfetto), .txt/.trace the plain-text format\n"
      "                        (see docs/TRACING.md; analyze either text\n"
      "                        trace with the autopipe_trace tool)\n"
      "  --metrics PATH        write the run's full metrics registry (flat\n"
      "                        counters/gauges plus rolling-series .ema/\n"
      "                        .mean/.count keys) as one JSON object with\n"
      "                        stable key order\n"
      "  --ledger PATH         write the controller's decision ledger (one\n"
      "                        record per planning round; see\n"
      "                        docs/DECISIONS.md, analyze with\n"
      "                        autopipe_trace decisions / calibration)\n"
      "  --timeseries PATH[:INTERVAL]\n"
      "                        sample the full metrics registry every\n"
      "                        INTERVAL sim-seconds (default 1) into the\n"
      "                        columnar autopipe-ts-v1 format; analyze with\n"
      "                        autopipe_trace timeseries (docs/TELEMETRY.md)\n"
      "  --profile PATH        record the host self-profiler (where the\n"
      "                        tool itself spends wall time: planner,\n"
      "                        predictor, event queue); .json gives Chrome\n"
      "                        trace_event format, anything else the\n"
      "                        autopipe-prof-v1 text format for\n"
      "                        autopipe_trace profile\n"
      "  --verbose             debug logging\n\n"
      "Exit status: 0 on success, 1 when the run fails, 2 on a usage"
      " error.\n";
}

/// The scenario the flags describe. Only the flags the run uses are read,
/// so the rest warn as unknown: the single-job flags under --jobs-spec and
/// the pipeline's under --system baseline. Throws on a malformed value.
sweep::ScenarioSpec scenario_from_flags(const Flags& flags) {
  sweep::ScenarioSpec spec;
  spec.model = flags.get("model", "resnet50");
  spec.system = flags.get("system", "autopipe");
  spec.framework = flags.get("framework", "pytorch");
  spec.scheme = flags.get("scheme", "ring");
  spec.servers = flags.get_count("servers", 5);
  spec.gpus_per_server = flags.get_count("gpus-per-server", 2);
  spec.bandwidth_gbps = flags.get_double("bandwidth", 25);
  spec.extra_jobs = static_cast<int>(flags.get_int("extra-jobs", 0));
  spec.churn = flags.get_bool("churn", false);
  // The seed drives only the churn; without --churn it is unused.
  if (spec.churn)
    spec.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  spec.faults = flags.get("faults", "");

  const std::string jobs_spec = flags.get("jobs-spec", "");
  if (!jobs_spec.empty()) {
    spec.fleet = cluster::load_jobs_spec(jobs_spec);
    return spec;
  }
  spec.iterations = flags.get_count("iterations", 100);
  spec.warmup = flags.get_count("warmup", 20);
  spec.batch = flags.get_count("batch", 0);
  if (spec.system == "baseline") return spec;
  spec.schedule = flags.get("schedule", "1f1b");
  spec.micro_batches = flags.get_count("micro-batches", 4);
  if (flags.has("bw-drop-iter")) {
    spec.bw_drop_iter = flags.get_count("bw-drop-iter", 0);
    spec.bw_drop_gbps = flags.get_double("bw-drop-gbps", 10);
  }
  spec.jobs_iter = flags.get_count("jobs-iter", 0);
  return spec;
}

/// Write the requested files of the finished run; a traced run also
/// prints its bubble breakdown.
void emit_outputs(sim::Simulator& simulator, const sweep::RunOutputs& outputs,
                  const std::string& profile_path) {
  std::cout << outputs.write(simulator);
  if (!outputs.trace.empty()) {
    // Breakdown straight off the in-memory recorder — the same report
    // `autopipe_trace bubbles` would print from the file.
    const std::vector<trace::Event> events = simulator.tracer().events();
    const analysis::TraceView view(events);
    std::cout << analysis::render_bubbles_text(analysis::analyze(view));
  }
  sweep::write_profile(profile_path, std::cout);
}

void print_fleet_report(const cluster::FleetReport& fr) {
  TextTable jobs({"job", "model", "priority", "samples/s", "util", "commits",
                  "contention aborts", "finished at (s)"});
  for (const auto& j : fr.jobs) {
    jobs.add_row({std::to_string(j.id), j.model,
                  TextTable::num(j.priority, 2),
                  TextTable::num(j.report.throughput, 1),
                  TextTable::num(j.report.worker_utilization, 3),
                  std::to_string(j.commits),
                  std::to_string(j.contention_aborts),
                  TextTable::num(j.finished_at, 2)});
  }
  jobs.print(std::cout, "fleet: " + std::to_string(fr.jobs.size()) +
                            " job(s), " + fr.arbiter + " arbiter");

  TextTable summary({"metric", "value"});
  summary.add_row({"fleet throughput (samples/s)",
                   TextTable::num(fr.fleet_throughput, 1)});
  summary.add_row({"jain fairness", TextTable::num(fr.jain, 4)});
  summary.add_row({"claim rounds", std::to_string(fr.claim_rounds)});
  summary.add_row({"conflicts", std::to_string(fr.conflicts)});
  summary.add_row({"grants", std::to_string(fr.grants)});
  summary.add_row({"denials", std::to_string(fr.denials)});
  summary.add_row({"contention aborts",
                   std::to_string(fr.contention_aborts)});
  summary.print(std::cout, "autopipe_sim fleet report");
}

void print_report(sweep::Scenario& scenario, const sweep::ScenarioSpec& spec,
                  const sweep::ScenarioResult& result) {
  const pipeline::ExecutionReport& report = scenario.report();
  TextTable summary({"metric", "value"});
  summary.add_row({"model", scenario.model().name()});
  summary.add_row({"system", spec.system});
  summary.add_row({"initial partition", scenario.planned().to_string()});
  summary.add_row({"final partition",
                   scenario.executor()->current_partition().to_string()});
  summary.add_row({"throughput (samples/s)",
                   TextTable::num(result.throughput, 1)});
  if (report.iteration_end_times.size() > spec.warmup + 1) {
    summary.add_row({"iteration time p50 (ms)",
                     TextTable::num(result.iteration_p50_ms, 3)});
    summary.add_row({"iteration time p95 (ms)",
                     TextTable::num(result.iteration_p95_ms, 3)});
    summary.add_row({"iteration time p99 (ms)",
                     TextTable::num(result.iteration_p99_ms, 3)});
  }
  summary.add_row({"worker utilization",
                   TextTable::num(result.utilization, 3)});
  summary.add_row({"partition switches", std::to_string(result.switches)});
  summary.add_row({"bytes on wire (GB)",
                   TextTable::num(report.bytes_on_wire / 1e9, 2)});
  if (const core::AutoPipeController* controller = scenario.controller()) {
    const core::AutoPipeController::Stats& stats = controller->stats();
    summary.add_row({"decisions", std::to_string(stats.decisions)});
    summary.add_row({"changes detected",
                     std::to_string(stats.changes_detected)});
    summary.add_row({"decision host time (ms)",
                     TextTable::num(stats.total_decision_wall_seconds * 1e3,
                                    2)});
  }
  for (const auto& [name, value] : scenario.simulator().metrics().all())
    summary.add_row({name, TextTable::num(value, 3)});
  summary.print(std::cout, "autopipe_sim report");
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }
  if (flags.get_bool("verbose", false)) set_log_level(LogLevel::kDebug);

  // Fail on a malformed flag, an unwritable output path or a scenario the
  // builder rejects now, not after the whole run.
  sweep::ScenarioSpec spec;
  const sweep::RunOutputs outputs(flags);
  const std::string profile_path = flags.get("profile", "");
  std::optional<sweep::Scenario> scenario;
  try {
    spec = scenario_from_flags(flags);
    outputs.check_writable();
    sweep::start_profile(profile_path);
    scenario.emplace(spec, outputs);
  } catch (const std::exception& e) {
    std::cerr << "autopipe_sim: " << e.what() << "\n";
    return 2;
  }
  if (!spec.faults.empty()) {
    std::cout << "faults: " << scenario->fault_plan().size()
              << " scheduled events (horizon "
              << TextTable::num(scenario->fault_plan().horizon(), 2)
              << "s)\n";
  }
  for (const std::string& flag : flags.unused())
    std::cerr << "warning: unknown flag --" << flag << " (see --help)\n";

  // A run that fails (e.g. a pipeline deadlock) exits 1; 2 stays for the
  // usage errors above.
  sweep::ScenarioResult result;
  try {
    result = scenario->run();
    emit_outputs(scenario->simulator(), outputs, profile_path);
  } catch (const std::exception& e) {
    std::cerr << "autopipe_sim: " << e.what() << "\n";
    return 1;
  }
  if (!spec.fleet.jobs.empty()) {
    print_fleet_report(result.fleet);
  } else if (spec.system == "baseline") {
    std::cout << "data-parallel baseline: "
              << TextTable::num(result.throughput, 1) << " samples/s over "
              << spec.iterations << " iterations\n";
  } else {
    print_report(*scenario, spec, result);
  }
  return 0;
}
