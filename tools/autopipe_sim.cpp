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
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <utility>

#include "analysis/json.hpp"
#include "analysis/report.hpp"
#include "common/profile.hpp"
#include "analysis/trace_view.hpp"
#include "autopipe/controller.hpp"
#include "baselines/data_parallel.hpp"
#include "cluster/job_manager.hpp"
#include "cluster/jobs_spec.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "faults/fault_plan.hpp"
#include "models/zoo.hpp"
#include "partition/pipedream_planner.hpp"
#include "pipeline/executor.hpp"
#include "sim/background.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"

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
      "  --verbose             debug logging\n";
}

// Split "PATH[:INTERVAL]". The suffix after the last ':' is an interval
// only when it parses fully as a positive number, so paths that happen to
// contain colons keep working.
std::pair<std::string, double> split_timeseries_spec(const std::string& spec) {
  const std::string::size_type colon = spec.rfind(':');
  if (colon != std::string::npos && colon + 1 < spec.size()) {
    char* end = nullptr;
    const double v = std::strtod(spec.c_str() + colon + 1, &end);
    if (end != nullptr && *end == '\0' && v > 0.0)
      return {spec.substr(0, colon), v};
  }
  return {spec, 1.0};
}

/// Output files requested on the command line; empty path = not requested.
struct OutputPaths {
  std::string trace;
  std::string metrics;
  std::string ledger;
  std::string timeseries;
  std::string profile;
  double timeseries_interval = 1.0;
};

/// Serialize whatever outputs were requested. Shared by the single-job and
/// --jobs-spec fleet paths so both emit identical artifact formats.
void emit_outputs(sim::Simulator& simulator, const OutputPaths& paths) {
  if (!paths.trace.empty()) {
    std::ofstream out(paths.trace);
    AUTOPIPE_EXPECT_MSG(out.good(), "cannot open trace file " << paths.trace);
    const bool text =
        paths.trace.size() >= 4 &&
        (paths.trace.rfind(".txt") == paths.trace.size() - 4 ||
         (paths.trace.size() >= 6 &&
          paths.trace.rfind(".trace") == paths.trace.size() - 6));
    if (text) {
      simulator.tracer().write_text(out);
    } else {
      simulator.tracer().write_chrome_json(out);
    }
    std::cout << "trace: " << simulator.tracer().size() << " events -> "
              << paths.trace << "\n";
    // Breakdown straight off the in-memory recorder — the same report
    // `autopipe_trace bubbles` would print from the file.
    const analysis::TraceView view(simulator.tracer().events());
    std::cout << analysis::render_bubbles_text(analysis::analyze(view));
  }

  if (!paths.metrics.empty()) {
    std::ofstream out(paths.metrics);
    AUTOPIPE_EXPECT_MSG(out.good(),
                        "cannot open metrics file " << paths.metrics);
    const auto flattened = simulator.metrics().flattened();
    analysis::write_scalar_map_json(flattened, out);
    std::cout << "metrics: " << flattened.size() << " values -> "
              << paths.metrics << "\n";
  }

  if (!paths.ledger.empty()) {
    // Terminal-state any decision still mid-measurement, then serialize.
    simulator.ledger().finalize("run_end");
    std::ofstream out(paths.ledger);
    AUTOPIPE_EXPECT_MSG(out.good(),
                        "cannot open ledger file " << paths.ledger);
    simulator.ledger().write_text(out);
    std::cout << "ledger: " << simulator.ledger().size() << " decisions -> "
              << paths.ledger << "\n";
  }

  if (!paths.timeseries.empty()) {
    simulator.timeseries().finalize(simulator.now(), simulator.metrics());
    std::ofstream out(paths.timeseries);
    AUTOPIPE_EXPECT_MSG(out.good(),
                        "cannot open timeseries file " << paths.timeseries);
    simulator.timeseries().write_text(out);
    std::cout << "timeseries: " << simulator.timeseries().size()
              << " samples every "
              << TextTable::num(paths.timeseries_interval, 3) << "s -> "
              << paths.timeseries << "\n";
  }

  if (!paths.profile.empty()) {
    prof::set_enabled(false);
    const std::vector<prof::ThreadProfile> profiles = prof::collect();
    std::ofstream out(paths.profile);
    AUTOPIPE_EXPECT_MSG(out.good(),
                        "cannot open profile file " << paths.profile);
    const bool json =
        paths.profile.size() >= 5 &&
        paths.profile.rfind(".json") == paths.profile.size() - 5;
    if (json) {
      prof::write_chrome_json(profiles, out);
    } else {
      prof::write_text(profiles, out);
    }
    std::size_t spans = 0;
    for (const prof::ThreadProfile& tp : profiles)
      spans += tp.spans.size() + tp.aggregates.size();
    std::cout << "profile: " << spans << " span record(s) across "
              << profiles.size() << " thread(s) -> " << paths.profile << "\n";
  }
}

/// Co-tenancy mode: the whole fleet run, from parsed spec to summary
/// tables. Returns the process exit code.
int run_fleet(sim::Simulator& simulator, sim::Cluster& cluster,
              const cluster::FleetSpec& fleet, const OutputPaths& paths) {
  cluster::JobManager manager(simulator, cluster, fleet);
  const cluster::FleetReport fr = manager.run();

  emit_outputs(simulator, paths);

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
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }
  if (flags.get_bool("verbose", false)) set_log_level(LogLevel::kDebug);

  const auto model = models::model_by_name(flags.get("model", "resnet50"));
  const std::string system = flags.get("system", "autopipe");
  const auto framework =
      comm::framework_by_name(flags.get("framework", "pytorch"));
  const auto scheme = flags.get("scheme", "ring") == "ps"
                          ? comm::SyncScheme::kParameterServer
                          : comm::SyncScheme::kRing;

  sim::Simulator simulator;
  const std::string trace_path = flags.get("trace", "");
  const std::string metrics_path = flags.get("metrics", "");
  const std::string ledger_path = flags.get("ledger", "");
  // Fail on an unwritable output path now, not after the whole run.
  const auto expect_writable = [](const std::string& path, const char* what) {
    std::ofstream probe(path);
    if (!probe.good()) {
      std::cerr << "autopipe_sim: cannot open " << what << " file: " << path
                << "\n";
      std::exit(2);
    }
  };
  if (!trace_path.empty()) {
    expect_writable(trace_path, "trace");
    simulator.tracer().set_enabled(true);
  }
  if (!metrics_path.empty()) expect_writable(metrics_path, "metrics");
  if (!ledger_path.empty()) {
    expect_writable(ledger_path, "ledger");
    simulator.ledger().set_enabled(true);
  }
  std::string timeseries_path;
  double timeseries_interval = 1.0;
  if (flags.has("timeseries")) {
    std::tie(timeseries_path, timeseries_interval) =
        split_timeseries_spec(flags.get("timeseries", ""));
    expect_writable(timeseries_path, "timeseries");
    simulator.timeseries().configure(timeseries_interval);
  }
  const std::string profile_path = flags.get("profile", "");
  if (!profile_path.empty()) {
    expect_writable(profile_path, "profile");
    prof::reset();
    prof::set_enabled(true);
  }
  const OutputPaths outputs{trace_path,      metrics_path, ledger_path,
                            timeseries_path, profile_path, timeseries_interval};
  sim::ClusterConfig cluster_config;
  cluster_config.num_servers =
      static_cast<std::size_t>(flags.get_int("servers", 5));
  cluster_config.gpus_per_server =
      static_cast<std::size_t>(flags.get_int("gpus-per-server", 2));
  cluster_config.nic_bandwidth = gbps(flags.get_double("bandwidth", 25));
  sim::Cluster cluster(simulator, cluster_config);

  const auto extra_jobs = flags.get_int("extra-jobs", 0);
  for (std::int64_t j = 0; j < extra_jobs; ++j) {
    for (sim::WorkerId w = 0; w < cluster.num_workers(); ++w)
      cluster.add_background_job(w);
  }
  if (flags.get_bool("churn", false)) {
    sim::BackgroundWorkloadConfig churn;
    churn.horizon = 600.0;
    static sim::BackgroundWorkload background(
        churn, Rng(static_cast<std::uint64_t>(flags.get_int("seed", 1))));
    background.install(simulator, cluster);
  }

  // Co-tenancy mode: --jobs-spec replaces the single-job pipeline below
  // with a JobManager fleet. Shares the cluster/churn/fault environment and
  // all --trace/--metrics/--ledger/--timeseries/--profile outputs.
  const std::string jobs_spec_arg = flags.get("jobs-spec", "");
  if (!jobs_spec_arg.empty()) {
    cluster::FleetSpec fleet;
    try {
      fleet = cluster::load_jobs_spec(jobs_spec_arg);
      cluster::assign_default_workers(fleet, cluster.num_workers());
    } catch (const std::exception& e) {
      std::cerr << "autopipe_sim: bad --jobs-spec: " << e.what() << "\n";
      return 2;
    }
    faults::FaultPlan fleet_faults;
    const std::string fleet_fault_spec = flags.get("faults", "");
    if (!fleet_fault_spec.empty()) {
      try {
        fleet_faults = faults::parse_spec(fleet_fault_spec,
                                          cluster_config.num_servers,
                                          cluster_config.gpus_per_server);
      } catch (const std::exception& e) {
        std::cerr << "autopipe_sim: bad --faults spec: " << e.what() << "\n";
        return 2;
      }
      fleet_faults.install(simulator, cluster,
                           [](const faults::FaultEvent& ev) {
                             LOG_DEBUG("fault: " << ev.describe());
                           });
      std::cout << "faults: " << fleet_faults.size()
                << " scheduled events (horizon "
                << TextTable::num(fleet_faults.horizon(), 2) << "s)\n";
    }
    for (const std::string& flag : flags.unused())
      std::cerr << "warning: unknown flag --" << flag << " (see --help)\n";
    return run_fleet(simulator, cluster, fleet, outputs);
  }

  const auto iterations =
      static_cast<std::size_t>(flags.get_int("iterations", 100));
  const auto warmup = static_cast<std::size_t>(flags.get_int("warmup", 20));

  // Baseline short-circuits: plain data parallelism.
  if (system == "baseline") {
    baselines::DataParallelConfig dp;
    dp.framework = framework;
    dp.sync_scheme = scheme;
    dp.batch_size = static_cast<std::size_t>(flags.get_int("batch", 0));
    std::vector<sim::WorkerId> all(cluster.num_workers());
    for (sim::WorkerId w = 0; w < all.size(); ++w) all[w] = w;
    const auto report = baselines::run_data_parallel(
        cluster, model, all, iterations, warmup, dp);
    std::cout << "data-parallel baseline: "
              << TextTable::num(report.throughput, 1) << " samples/s over "
              << iterations << " iterations\n";
    return 0;
  }

  // Plan.
  const auto env = partition::EnvironmentView::from_cluster(
      cluster, framework, scheme);
  partition::PipeDreamPlanner planner(model, env,
                                      model.default_batch_size());
  const auto plan = planner.plan(cluster.num_workers());
  const auto partition =
      system == "even" ? partition::Partition::even_split(
                             model.num_layers(),
                             [&] {
                               std::vector<sim::WorkerId> all(
                                   cluster.num_workers());
                               for (sim::WorkerId w = 0; w < all.size(); ++w)
                                 all[w] = w;
                               return all;
                             }())
                       : plan.partition;

  pipeline::ExecutorConfig executor_config;
  executor_config.framework = framework;
  executor_config.sync_scheme = scheme;
  executor_config.mode =
      pipeline::schedule_by_name(flags.get("schedule", "1f1b"));
  executor_config.micro_batches =
      static_cast<std::size_t>(flags.get_int("micro-batches", 4));
  executor_config.batch_size =
      static_cast<std::size_t>(flags.get_int("batch", 0));
  pipeline::PipelineExecutor executor(cluster, model, partition,
                                      executor_config);

  std::unique_ptr<core::AutoPipeController> controller;
  if (system == "autopipe") {
    core::ControllerConfig cc;
    cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
    cc.use_meta_network = false;
    controller = std::make_unique<core::AutoPipeController>(
        cluster, executor, cc, nullptr, nullptr);
    controller->attach();
  }

  sim::ResourceTrace trace;
  if (flags.has("bw-drop-iter")) {
    trace.at_iteration(
        static_cast<std::size_t>(flags.get_int("bw-drop-iter", 0)),
        sim::ResourceTrace::set_all_nic_bandwidth(
            gbps(flags.get_double("bw-drop-gbps", 10))));
  }
  if (flags.has("jobs-iter")) {
    trace.at_iteration(
        static_cast<std::size_t>(flags.get_int("jobs-iter", 0)),
        sim::ResourceTrace::add_job_all_gpus());
  }
  executor.set_iteration_callback([&](std::size_t iters) {
    trace.apply_iteration(iters, cluster);
    if (controller) controller->on_iteration(iters);
  });

  faults::FaultPlan fault_plan;
  const std::string faults_spec = flags.get("faults", "");
  if (!faults_spec.empty()) {
    try {
      fault_plan = faults::parse_spec(faults_spec, cluster_config.num_servers,
                                      cluster_config.gpus_per_server);
    } catch (const std::exception& e) {
      std::cerr << "autopipe_sim: bad --faults spec: " << e.what() << "\n";
      return 2;
    }
    fault_plan.install(simulator, cluster,
                       [](const faults::FaultEvent& ev) {
                         LOG_DEBUG("fault: " << ev.describe());
                       });
    std::cout << "faults: " << fault_plan.size()
              << " scheduled events (horizon "
              << TextTable::num(fault_plan.horizon(), 2) << "s)\n";
  }

  for (const std::string& flag : flags.unused()) {
    std::cerr << "warning: unknown flag --" << flag << " (see --help)\n";
  }

  const auto report = executor.run(iterations, warmup);

  emit_outputs(simulator, outputs);

  TextTable summary({"metric", "value"});
  summary.add_row({"model", model.name()});
  summary.add_row({"system", system});
  summary.add_row({"initial partition", plan.partition.to_string()});
  summary.add_row({"final partition",
                   executor.current_partition().to_string()});
  summary.add_row({"throughput (samples/s)",
                   TextTable::num(report.throughput, 1)});
  Histogram iter_times;
  for (std::size_t i = warmup + 1; i < report.iteration_end_times.size();
       ++i) {
    iter_times.add(report.iteration_end_times[i] -
                   report.iteration_end_times[i - 1]);
  }
  if (!iter_times.empty()) {
    const Histogram::Summary s = iter_times.summary();
    summary.add_row({"iteration time p50 (ms)", TextTable::num(s.p50 * 1e3, 3)});
    summary.add_row({"iteration time p95 (ms)", TextTable::num(s.p95 * 1e3, 3)});
    summary.add_row({"iteration time p99 (ms)", TextTable::num(s.p99 * 1e3, 3)});
  }
  summary.add_row({"worker utilization",
                   TextTable::num(report.worker_utilization, 3)});
  summary.add_row({"partition switches",
                   std::to_string(executor.switches_performed())});
  summary.add_row({"bytes on wire (GB)",
                   TextTable::num(report.bytes_on_wire / 1e9, 2)});
  if (controller) {
    summary.add_row({"decisions",
                     std::to_string(controller->stats().decisions)});
    summary.add_row({"changes detected",
                     std::to_string(controller->stats().changes_detected)});
    summary.add_row(
        {"decision host time (ms)",
         TextTable::num(
             controller->stats().total_decision_wall_seconds * 1e3, 2)});
  }
  for (const auto& [name, value] : simulator.metrics().all())
    summary.add_row({name, TextTable::num(value, 3)});
  summary.print(std::cout, "autopipe_sim report");
  return 0;
}
