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
#include <iostream>
#include <memory>

#include "analysis/report.hpp"
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
#include "sweep/outputs.hpp"

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

/// Write the requested files of the finished run; a traced run also
/// prints its bubble breakdown. Shared by the single-job and --jobs-spec
/// fleet paths so both emit identical artifact formats.
void emit_outputs(sim::Simulator& simulator, const sweep::RunOutputs& outputs,
                  const std::string& profile_path) {
  std::cout << outputs.write(simulator);
  if (!outputs.trace.empty()) {
    // Breakdown straight off the in-memory recorder — the same report
    // `autopipe_trace bubbles` would print from the file.
    const analysis::TraceView view(simulator.tracer().events());
    std::cout << analysis::render_bubbles_text(analysis::analyze(view));
  }
  sweep::write_profile(profile_path, std::cout);
}

/// Co-tenancy mode: the whole fleet run, from parsed spec to summary
/// tables. Returns the process exit code.
int run_fleet(sim::Simulator& simulator, sim::Cluster& cluster,
              const cluster::FleetSpec& fleet,
              const sweep::RunOutputs& outputs,
              const std::string& profile_path) {
  cluster::JobManager manager(simulator, cluster, fleet);
  const cluster::FleetReport fr = manager.run();

  emit_outputs(simulator, outputs, profile_path);

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

  // Fail on an unwritable output path now, not after the whole run.
  const sweep::RunOutputs outputs(flags);
  const std::string profile_path = flags.get("profile", "");
  try {
    outputs.check_writable();
    sweep::start_profile(profile_path);
  } catch (const std::exception& e) {
    std::cerr << "autopipe_sim: " << e.what() << "\n";
    return 2;
  }
  sim::Simulator simulator;
  outputs.enable(simulator);
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
    return run_fleet(simulator, cluster, fleet, outputs, profile_path);
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

  emit_outputs(simulator, outputs, profile_path);

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
