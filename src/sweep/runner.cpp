#include "sweep/runner.hpp"

#include <chrono>
#include <memory>
#include <sstream>

#include "autopipe/controller.hpp"
#include "cluster/job_manager.hpp"
#include "cluster/jobs_spec.hpp"
#include "common/stats.hpp"
#include "faults/fault_plan.hpp"
#include "models/zoo.hpp"
#include "partition/pipedream_planner.hpp"
#include "pipeline/executor.hpp"
#include "sim/background.hpp"
#include "sim/cluster.hpp"
#include "sweep/outputs.hpp"

namespace autopipe::sweep {

namespace {

/// The files a scenario writes as `<directory>/<label>.*`; none when no
/// directory was given. Only runs that make decisions write a ledger.
RunOutputs scenario_outputs(const ScenarioSpec& spec,
                            const ArtifactOptions& artifacts,
                            bool with_ledger) {
  RunOutputs outputs;
  if (artifacts.directory.empty()) return outputs;
  const std::string base = artifacts.directory + "/" + spec.label;
  outputs.trace = base + ".trace";
  outputs.metrics = base + ".metrics.json";
  if (with_ledger) outputs.ledger = base + ".ledger";
  if (artifacts.timeseries_interval > 0.0) {
    outputs.timeseries = base + ".ts";
    outputs.timeseries_interval = artifacts.timeseries_interval;
  }
  return outputs;
}

void write_outputs(sim::Simulator& simulator, const RunOutputs& outputs,
                   ScenarioResult& result) {
  outputs.write(simulator);
  result.trace_file = outputs.trace;
  result.metrics_file = outputs.metrics;
  result.ledger_file = outputs.ledger;
  result.timeseries_file = outputs.timeseries;
}

/// The per-job model cycle of a fleet scenario: job-models entries cycled
/// across jobs, falling back to the scenario's single model.
std::vector<std::string> fleet_model_cycle(const ScenarioSpec& spec) {
  std::vector<std::string> mix;
  std::istringstream parts(spec.job_models);
  std::string part;
  while (std::getline(parts, part, '+')) {
    // Trim (the spec parser validated the names already).
    const std::size_t b = part.find_first_not_of(" \t");
    const std::size_t e = part.find_last_not_of(" \t");
    if (b != std::string::npos) mix.push_back(part.substr(b, e - b + 1));
  }
  if (mix.empty()) mix.push_back(spec.model);
  return mix;
}

/// Co-tenant scenario: spec.jobs independent AutoPipe jobs on one cluster,
/// driven by a JobManager (src/cluster/) under the scenario's arbiter.
void run_fleet_body(const ScenarioSpec& spec, const ArtifactOptions& artifacts,
                    ScenarioResult& result) {
  const RunOutputs outputs = scenario_outputs(spec, artifacts, true);
  sim::Simulator simulator;
  outputs.enable(simulator);

  sim::ClusterConfig cluster_config;
  cluster_config.num_servers = spec.servers;
  cluster_config.gpus_per_server = spec.gpus_per_server;
  cluster_config.nic_bandwidth = gbps(spec.bandwidth_gbps);
  sim::Cluster cluster(simulator, cluster_config);

  for (int j = 0; j < spec.extra_jobs; ++j)
    for (sim::WorkerId w = 0; w < cluster.num_workers(); ++w)
      cluster.add_background_job(w);

  sim::BackgroundWorkload churn(
      [] {
        sim::BackgroundWorkloadConfig config;
        config.horizon = 600.0;
        return config;
      }(),
      Rng(spec.seed));
  if (spec.churn) churn.install(simulator, cluster);

  faults::FaultPlan fault_plan;
  if (!spec.faults.empty()) {
    fault_plan = faults::parse_spec(spec.faults, spec.servers,
                                    spec.gpus_per_server);
    fault_plan.install(simulator, cluster);
  }

  cluster::FleetSpec fleet;
  fleet.arbiter = spec.arbiter;
  const auto mix = fleet_model_cycle(spec);
  for (std::size_t k = 0; k < spec.jobs; ++k) {
    cluster::JobSpec job;
    job.model = mix[k % mix.size()];
    job.iterations = spec.iterations;
    job.warmup = spec.warmup;
    fleet.jobs.push_back(std::move(job));
  }
  cluster::assign_default_workers(fleet, cluster.num_workers());

  cluster::JobManager manager(simulator, cluster, fleet);
  const cluster::FleetReport fleet_report = manager.run();

  result.throughput = fleet_report.fleet_throughput;
  result.fleet_jain = fleet_report.jain;
  result.fleet_conflicts = fleet_report.conflicts;
  result.fleet_grants = fleet_report.grants;
  result.fleet_contention_aborts = fleet_report.contention_aborts;
  result.events = simulator.events_processed();
  result.batch = manager.job(0).executor->batch_size();

  double utilization = 0.0;
  Histogram iteration_times;
  for (std::size_t i = 0; i < manager.num_jobs(); ++i) {
    const cluster::JobRuntime& job = manager.job(i);
    utilization += job.report.worker_utilization;
    result.switches += job.executor->switches_performed();
    result.switch_aborts += job.executor->switches_aborted();
    result.job_throughputs.push_back(job.report.throughput);
    const auto& ends = job.report.iteration_end_times;
    for (std::size_t n = spec.warmup + 1; n < ends.size(); ++n)
      iteration_times.add(ends[n] - ends[n - 1]);
  }
  result.utilization = utilization / static_cast<double>(manager.num_jobs());
  if (!iteration_times.empty()) {
    const Histogram::Summary s = iteration_times.summary();
    result.iteration_p50_ms = s.p50 * 1e3;
    result.iteration_p95_ms = s.p95 * 1e3;
    result.iteration_p99_ms = s.p99 * 1e3;
  }

  write_outputs(simulator, outputs, result);
}

void run_body(const ScenarioSpec& spec, const ArtifactOptions& artifacts,
              ScenarioResult& result) {
  if (spec.jobs > 1) {
    run_fleet_body(spec, artifacts, result);
    return;
  }
  const auto model = models::model_by_name(spec.model);

  const RunOutputs outputs =
      scenario_outputs(spec, artifacts, spec.system == "autopipe");
  sim::Simulator simulator;
  outputs.enable(simulator);

  sim::ClusterConfig cluster_config;
  cluster_config.num_servers = spec.servers;
  cluster_config.gpus_per_server = spec.gpus_per_server;
  cluster_config.nic_bandwidth = gbps(spec.bandwidth_gbps);
  sim::Cluster cluster(simulator, cluster_config);

  for (int j = 0; j < spec.extra_jobs; ++j)
    for (sim::WorkerId w = 0; w < cluster.num_workers(); ++w)
      cluster.add_background_job(w);

  // The churn schedule is pre-materialized at install time from an Rng
  // seeded by the scenario alone; the workload object outlives the run.
  sim::BackgroundWorkload churn(
      [] {
        sim::BackgroundWorkloadConfig config;
        config.horizon = 600.0;
        return config;
      }(),
      Rng(spec.seed));
  if (spec.churn) churn.install(simulator, cluster);

  faults::FaultPlan fault_plan;
  if (!spec.faults.empty()) {
    fault_plan = faults::parse_spec(spec.faults, spec.servers,
                                    spec.gpus_per_server);
    fault_plan.install(simulator, cluster);
  }

  const auto env = partition::EnvironmentView::from_cluster(
      cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
  partition::PipeDreamPlanner planner(model, env,
                                      model.default_batch_size());
  const auto plan = planner.plan(cluster.num_workers());
  const auto partition =
      spec.system == "even"
          ? partition::Partition::even_split(
                model.num_layers(),
                [&] {
                  std::vector<sim::WorkerId> all(cluster.num_workers());
                  for (sim::WorkerId w = 0; w < all.size(); ++w) all[w] = w;
                  return all;
                }())
          : plan.partition;

  pipeline::ExecutorConfig executor_config;
  executor_config.framework = comm::pytorch_profile();
  executor_config.sync_scheme = comm::SyncScheme::kRing;
  executor_config.mode = pipeline::schedule_by_name(spec.schedule);
  executor_config.micro_batches = spec.micro_batches;
  pipeline::PipelineExecutor executor(cluster, model, partition,
                                      executor_config);

  std::unique_ptr<core::AutoPipeController> controller;
  if (spec.system == "autopipe") {
    core::ControllerConfig cc;
    cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
    cc.use_meta_network = false;
    controller = std::make_unique<core::AutoPipeController>(
        cluster, executor, cc, nullptr, nullptr);
    controller->attach();
    executor.set_iteration_callback(
        [&](std::size_t iters) { controller->on_iteration(iters); });
  }

  const auto report = executor.run(spec.iterations, spec.warmup);

  result.throughput = report.throughput;
  result.utilization = report.worker_utilization;
  result.batch = executor.batch_size();
  result.switches = executor.switches_performed();
  result.switch_aborts = executor.switches_aborted();
  result.events = simulator.events_processed();

  Histogram iteration_times;
  for (std::size_t i = spec.warmup + 1;
       i < report.iteration_end_times.size(); ++i) {
    iteration_times.add(report.iteration_end_times[i] -
                        report.iteration_end_times[i - 1]);
  }
  if (!iteration_times.empty()) {
    const Histogram::Summary s = iteration_times.summary();
    result.iteration_p50_ms = s.p50 * 1e3;
    result.iteration_p95_ms = s.p95 * 1e3;
    result.iteration_p99_ms = s.p99 * 1e3;
  }

  write_outputs(simulator, outputs, result);
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const ArtifactOptions& artifacts) {
  ScenarioResult result;
  result.spec = spec;
  const auto start = std::chrono::steady_clock::now();
  try {
    run_body(spec, artifacts, result);
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace autopipe::sweep
