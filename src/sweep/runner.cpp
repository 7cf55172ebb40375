#include "sweep/runner.hpp"

#include <chrono>
#include <vector>

#include "common/expect.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "models/zoo.hpp"
#include "partition/pipedream_planner.hpp"
#include "sweep/outputs.hpp"

namespace autopipe::sweep {

namespace {

/// The files a scenario writes as `<directory>/<label>.*`; none when no
/// directory was given. Only runs that make decisions write a ledger.
RunOutputs scenario_outputs(const ScenarioSpec& spec,
                            const ArtifactOptions& artifacts) {
  RunOutputs outputs;
  if (artifacts.directory.empty()) return outputs;
  const std::string base = artifacts.directory + "/" + spec.label;
  outputs.trace = base + ".trace";
  outputs.metrics = base + ".metrics.json";
  if (!spec.fleet.jobs.empty() || spec.system == "autopipe")
    outputs.ledger = base + ".ledger";
  if (artifacts.timeseries_interval > 0.0) {
    outputs.timeseries = base + ".ts";
    outputs.timeseries_interval = artifacts.timeseries_interval;
  }
  return outputs;
}

std::vector<sim::WorkerId> all_workers(const sim::Cluster& cluster) {
  std::vector<sim::WorkerId> all(cluster.num_workers());
  for (sim::WorkerId w = 0; w < all.size(); ++w) all[w] = w;
  return all;
}

}  // namespace

Scenario::Scenario(const ScenarioSpec& spec, const RunOutputs& outputs)
    : spec_(spec),
      model_(models::model_by_name(spec.model)),
      churn_(sim::BackgroundWorkloadConfig{}, Rng(spec.seed)) {
  outputs.enable(simulator_);
  cluster_ = std::make_unique<sim::Cluster>(
      simulator_,
      sim::ClusterConfig{.num_servers = spec.servers,
                         .gpus_per_server = spec.gpus_per_server,
                         .nic_bandwidth = gbps(spec.bandwidth_gbps)});
  for (int j = 0; j < spec.extra_jobs; ++j)
    for (sim::WorkerId w = 0; w < cluster_->num_workers(); ++w)
      cluster_->add_background_job(w);
  if (spec.churn) churn_.install(simulator_, *cluster_);

  if (!spec.fleet.jobs.empty()) {
    cluster::FleetSpec fleet = spec.fleet;
    cluster::assign_default_workers(fleet, cluster_->num_workers());
    install_faults();
    fleet_ = std::make_unique<cluster::JobManager>(simulator_, *cluster_,
                                                   std::move(fleet));
    return;
  }

  const comm::FrameworkProfile framework =
      comm::framework_by_name(spec.framework);
  const comm::SyncScheme scheme = spec.scheme == "ps"
                                      ? comm::SyncScheme::kParameterServer
                                      : comm::SyncScheme::kRing;
  if (spec.system == "baseline") {
    AUTOPIPE_EXPECT_MSG(spec.faults.empty(),
                        "system baseline takes no fault plan: the "
                        "data-parallel baseline has no recovery path");
    baseline_ = baselines::DataParallelConfig{spec.batch, framework, scheme};
    return;
  }

  const auto env =
      partition::EnvironmentView::from_cluster(*cluster_, framework, scheme);
  partition::PipeDreamPlanner planner(model_, env,
                                      model_.default_batch_size());
  planned_ = planner.plan(cluster_->num_workers()).partition;
  pipeline::ExecutorConfig executor_config;
  executor_config.framework = framework;
  executor_config.sync_scheme = scheme;
  executor_config.mode = pipeline::schedule_by_name(spec.schedule);
  executor_config.micro_batches = spec.micro_batches;
  executor_config.batch_size = spec.batch;
  executor_ = std::make_unique<pipeline::PipelineExecutor>(
      *cluster_, model_,
      spec.system == "even" ? partition::Partition::even_split(
                                  model_.num_layers(), all_workers(*cluster_))
                            : *planned_,
      executor_config);

  if (spec.system == "autopipe") {
    core::ControllerConfig cc;
    cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
    cc.use_meta_network = false;
    controller_ = std::make_unique<core::AutoPipeController>(
        *cluster_, *executor_, cc, nullptr, nullptr);
    controller_->attach();
  }
  if (spec.bw_drop_iter > 0) {
    resource_changes_.at_iteration(
        spec.bw_drop_iter, sim::ResourceTrace::set_all_nic_bandwidth(
                               gbps(spec.bw_drop_gbps)));
  }
  if (spec.jobs_iter > 0) {
    resource_changes_.at_iteration(spec.jobs_iter,
                                   sim::ResourceTrace::add_job_all_gpus());
  }
  executor_->set_iteration_callback([this](std::size_t iterations) {
    resource_changes_.apply_iteration(iterations, *cluster_);
    if (controller_) controller_->on_iteration(iterations);
  });
  install_faults();
}

void Scenario::install_faults() {
  if (spec_.faults.empty()) return;
  fault_plan_ = faults::parse_spec(spec_.faults, spec_.servers,
                                   spec_.gpus_per_server);
  fault_plan_.install(simulator_, *cluster_,
                      [](const faults::FaultEvent& ev) {
                        LOG_DEBUG("fault: " << ev.describe());
                      });
}

ScenarioResult Scenario::run() {
  ScenarioResult result;
  Histogram iteration_times;
  const auto add_iteration_times = [&](const pipeline::ExecutionReport& report,
                                       std::size_t warmup) {
    const std::vector<Seconds>& ends = report.iteration_end_times;
    for (std::size_t i = warmup + 1; i < ends.size(); ++i)
      iteration_times.add(ends[i] - ends[i - 1]);
  };

  if (fleet_) {
    result.fleet = fleet_->run();
    result.throughput = result.fleet.fleet_throughput;
    result.batch = fleet_->job(0).executor->batch_size();
    for (std::size_t i = 0; i < fleet_->num_jobs(); ++i) {
      const cluster::JobRuntime& job = fleet_->job(i);
      result.utilization += job.report.worker_utilization;
      result.switches += job.executor->switches_performed();
      result.switch_aborts += job.executor->switches_aborted();
      add_iteration_times(job.report, job.spec.warmup);
    }
    result.utilization /= static_cast<double>(fleet_->num_jobs());
  } else {
    report_ = baseline_ ? baselines::run_data_parallel(
                              *cluster_, model_, all_workers(*cluster_),
                              spec_.iterations, spec_.warmup, *baseline_)
                        : executor_->run(spec_.iterations, spec_.warmup);
    result.throughput = report_.throughput;
    result.utilization = report_.worker_utilization;
    result.batch = report_.batch_size;
    if (executor_) {
      result.switches = executor_->switches_performed();
      result.switch_aborts = executor_->switches_aborted();
    }
    add_iteration_times(report_, spec_.warmup);
  }
  result.events = simulator_.events_processed();
  if (!iteration_times.empty()) {
    const Histogram::Summary s = iteration_times.summary();
    result.iteration_p50_ms = s.p50 * 1e3;
    result.iteration_p95_ms = s.p95 * 1e3;
    result.iteration_p99_ms = s.p99 * 1e3;
  }
  return result;
}

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const ArtifactOptions& artifacts) {
  const auto start = std::chrono::steady_clock::now();
  ScenarioResult result;
  try {
    const RunOutputs outputs = scenario_outputs(spec, artifacts);
    Scenario scenario(spec, outputs);
    result = scenario.run();
    outputs.write(scenario.simulator());
    result.trace_file = outputs.trace;
    result.metrics_file = outputs.metrics;
    result.ledger_file = outputs.ledger;
    result.timeseries_file = outputs.timeseries;
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  result.spec = spec;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace autopipe::sweep
