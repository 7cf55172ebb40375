#include "bench_common.hpp"

#include <atomic>
#include <iostream>

#include "analysis/report.hpp"
#include "analysis/trace_view.hpp"
#include "common/expect.hpp"
#include "partition/analytic_eval.hpp"
#include "partition/neighborhood.hpp"
#include "sweep/engine.hpp"
#include "sweep/outputs.hpp"

namespace autopipe::bench {

namespace {
sweep::RunOutputs g_outputs;
std::string g_profile_path;
std::size_t g_jobs = 1;
}  // namespace

Flags parse_common_flags(int argc, const char* const* argv) {
  Flags flags(argc, argv);
  g_outputs = sweep::RunOutputs(flags);
  g_jobs = flags.get_count("jobs", 1);
  g_profile_path = flags.get("profile", "");
  sweep::start_profile(g_profile_path);
  return flags;
}

void for_each_scenario(std::size_t count,
                       const std::function<void(std::size_t)>& body) {
  sweep::run_indexed(count, g_jobs, body);
}

void write_outputs(Testbed& testbed, const std::string& label) {
  sim::Simulator& simulator = *testbed.simulator;
  std::cout << g_outputs.write(simulator, label);
  if (g_outputs.trace.empty()) return;
  TextTable metrics_table({"metric", "value"});
  for (const auto& [name, value] : simulator.metrics().all())
    metrics_table.add_row({name, TextTable::num(value, 3)});
  if (!simulator.metrics().all().empty())
    metrics_table.print(std::cout, "run metrics");

  // The analyzer runs straight off the in-memory recorder, so every
  // traced bench run reports where its GPU seconds went.
  const analysis::TraceView view(simulator.tracer().events());
  const analysis::RunAnalysis breakdown = analysis::analyze(view);
  std::cout << render_bubbles_text(breakdown) << '\n'
            << render_critical_path_text(breakdown, 5);
}

std::vector<sim::WorkerId> Testbed::all_workers() const {
  std::vector<sim::WorkerId> out(cluster->num_workers());
  for (sim::WorkerId w = 0; w < out.size(); ++w) out[w] = w;
  return out;
}

Testbed make_testbed(double bandwidth_gbps) {
  sim::ClusterConfig config;
  config.nic_bandwidth = gbps(bandwidth_gbps);
  return make_testbed(config);
}

Testbed make_testbed(const sim::ClusterConfig& config) {
  Testbed t;
  t.simulator = std::make_unique<sim::Simulator>();
  g_outputs.enable(*t.simulator);
  t.cluster = std::make_unique<sim::Cluster>(*t.simulator, config);
  return t;
}

void add_shared_jobs(Testbed& testbed, int extra_jobs) {
  AUTOPIPE_EXPECT(extra_jobs >= 0);
  sim::Cluster& cluster = *testbed.cluster;
  const std::size_t gpus = cluster.config().gpus_per_server;
  // Co-located jobs land where the scheduler packs them, not uniformly:
  // job j occupies a contiguous block of 60% of the GPUs (offset per job)
  // and runs elephant flows between the servers it spans. The resulting
  // per-worker heterogeneity is exactly what PipeDream's exclusive-GPU,
  // uniform-bandwidth profile cannot see (Observation 2).
  const std::size_t total = cluster.num_workers();
  const std::size_t span = (total * 3 + 4) / 5;  // 60%, rounded up
  for (int j = 0; j < extra_jobs; ++j) {
    const std::size_t offset = (static_cast<std::size_t>(j) * 2 + 3) % total;
    for (std::size_t i = 0; i < span; ++i) {
      const sim::WorkerId w = (offset + i) % total;
      cluster.add_background_job(w);
    }
    const std::size_t first_server = offset / gpus;
    const std::size_t last_server = ((offset + span - 1) % total) / gpus;
    cluster.transfer(first_server * gpus, last_server * gpus, 1e18, nullptr);
    cluster.transfer(last_server * gpus, first_server * gpus, 1e18, nullptr);
  }
}

partition::PlanResult plan_pipedream(const Testbed& testbed,
                                     const models::ModelSpec& model,
                                     const comm::FrameworkProfile& framework,
                                     comm::SyncScheme scheme) {
  const auto env = partition::EnvironmentView::from_cluster(
      *testbed.cluster, framework, scheme);
  partition::PipeDreamPlanner planner(
      model, env, model.default_batch_size(),
      partition::PipeDreamPlanner::Mode::kPipeDream);
  return planner.plan(testbed.cluster->num_workers());
}

partition::PlanResult plan_current(const Testbed& testbed,
                                   const models::ModelSpec& model,
                                   const comm::FrameworkProfile& framework,
                                   comm::SyncScheme scheme) {
  const auto env = partition::EnvironmentView::from_cluster(
      *testbed.cluster, framework, scheme);
  partition::PipeDreamPlanner planner(
      model, env, model.default_batch_size(),
      partition::PipeDreamPlanner::Mode::kCurrentEnvironment);
  return planner.plan(testbed.cluster->num_workers());
}

partition::PlanResult plan_refined(const Testbed& testbed,
                                   const models::ModelSpec& model,
                                   const comm::FrameworkProfile& framework,
                                   comm::SyncScheme scheme) {
  const auto env = partition::EnvironmentView::from_cluster(
      *testbed.cluster, framework, scheme);
  partition::PlanResult plan = plan_current(testbed, model, framework, scheme);
  const std::size_t batch = model.default_batch_size();
  Seconds best = partition::analytic_batch_time(model, plan.partition, env,
                                                batch);
  for (int round = 0; round < 50; ++round) {
    bool improved = false;
    for (const auto& candidate :
         partition::two_worker_candidates(plan.partition)) {
      const Seconds t = partition::analytic_batch_time(model,
                                                       candidate.partition,
                                                       env, batch);
      if (t < best * 0.999) {
        best = t;
        plan.partition = candidate.partition;
        improved = true;
      }
    }
    if (!improved) break;
  }
  plan.in_flight = partition::optimal_in_flight(plan.partition);
  plan.predicted_batch_time = best;
  return plan;
}

RunResult run_pipeline(Testbed& testbed, const models::ModelSpec& model,
                       const partition::Partition& partition,
                       const RunOptions& options) {
  pipeline::ExecutorConfig config;
  config.framework = options.framework;
  config.sync_scheme = options.scheme;
  config.mode = options.mode;
  config.micro_batches = options.micro_batches;
  pipeline::PipelineExecutor executor(*testbed.cluster, model, partition,
                                      config);

  std::unique_ptr<core::AutoPipeController> controller;
  if (options.autopipe) {
    core::ControllerConfig cc;
    cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
    cc.use_meta_network = false;
    cc.decision_interval = options.decision_interval;
    // Predicted gains below this floor are not worth a migration; measured
    // validation reverts mispredicted switches.
    cc.candidate_gain_floor = 0.02;
    cc.replan_on_change = true;
    controller = std::make_unique<core::AutoPipeController>(
        *testbed.cluster, executor, cc, nullptr, nullptr);
  }
  executor.set_iteration_callback([&](std::size_t iters) {
    if (options.trace)
      options.trace->apply_iteration(iters, *testbed.cluster);
    if (controller) controller->on_iteration(iters);
  });

  const auto report = executor.run(options.iterations, options.warmup);
  write_outputs(testbed, options.scenario);

  RunResult result;
  result.throughput = report.throughput;
  result.per_iteration = report.iteration_throughput;
  result.end_times = report.iteration_end_times;
  result.batch = executor.batch_size();
  result.switches = executor.switches_performed();
  result.utilization = report.worker_utilization;
  return result;
}

double RunResult::window_mean(std::size_t lo, std::size_t hi) const {
  AUTOPIPE_EXPECT(lo < hi && hi <= end_times.size());
  const double start = lo == 0 ? 0.0 : end_times[lo - 1];
  const double span = end_times[hi - 1] - start;
  AUTOPIPE_EXPECT(span > 0.0);
  return static_cast<double>((hi - lo) * batch) / span;
}

double run_baseline(Testbed& testbed, const models::ModelSpec& model,
                    const RunOptions& options) {
  baselines::DataParallelConfig config;
  config.framework = options.framework;
  config.sync_scheme = options.scheme;
  return baselines::run_data_parallel(
             *testbed.cluster, model, testbed.all_workers(),
             options.iterations, options.warmup, config)
      .throughput;
}

double speedup_pct(double a, double b) {
  AUTOPIPE_EXPECT(b > 0.0);
  return (a / b - 1.0) * 100.0;
}

namespace {
// Atomic: scenario bodies may run concurrently under for_each_scenario.
std::atomic<std::size_t> g_failed_scenarios{0};
}

bool run_scenario(const std::string& label,
                  const std::function<void()>& body) {
  try {
    body();
    return true;
  } catch (const std::exception& e) {
    ++g_failed_scenarios;
    std::cerr << "scenario '" << label << "' failed: " << e.what() << "\n";
    return false;
  }
}

int exit_status() {
  // Scenario workers joined inside for_each_scenario, so the capture is
  // complete by the time main() asks for its exit code.
  sweep::write_profile(g_profile_path, std::cout);
  g_profile_path.clear();  // idempotent if called twice
  return g_failed_scenarios == 0 ? 0 : 1;
}

}  // namespace autopipe::bench
