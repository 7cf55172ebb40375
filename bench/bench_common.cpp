#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <iostream>
#include <map>
#include <set>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/trace_view.hpp"
#include "common/expect.hpp"
#include "partition/analytic_eval.hpp"
#include "partition/neighborhood.hpp"
#include "sweep/engine.hpp"
#include "sweep/outputs.hpp"

namespace autopipe::bench {

namespace {
const char* const kNoFlags[] = {"bench"};
Flags g_flags(1, kNoFlags);  // what exit_status() checks for unread flags
sweep::RunOutputs g_outputs;
std::set<std::string> g_labels;  // every label write_outputs has taken
std::string g_profile_path;
}  // namespace

const Flags& parse_common_flags(int argc, const char* const* argv) {
  g_flags = Flags(argc, argv);
  g_outputs = sweep::RunOutputs(g_flags);
  g_labels.clear();
  g_profile_path = g_flags.get("profile", "");
  sweep::start_profile(g_profile_path);
  return g_flags;
}

void for_each_scenario(std::size_t count,
                       const std::function<void(std::size_t)>& body) {
  sweep::run_indexed(count, g_flags.get_count("jobs", 1), body);
}

void write_outputs(Testbed& testbed, const std::string& label) {
  AUTOPIPE_EXPECT_MSG(!label.empty() && g_labels.insert(label).second,
                      "every bench run needs a label of its own naming its "
                      "files, got '" << label << "'");
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
  const std::vector<trace::Event> events = simulator.tracer().events();
  const analysis::TraceView view(events);
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
  partition::Descent descent = partition::descend(
      model, plan.partition, env, model.default_batch_size(), 50);
  plan.partition = std::move(descent.partition);
  plan.in_flight = partition::optimal_in_flight(plan.partition);
  plan.predicted_batch_time = descent.batch_time;
  return plan;
}

core::ControllerConfig autopipe_controller() {
  core::ControllerConfig cc;
  cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
  cc.use_meta_network = false;
  cc.decision_interval = 3;
  // Predicted gains below this floor are not worth a migration; measured
  // validation reverts mispredicted switches.
  cc.candidate_gain_floor = 0.02;
  return cc;
}

pipeline::ExecutionReport run_pipeline(Testbed& testbed,
                                       const models::ModelSpec& model,
                                       const partition::Partition& partition,
                                       const RunOptions& options) {
  pipeline::PipelineExecutor executor(*testbed.cluster, model, partition,
                                      options.executor);
  std::optional<core::AutoPipeController> controller;
  if (options.controller) {
    controller.emplace(*testbed.cluster, executor, *options.controller,
                       nullptr, options.agent);
    controller->attach();
  }
  executor.set_iteration_callback([&](std::size_t iters) {
    if (options.trace)
      options.trace->apply_iteration(iters, *testbed.cluster);
    if (controller) controller->on_iteration(iters);
  });
  pipeline::ExecutionReport report =
      executor.run(options.iterations, options.warmup);
  write_outputs(testbed, options.scenario);
  return report;
}

pipeline::ExecutionReport run_baseline(Testbed& testbed,
                                       const models::ModelSpec& model,
                                       const RunOptions& options) {
  pipeline::ExecutionReport report = baselines::run_data_parallel(
      *testbed.cluster, model, testbed.all_workers(), options.iterations,
      options.warmup,
      baselines::DataParallelConfig{options.executor.batch_size,
                                    options.executor.framework,
                                    options.executor.sync_scheme});
  write_outputs(testbed, options.scenario);
  return report;
}

double window_mean(const pipeline::ExecutionReport& report, std::size_t lo,
                   std::size_t hi) {
  const std::vector<Seconds>& end_times = report.iteration_end_times;
  AUTOPIPE_EXPECT(lo < hi && hi <= end_times.size());
  const double start = lo == 0 ? 0.0 : end_times[lo - 1];
  const double span = end_times[hi - 1] - start;
  AUTOPIPE_EXPECT(span > 0.0);
  return static_cast<double>((hi - lo) * report.batch_size) / span;
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
  for (const std::string& flag : g_flags.unused())
    std::cerr << "warning: unknown flag --" << flag << "\n";
  // Scenario workers joined inside for_each_scenario, so the capture is
  // complete by the time main() asks for its exit code.
  sweep::write_profile(g_profile_path, std::cout);
  g_profile_path.clear();  // idempotent if called twice
  return g_failed_scenarios == 0 ? 0 : 1;
}

void degradation_panels(
    std::ostream& out, const std::string& model_title,
    const std::string& network_title, const models::ModelSpec& network_model,
    const std::string& gap_column,
    const std::function<Degradation(const models::ModelSpec&, double,
                                    const std::string&)>& measure) {
  std::map<std::string, std::optional<Degradation>> cells;  // by label
  const auto add_row = [&](TextTable& table, const std::string& axis,
                           const models::ModelSpec& model, double bw) {
    const std::string label =
        model.name() + "_" + TextTable::num(bw, 0) + "gbps";
    const auto [cell, fresh] = cells.try_emplace(label);
    if (fresh)
      run_scenario(label, [&] { cell->second = measure(model, bw, label); });
    if (!cell->second) return;
    const double actual = cell->second->actual;
    const double optimal = std::max(cell->second->optimal, actual);
    table.add_row({axis, TextTable::num(actual, 1), TextTable::num(optimal, 1),
                   TextTable::num(speedup_pct(optimal, actual), 1) + "%"});
  };
  TextTable by_model({"model", "actual (img/s)", "optimal (img/s)",
                      gap_column});
  for (const auto& model : models::image_models())
    add_row(by_model, model.name(), model, 25);
  by_model.print(out, model_title);
  out << '\n';
  TextTable by_network({"network", "actual (img/s)", "optimal (img/s)",
                        gap_column});
  for (double bw : kBandwidthGridGbps)
    add_row(by_network, TextTable::num(bw, 0) + "Gbps", network_model, bw);
  by_network.print(out, network_title);
}

void dynamic_series(const std::string& figure, const std::string& title,
                    const models::ModelSpec& model,
                    const sim::ResourceTrace& changes,
                    std::span<const SeriesPhase> phases) {
  const auto run = [&](bool autopipe) {
    Testbed t = make_testbed(25);
    const auto plan = plan_pipedream(t, model, comm::pytorch_profile(),
                                     comm::SyncScheme::kRing);
    RunOptions options;
    if (autopipe) options.controller = autopipe_controller();
    options.trace = &changes;
    options.iterations = phases.back().end;
    options.warmup = 5;
    options.scenario = autopipe ? "autopipe" : "pipedream";
    return run_pipeline(t, model, plan.partition, options);
  };
  pipeline::ExecutionReport pipedream;
  pipeline::ExecutionReport autopipe;
  if (!run_scenario("pipedream", [&] { pipedream = run(false); }) ||
      !run_scenario("autopipe", [&] { autopipe = run(true); }))
    return;

  TextTable series({"iteration", "PipeDream (img/s)", "AutoPipe (img/s)"});
  for (std::size_t i = 4; i < pipedream.iteration_end_times.size(); i += 5) {
    series.add_row({std::to_string(i + 1),
                    TextTable::num(window_mean(pipedream, i - 4, i + 1), 1),
                    TextTable::num(window_mean(autopipe, i - 4, i + 1), 1)});
  }
  series.print(std::cout, figure + " — " + title);

  TextTable summary({"phase", "PipeDream", "AutoPipe", "speedup"});
  for (const SeriesPhase& phase : phases) {
    const double pd = window_mean(pipedream, phase.begin, phase.end);
    const double ap = window_mean(autopipe, phase.begin, phase.end);
    summary.add_row({phase.name, TextTable::num(pd, 1), TextTable::num(ap, 1),
                     TextTable::num(speedup_pct(ap, pd), 0) + "%"});
  }
  std::cout << '\n';
  summary.print(std::cout, figure + " — per-phase means");
}

}  // namespace autopipe::bench
