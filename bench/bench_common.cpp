#include "bench_common.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "analysis/json.hpp"
#include "sweep/engine.hpp"
#include "analysis/report.hpp"
#include "analysis/trace_view.hpp"
#include "common/expect.hpp"
#include "common/profile.hpp"
#include "partition/analytic_eval.hpp"
#include "partition/neighborhood.hpp"

namespace autopipe::bench {

namespace {
std::string g_trace_path;
std::string g_metrics_path;
std::string g_ledger_path;
std::string g_timeseries_path;
double g_timeseries_interval = 1.0;
std::string g_profile_path;
std::size_t g_jobs = 1;

// "PATH[:INTERVAL]" — the suffix after the last ':' counts as an interval
// only when it parses fully as a positive number.
void set_timeseries_spec(const std::string& spec) {
  const std::string::size_type colon = spec.rfind(':');
  if (colon != std::string::npos && colon + 1 < spec.size()) {
    char* end = nullptr;
    const double v = std::strtod(spec.c_str() + colon + 1, &end);
    if (end != nullptr && *end == '\0' && v > 0.0) {
      g_timeseries_path = spec.substr(0, colon);
      g_timeseries_interval = v;
      return;
    }
  }
  g_timeseries_path = spec;
  g_timeseries_interval = 1.0;
}

bool wants_text_format(const std::string& path) {
  auto ends_with = [&path](const char* suffix) {
    const std::string s(suffix);
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  return ends_with(".txt") || ends_with(".trace");
}
}  // namespace

void parse_common_flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--trace=", 0) == 0) {
      g_trace_path = a.substr(8);
    } else if (a == "--trace" && i + 1 < argc) {
      g_trace_path = argv[++i];
    } else if (a.rfind("--metrics=", 0) == 0) {
      g_metrics_path = a.substr(10);
    } else if (a == "--metrics" && i + 1 < argc) {
      g_metrics_path = argv[++i];
    } else if (a.rfind("--ledger=", 0) == 0) {
      g_ledger_path = a.substr(9);
    } else if (a == "--ledger" && i + 1 < argc) {
      g_ledger_path = argv[++i];
    } else if (a.rfind("--timeseries=", 0) == 0) {
      set_timeseries_spec(a.substr(13));
    } else if (a == "--timeseries" && i + 1 < argc) {
      set_timeseries_spec(argv[++i]);
    } else if (a.rfind("--profile=", 0) == 0) {
      g_profile_path = a.substr(10);
    } else if (a == "--profile" && i + 1 < argc) {
      g_profile_path = argv[++i];
    } else if (a.rfind("--jobs=", 0) == 0) {
      g_jobs = static_cast<std::size_t>(
          std::strtoull(a.c_str() + 7, nullptr, 10));
    } else if (a == "--jobs" && i + 1 < argc) {
      g_jobs = static_cast<std::size_t>(
          std::strtoull(argv[++i], nullptr, 10));
    }
  }
  if (!g_profile_path.empty()) {
    prof::reset();
    prof::set_enabled(true);
  }
}

std::size_t jobs() { return g_jobs; }

void for_each_scenario(std::size_t count,
                       const std::function<void(std::size_t)>& body) {
  sweep::run_indexed(count, g_jobs, body);
}

const std::string& trace_path() { return g_trace_path; }

const std::string& metrics_path() { return g_metrics_path; }

const std::string& ledger_path() { return g_ledger_path; }

const std::string& timeseries_path() { return g_timeseries_path; }

double timeseries_interval() { return g_timeseries_interval; }

const std::string& profile_path() { return g_profile_path; }

std::string scenario_path(const std::string& base,
                          const std::string& scenario) {
  if (scenario.empty()) return base;
  std::string label = scenario;
  for (char& c : label) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
        c != '_' && c != '-') {
      c = '_';
    }
  }
  const std::size_t dot = base.rfind('.');
  const std::size_t slash = base.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + "." + label;  // no extension to splice around
  }
  return base.substr(0, dot) + "." + label + base.substr(dot);
}

std::vector<sim::WorkerId> Testbed::all_workers() const {
  std::vector<sim::WorkerId> out(cluster->num_workers());
  for (sim::WorkerId w = 0; w < out.size(); ++w) out[w] = w;
  return out;
}

Testbed make_testbed(double bandwidth_gbps) {
  Testbed t;
  t.simulator = std::make_unique<sim::Simulator>();
  if (!g_trace_path.empty()) t.simulator->tracer().set_enabled(true);
  if (!g_ledger_path.empty()) t.simulator->ledger().set_enabled(true);
  if (!g_timeseries_path.empty())
    t.simulator->timeseries().configure(g_timeseries_interval);
  sim::ClusterConfig config;
  config.nic_bandwidth = gbps(bandwidth_gbps);
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

  if (!g_trace_path.empty()) {
    // Figures run many scenarios on separate testbeds; a labelled run gets
    // its own fig.<scenario>.trace, an unlabelled one keeps the legacy
    // overwrite-last-wins behaviour on the given path.
    const std::string path = scenario_path(g_trace_path, options.scenario);
    std::ofstream out(path);
    if (out.good()) {
      if (wants_text_format(path)) {
        testbed.simulator->tracer().write_text(out);
      } else {
        testbed.simulator->tracer().write_chrome_json(out);
      }
      std::cout << "trace: " << testbed.simulator->tracer().size()
                << " events -> " << path << "\n";
    }
    TextTable metrics_table({"metric", "value"});
    for (const auto& [name, value] : testbed.simulator->metrics().all())
      metrics_table.add_row({name, TextTable::num(value, 3)});
    if (!testbed.simulator->metrics().all().empty())
      metrics_table.print(std::cout, "run metrics");

    // The analyzer runs straight off the in-memory recorder, so every
    // traced bench run reports where its GPU seconds went.
    const analysis::TraceView view(testbed.simulator->tracer().events());
    const analysis::RunAnalysis breakdown = analysis::analyze(view);
    std::cout << render_bubbles_text(breakdown) << '\n'
              << render_critical_path_text(breakdown, 5);
  }
  if (!g_metrics_path.empty()) {
    const std::string path = scenario_path(g_metrics_path, options.scenario);
    std::ofstream out(path);
    AUTOPIPE_EXPECT_MSG(out.good(), "cannot open metrics file " << path);
    const auto metrics = testbed.simulator->metrics().flattened();
    analysis::write_scalar_map_json(metrics, out);
    std::cout << "metrics: " << metrics.size() << " values -> " << path
              << "\n";
  }
  if (!g_ledger_path.empty()) {
    testbed.simulator->ledger().finalize("run_end");
    const std::string path = scenario_path(g_ledger_path, options.scenario);
    std::ofstream out(path);
    AUTOPIPE_EXPECT_MSG(out.good(), "cannot open ledger file " << path);
    testbed.simulator->ledger().write_text(out);
    std::cout << "ledger: " << testbed.simulator->ledger().size()
              << " decisions -> " << path << "\n";
  }
  if (testbed.simulator->timeseries().enabled()) {
    testbed.simulator->timeseries().finalize(testbed.simulator->now(),
                                             testbed.simulator->metrics());
    const std::string path =
        scenario_path(g_timeseries_path, options.scenario);
    std::ofstream out(path);
    AUTOPIPE_EXPECT_MSG(out.good(), "cannot open timeseries file " << path);
    testbed.simulator->timeseries().write_text(out);
    std::cout << "timeseries: " << testbed.simulator->timeseries().size()
              << " samples -> " << path << "\n";
  }

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
  if (!g_profile_path.empty()) {
    // Scenario workers joined inside for_each_scenario, so collect() is
    // safe by the time main() asks for its exit code.
    prof::set_enabled(false);
    const std::vector<prof::ThreadProfile> profiles = prof::collect();
    std::ofstream out(g_profile_path);
    if (out.good()) {
      const bool json =
          g_profile_path.size() >= 5 &&
          g_profile_path.rfind(".json") == g_profile_path.size() - 5;
      if (json) {
        prof::write_chrome_json(profiles, out);
      } else {
        prof::write_text(profiles, out);
      }
      std::cout << "profile: " << profiles.size() << " thread(s) -> "
                << g_profile_path << "\n";
    } else {
      std::cerr << "cannot open profile file " << g_profile_path << "\n";
    }
    g_profile_path.clear();  // idempotent if called twice
  }
  return g_failed_scenarios == 0 ? 0 : 1;
}

}  // namespace autopipe::bench
