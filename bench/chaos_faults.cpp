// Chaos harness: randomized fault schedules against the full AutoPipe loop
// (executor + controller + watchdog), many seeds, four invariants per seed:
//
//   1. completion  — the run finishes; no deadlock, no stray contract error
//   2. conservation — every injected mini-batch is accounted for:
//                     injected == completed + dropped, nothing in flight
//   3. recovery    — once every fault has cleared, throughput returns to
//                     within --epsilon of the pre-fault level
//   4. determinism — the same seed replays to identical artifacts
//                     (parity::compare: trace, ledger, metrics, causal
//                     links, iteration end times, event counts)
//   5. ledger      — every planning round left exactly one decision record,
//                     every record reached a terminal outcome, and the
//                     ledger round-trips through the reader
//
// The schedule shape is scaled from a fault-free probe run's measured
// iteration period, so the same harness stresses any model/cluster pair.
//
//   chaos_faults [--seeds=N] [--iterations=N] [--epsilon=X] [--seed0=N]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/bubbles.hpp"
#include "analysis/ledger_reader.hpp"
#include "analysis/trace_view.hpp"
#include "bench_common.hpp"
#include "common/expect.hpp"
#include "faults/fault_plan.hpp"
#include "parity/differential.hpp"

using namespace autopipe;

namespace {

constexpr std::size_t kServers = 3;
constexpr std::size_t kGpusPerServer = 2;

struct ChaosOutcome {
  pipeline::PipelineExecutor::FaultStats stats;
  std::size_t active = 0;
  std::size_t wedges = 0;
  std::size_t emergency_replans = 0;
  std::size_t readmissions = 0;
  parity::ScenarioResult artifacts;
  std::size_t ledger_size = 0;
  std::size_t decisions = 0;
  bool ledger_resolved = false;
  double fault_downtime = 0.0;
  double wall = 0.0;
  bool bubbles_exact = true;
};

/// One full simulated training run under `fault_plan` (empty plan = probe).
ChaosOutcome run_chaos(const faults::FaultPlan& fault_plan,
                       std::size_t iterations) {
  sim::Simulator simulator;
  simulator.tracer().set_enabled(true);
  simulator.ledger().set_enabled(true);
  sim::ClusterConfig config;
  config.num_servers = kServers;
  config.gpus_per_server = kGpusPerServer;
  sim::Cluster cluster(simulator, config);

  const auto model = models::alexnet();
  const auto env = partition::EnvironmentView::from_cluster(
      cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
  partition::PipeDreamPlanner planner(
      model, env, model.default_batch_size(),
      partition::PipeDreamPlanner::Mode::kCurrentEnvironment);
  const auto plan = planner.plan(cluster.num_workers());

  pipeline::ExecutorConfig executor_config;
  executor_config.framework = comm::pytorch_profile();
  executor_config.sync_scheme = comm::SyncScheme::kRing;
  pipeline::PipelineExecutor executor(cluster, model, plan.partition,
                                      executor_config);

  core::ControllerConfig cc;
  cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
  cc.use_meta_network = false;
  core::AutoPipeController controller(cluster, executor, cc, nullptr,
                                      nullptr);
  controller.attach();
  fault_plan.install(simulator, cluster);

  const auto report = executor.run(iterations, /*warmup=*/5);

  ChaosOutcome out;
  out.stats = executor.fault_stats();
  out.active = executor.active_batches();
  out.wedges = controller.stats().wedges_detected;
  out.emergency_replans = controller.stats().emergency_replans;
  out.readmissions = controller.stats().readmissions;
  out.artifacts =
      parity::collect_artifacts(simulator, report.iteration_end_times);
  out.ledger_resolved = simulator.ledger().all_resolved();
  out.ledger_size = simulator.ledger().size();
  out.decisions = controller.stats().decisions;

  // Bubble attribution must still partition every worker's wall clock
  // exactly with the fault-downtime class in the mix.
  const analysis::TraceView view(simulator.tracer().events());
  const analysis::BubbleReport bubbles = analysis::attribute_bubbles(view);
  out.wall = bubbles.wall_clock;
  out.fault_downtime = bubbles.totals[static_cast<std::size_t>(
      analysis::BubbleClass::kFaultDowntime)];
  for (const analysis::WorkerBubbles& wb : bubbles.workers) {
    if (std::abs(wb.busy_seconds + wb.idle_seconds() - bubbles.wall_clock) >
        1e-6 * std::max(1.0, bubbles.wall_clock)) {
      out.bubbles_exact = false;
    }
  }
  return out;
}

/// Mean seconds/iteration over iterations [lo, hi), measured on elapsed
/// simulated time — deep pipelines complete iterations in bursts, so
/// per-iteration deltas are full of zeros and a median misleads.
double mean_period(const std::vector<double>& end_times, std::size_t lo,
                   std::size_t hi) {
  if (lo < 1) lo = 1;
  if (hi > end_times.size()) hi = end_times.size();
  if (hi <= lo) return 0.0;
  const double span = end_times[hi - 1] - end_times[lo - 1];
  return span > 0.0 ? span / static_cast<double>(hi - lo) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = bench::parse_common_flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", 50);
  AUTOPIPE_EXPECT_MSG(seeds >= 1, "--seeds must be at least 1");
  const std::size_t seed0 = flags.get_count("seed0", 1);
  const std::size_t iterations = flags.get_count("iterations", 100);
  const double epsilon = flags.get_double("epsilon", 0.35);

  // Fault-free probe: the measured iteration period anchors the schedule
  // shape so outages are a few iterations long, not a fixed wall-clock
  // guess that a slow model would never reach.
  const ChaosOutcome probe = run_chaos(faults::FaultPlan{}, 30);
  const std::vector<double>& probe_ends = probe.artifacts.iteration_end_times;
  const double period = mean_period(probe_ends, 3, 30);
  AUTOPIPE_EXPECT_MSG(period > 0.0, "probe run produced no usable periods");
  // Anchor the window on the probe's actual timeline: pipeline fill and
  // bursty completions (an in-flight window finishes at one timestamp) make
  // "N periods in" a poor guess for when iteration N lands. Faults begin
  // just after the probe's horizon so the chaos run has a ~27-iteration
  // healthy prefix to measure the pre-fault period on.
  const double fault_start = probe_ends.back() + 2 * period;
  const double fault_clear = fault_start + 30 * period;
  std::cout << "probe: mean iteration period "
            << TextTable::num(period * 1e3, 2) << " ms; fault window ["
            << TextTable::num(fault_start, 2) << "s, "
            << TextTable::num(fault_clear, 2) << "s]\n\n";

  TextTable table({"seed", "events", "injected", "dropped", "wedges",
                   "emerg", "readmit", "downtime(s)", "pre(ms)", "post(ms)",
                   "verdict"});
  // Seeds are independent full-loop runs, so they fan out across the
  // --jobs pool; each body fills only its own row slot and the table is
  // assembled in seed order afterwards, keeping output identical at any
  // thread count.
  struct SeedRow {
    bool ok = false;
    std::vector<std::string> cells;
  };
  std::vector<SeedRow> rows(seeds);
  bench::for_each_scenario(seeds, [&](std::size_t s) {
    const std::size_t seed = seed0 + s;
    rows[s].ok = bench::run_scenario("seed " + std::to_string(seed), [&] {
      faults::ChaosSpec spec;
      spec.seed = seed;
      spec.start = fault_start;
      spec.clear_by = fault_clear;
      spec.min_outage = 2 * period;
      spec.max_outage = 8 * period;
      spec.flap_outage = 0.5 * period;
      const faults::FaultPlan fault_plan =
          faults::random_plan(spec, kServers, kGpusPerServer);

      const ChaosOutcome a = run_chaos(fault_plan, iterations);
      const ChaosOutcome b = run_chaos(fault_plan, iterations);

      // 2. conservation — run() returns the moment the target iteration
      // completes, so up to an in-flight window of batches legitimately
      // remains active; none may be unaccounted for.
      AUTOPIPE_EXPECT_MSG(
          a.stats.injected ==
              a.stats.completed + a.stats.dropped + a.active,
          "mini-batch conservation: injected " << a.stats.injected
              << " != completed " << a.stats.completed << " + dropped "
              << a.stats.dropped << " + in-flight " << a.active);
      AUTOPIPE_EXPECT_MSG(a.active <= 32,
                          a.active << " batches in flight at the end — "
                                      "more than any in-flight window");

      // 3. recovery: post-clear throughput within epsilon of pre-fault
      const auto& times = a.artifacts.iteration_end_times;
      std::size_t pre_hi = 0;
      while (pre_hi < times.size() && times[pre_hi] < spec.start) ++pre_hi;
      std::size_t post_lo = pre_hi;
      while (post_lo < times.size() && times[post_lo] < spec.clear_by)
        ++post_lo;
      const double pre = mean_period(times, 3, pre_hi);
      const double post = mean_period(times, post_lo + 1, times.size());
      AUTOPIPE_EXPECT_MSG(pre > 0.0 && post > 0.0,
                          "not enough iterations around the fault window "
                          "(pre_hi=" << pre_hi << ", post_lo=" << post_lo
                              << ", total=" << times.size() << ")");
      AUTOPIPE_EXPECT_MSG(
          post <= pre / (1.0 - epsilon),
          "throughput did not recover: pre period " << pre << "s, post "
              << post << "s (epsilon " << epsilon << ")");

      // 4. determinism (the ledger's included)
      const parity::Divergence replay =
          parity::compare(a.artifacts, b.artifacts);
      AUTOPIPE_EXPECT_MSG(replay.identical,
                          "same seed replayed differently:\n"
                              << replay.report);

      // Fault downtime must appear in (and not break) bubble attribution.
      AUTOPIPE_EXPECT_MSG(a.bubbles_exact,
                          "bubble classes no longer partition wall clock");

      // 5. ledger: one record per planning round, no dangling outcomes
      // and a lossless reader round-trip.
      AUTOPIPE_EXPECT_MSG(
          a.ledger_size == a.decisions,
          "ledger recorded " << a.ledger_size << " decisions but the "
              "controller made " << a.decisions);
      AUTOPIPE_EXPECT_MSG(a.ledger_resolved,
                          "ledger left dangling (pending) decision records "
                          "after finalize");
      {
        std::istringstream in(a.artifacts.ledger_text);
        const trace::DecisionLedger parsed = analysis::read_ledger(in);
        std::ostringstream re;
        parsed.write_text(re);
        AUTOPIPE_EXPECT_MSG(re.str() == a.artifacts.ledger_text,
                            "ledger does not round-trip through the reader");
      }

      rows[s].cells = {std::to_string(seed),
                       std::to_string(fault_plan.size()),
                       std::to_string(a.stats.injected),
                       std::to_string(a.stats.dropped),
                       std::to_string(a.wedges),
                       std::to_string(a.emergency_replans),
                       std::to_string(a.readmissions),
                       TextTable::num(a.fault_downtime, 2),
                       TextTable::num(pre * 1e3, 2),
                       TextTable::num(post * 1e3, 2),
                       "ok"};
    });
  });
  std::size_t passed = 0;
  for (std::size_t s = 0; s < seeds; ++s) {
    if (rows[s].ok) {
      ++passed;
      table.add_row(rows[s].cells);
    } else {
      table.add_row({std::to_string(seed0 + s), "-", "-", "-", "-", "-", "-",
                     "-", "-", "-", "FAIL"});
    }
  }
  table.print(std::cout, "chaos harness — randomized fault schedules");
  std::cout << "\n" << passed << "/" << seeds << " seeds passed\n";
  return bench::exit_status();
}
