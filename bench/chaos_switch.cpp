// Crash-point matrix for the staged switch protocol: every protocol phase ×
// every fault kind × many seeds, each cell a full AutoPipe run in which a
// SwitchFaultPlan fires the fault exactly at that phase boundary of a
// deterministic mid-run partition switch. Invariants per cell and seed:
//
//   1. conservation — injected == completed + dropped + in-flight
//   2. consistency  — the executor ends in a consistent weight layout:
//                     every layer held, never half-transitioned
//   3. accounting   — attempts == committed + aborted; the ledger finalizes
//                     with exactly one terminal outcome per record
//   4. liveness     — the armed crash point actually fired, and abortable
//                     faults (preemption / link loss) injected before Commit
//                     really did abort the attempt
//   5. parity       — the run replays identically under the heap and
//                     timing-wheel event queues (parity::compare: trace,
//                     ledger, metrics, time series, causal links, iteration
//                     end times, event counts); divergences dump artifacts
//
//   chaos_switch [--seeds=N] [--seed0=N] [--iterations=N] [--artifacts=DIR]
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/ledger_reader.hpp"
#include "bench_common.hpp"
#include "common/expect.hpp"
#include "faults/switch_fault_plan.hpp"
#include "parity/differential.hpp"

using namespace autopipe;

namespace {

constexpr std::size_t kServers = 3;
constexpr std::size_t kGpusPerServer = 2;

using SwitchMode = pipeline::PipelineExecutor::SwitchMode;

struct Cell {
  SwitchMode mode;
  pipeline::SwitchPhase phase;
  faults::FaultEvent::Kind kind;
};

const char* mode_name(SwitchMode mode) {
  return mode == SwitchMode::kStopTheWorld ? "stw" : "fine";
}

const char* kind_name(faults::FaultEvent::Kind kind) {
  switch (kind) {
    case faults::FaultEvent::Kind::kGpuDown:
      return "gpu_down";
    case faults::FaultEvent::Kind::kLinkDown:
      return "link_down";
    case faults::FaultEvent::Kind::kStragglerBegin:
      return "straggler";
    case faults::FaultEvent::Kind::kProfilerDrop:
      return "profiler";
    default:
      return "?";
  }
}

/// Drain only exists under stop-the-world; fine-grained goes straight from
/// Prepare to Transfer.
std::vector<Cell> build_matrix() {
  const std::vector<faults::FaultEvent::Kind> kinds = {
      faults::FaultEvent::Kind::kGpuDown, faults::FaultEvent::Kind::kLinkDown,
      faults::FaultEvent::Kind::kStragglerBegin,
      faults::FaultEvent::Kind::kProfilerDrop};
  std::vector<Cell> matrix;
  for (const auto mode :
       {SwitchMode::kStopTheWorld, SwitchMode::kFineGrained}) {
    for (const auto phase :
         {pipeline::SwitchPhase::kPrepare, pipeline::SwitchPhase::kDrain,
          pipeline::SwitchPhase::kTransfer, pipeline::SwitchPhase::kCommit}) {
      if (phase == pipeline::SwitchPhase::kDrain &&
          mode == SwitchMode::kFineGrained)
        continue;
      for (const auto kind : kinds) matrix.push_back({mode, phase, kind});
    }
  }
  return matrix;
}

struct CellRun {
  parity::ScenarioResult artifacts;
  pipeline::PipelineExecutor::FaultStats stats;
  std::size_t active = 0;
  std::size_t attempts = 0;
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::size_t retries = 0;
  std::size_t abandonments = 0;
  std::size_t shots = 0;
  bool layout_consistent = false;
  bool ledger_resolved = false;
};

CellRun run_cell(const Cell& cell, std::size_t seed, std::size_t iterations,
                 sim::EventQueueKind queue) {
  sim::Simulator simulator(queue);
  simulator.tracer().set_enabled(true);
  simulator.ledger().set_enabled(true);
  simulator.timeseries().configure(0.02);

  sim::ClusterConfig config;
  config.num_servers = kServers;
  config.gpus_per_server = kGpusPerServer;
  sim::Cluster cluster(simulator, config);

  const auto model = models::alexnet();

  pipeline::ExecutorConfig executor_config;
  executor_config.framework = comm::pytorch_profile();
  executor_config.sync_scheme = comm::SyncScheme::kRing;
  // Start from an even pipeline split (one stage per worker) rather than
  // the planner's single-stage data-parallel pick: with every layer
  // replicated everywhere a switch has nothing to move, and the Transfer
  // phase we want to crash would be empty.
  std::vector<sim::WorkerId> workers(cluster.num_workers());
  for (std::size_t w = 0; w < workers.size(); ++w)
    workers[w] = static_cast<sim::WorkerId>(w);
  pipeline::PipelineExecutor executor(
      cluster, model,
      partition::Partition::even_split(model.num_layers(), workers),
      executor_config);

  core::ControllerConfig cc;
  cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
  cc.use_meta_network = false;
  // Recovery (below) completes before the first retry fires, so a retried
  // attempt can actually succeed instead of re-hitting a dead participant.
  cc.switch_retry_base_interval = 0.3;
  core::AutoPipeController controller(cluster, executor, cc, nullptr,
                                      nullptr);
  controller.attach();

  faults::SwitchFaultPlan switch_faults(cluster, executor);
  faults::SwitchCrashPoint point;
  point.phase = cell.phase;
  point.kind = cell.kind;
  point.nth_attempt = 1;  // hit the first attempt; let the retry through
  point.delay = 0.0005 * static_cast<double>(seed % 7);
  point.recover_after = 0.15 + 0.01 * static_cast<double>(seed % 4);
  switch_faults.add(point);

  // The harness switch rotates each stage onto the next stage's workers —
  // a valid layout where every worker serves a different layer range, so
  // the Transfer phase genuinely moves weights — requested mid-pipeline at
  // a seed-staggered instant.
  const double trigger = 0.08 + 0.004 * static_cast<double>(seed % 13);
  simulator.after(
      trigger,
      [&executor, mode = cell.mode] {
        const partition::Partition& cur = executor.current_partition();
        std::vector<partition::StageAssignment> stages = cur.stages();
        if (stages.size() > 1) {
          std::vector<sim::WorkerId> first = stages.front().workers;
          for (std::size_t s = 0; s + 1 < stages.size(); ++s)
            stages[s].workers = stages[s + 1].workers;
          stages.back().workers = std::move(first);
        }
        executor.request_switch(
            partition::Partition(std::move(stages), cur.num_layers()), mode);
      },
      "chaos_switch_trigger");

  const auto report = executor.run(iterations, /*warmup=*/5);

  CellRun out;
  out.stats = executor.fault_stats();
  out.active = executor.active_batches();
  out.attempts = executor.switch_attempts();
  out.committed = executor.switches_performed();
  out.aborted = executor.switches_aborted();
  out.retries = controller.stats().switch_retries;
  out.abandonments = controller.stats().switch_abandonments;
  out.shots = switch_faults.fired().size();
  out.layout_consistent = executor.weight_layout_consistent();
  out.artifacts =
      parity::collect_artifacts(simulator, report.iteration_end_times);
  out.ledger_resolved = simulator.ledger().all_resolved();
  return out;
}

bool aborts_switches(faults::FaultEvent::Kind kind) {
  // Stragglers and profiler dropouts degrade, but only participant loss
  // interrupts the protocol.
  return kind == faults::FaultEvent::Kind::kGpuDown ||
         kind == faults::FaultEvent::Kind::kLinkDown;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags& flags = bench::parse_common_flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", 50);
  AUTOPIPE_EXPECT_MSG(seeds >= 1, "--seeds must be at least 1");
  const std::size_t seed0 = flags.get_count("seed0", 1);
  const std::size_t iterations = flags.get_count("iterations", 30);
  const std::string artifact_dir = flags.get("artifacts", "");

  const std::vector<Cell> matrix = build_matrix();
  std::cout << "crash-point matrix: " << matrix.size() << " cells x " << seeds
            << " seeds x 2 event queues\n\n";

  TextTable table({"mode", "phase", "fault", "seeds", "shots", "aborts",
                   "commits", "retries", "abandons", "verdict"});
  // One slot per (cell, seed) so parallel bodies never share state; the
  // per-cell rows are aggregated serially afterwards.
  struct SeedOutcome {
    bool ok = false;
    std::size_t shots = 0;
    std::size_t aborts = 0;
    std::size_t commits = 0;
    std::size_t retries = 0;
    std::size_t abandons = 0;
  };
  std::vector<SeedOutcome> outcomes(matrix.size() * seeds);

  bench::for_each_scenario(matrix.size() * seeds, [&](std::size_t index) {
    const std::size_t c = index / seeds;
    const std::size_t s = index % seeds;
    const Cell& cell = matrix[c];
    const std::size_t seed = seed0 + s;
    const std::string label = std::string(mode_name(cell.mode)) + "_" +
                              pipeline::switch_phase_name(cell.phase) + "_" +
                              kind_name(cell.kind) + "_seed" +
                              std::to_string(seed);
    const bool ok = bench::run_scenario(label, [&] {
      const CellRun heap =
          run_cell(cell, seed, iterations, sim::EventQueueKind::kHeap);
      const CellRun wheel =
          run_cell(cell, seed, iterations, sim::EventQueueKind::kWheel);

      // 1. conservation
      AUTOPIPE_EXPECT_MSG(
          heap.stats.injected ==
              heap.stats.completed + heap.stats.dropped + heap.active,
          "mini-batch conservation: injected "
              << heap.stats.injected << " != completed "
              << heap.stats.completed << " + dropped " << heap.stats.dropped
              << " + in-flight " << heap.active);

      // 2. consistency — never half-transitioned
      AUTOPIPE_EXPECT_MSG(heap.layout_consistent,
                          "executor finished in an inconsistent weight "
                          "layout");

      // 3. accounting
      AUTOPIPE_EXPECT_MSG(
          heap.attempts == heap.committed + heap.aborted,
          "attempt accounting: " << heap.attempts << " attempts != "
              << heap.committed << " committed + " << heap.aborted
              << " aborted");
      AUTOPIPE_EXPECT_MSG(heap.ledger_resolved,
                          "ledger left non-terminal records after finalize");
      {
        std::istringstream in(heap.artifacts.ledger_text);
        const trace::DecisionLedger parsed = analysis::read_ledger(in);
        std::ostringstream re;
        parsed.write_text(re);
        AUTOPIPE_EXPECT_MSG(re.str() == heap.artifacts.ledger_text,
                            "ledger does not round-trip through the reader");
      }

      // 4. liveness — the crash point must have fired, and a participant
      // loss injected before Commit must have interrupted the attempt.
      AUTOPIPE_EXPECT_MSG(heap.shots >= 1,
                          "crash point never fired for this cell");
      if (aborts_switches(cell.kind) &&
          cell.phase != pipeline::SwitchPhase::kCommit) {
        AUTOPIPE_EXPECT_MSG(heap.aborted >= 1,
                            "participant loss at "
                                << pipeline::switch_phase_name(cell.phase)
                                << " did not abort the attempt");
      }

      // 5. heap/wheel parity
      const parity::Divergence d =
          parity::compare(heap.artifacts, wheel.artifacts);
      if (!d.identical && !artifact_dir.empty()) {
        parity::write_divergence(artifact_dir, label, heap.artifacts,
                                 wheel.artifacts, d.report);
      }
      AUTOPIPE_EXPECT_MSG(d.identical,
                          "heap and wheel runs diverged (artifacts "
                              << (artifact_dir.empty() ? "disabled"
                                                       : artifact_dir)
                              << "):\n"
                              << d.report);

      outcomes[index].shots = heap.shots;
      outcomes[index].aborts = heap.aborted;
      outcomes[index].commits = heap.committed;
      outcomes[index].retries = heap.retries;
      outcomes[index].abandons = heap.abandonments;
    });
    outcomes[index].ok = ok;
  });

  std::size_t failed_cells = 0;
  for (std::size_t c = 0; c < matrix.size(); ++c) {
    const Cell& cell = matrix[c];
    std::size_t ok = 0, shots = 0, aborts = 0, commits = 0, retries = 0,
                abandons = 0;
    for (std::size_t s = 0; s < seeds; ++s) {
      const SeedOutcome& o = outcomes[c * seeds + s];
      ok += o.ok ? 1 : 0;
      shots += o.shots;
      aborts += o.aborts;
      commits += o.commits;
      retries += o.retries;
      abandons += o.abandons;
    }
    const bool all_ok = ok == seeds;
    if (!all_ok) ++failed_cells;
    table.add_row({mode_name(cell.mode),
                   pipeline::switch_phase_name(cell.phase),
                   kind_name(cell.kind),
                   std::to_string(ok) + "/" + std::to_string(seeds),
                   std::to_string(shots), std::to_string(aborts),
                   std::to_string(commits), std::to_string(retries),
                   std::to_string(abandons), all_ok ? "ok" : "FAIL"});
  }
  table.print(std::cout, "chaos switch — crash-point matrix");
  std::cout << "\n" << matrix.size() - failed_cells << "/" << matrix.size()
            << " cells passed\n";
  return bench::exit_status();
}
