// Differential parity harness for the simulator core rewrite.
//
// The timing-wheel event queue must be *observationally identical* to the
// reference binary heap: same dequeue order, same callback interleaving,
// same floating-point accumulation order — byte-for-byte the same traces,
// decision ledgers and metrics. This library runs one full AutoPipe
// scenario (cluster + planner + executor + controller, optionally with a
// seeded random fault plan and background-tenant churn) twice, once per
// queue kind, and diffs every observable artifact.
//
// Used by tests/parity_test.cpp (ctest tier, ≥50 seeds) and the
// bench/parity_harness CLI (CI parity-smoke job, divergence artifacts);
// the chaos_switch and chaos_faults harnesses capture and compare their own
// scenarios through collect_artifacts() and compare().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"

namespace autopipe::sim {
class Simulator;
}

namespace autopipe::parity {

/// One differential scenario. The seed drives the fault plan and the
/// background workload; seeds 0.. give distinct but reproducible runs.
struct ScenarioConfig {
  std::uint64_t seed = 1;
  std::size_t iterations = 12;
  std::size_t warmup = 5;
  /// Install a seeded random fault plan (preemptions, link failures/flaps,
  /// stragglers, profiler drops).
  bool inject_faults = true;
  /// Install seeded background-tenant churn on GPUs and the network.
  bool background_churn = true;
  /// Trigger a deterministic mid-run partition switch and arm a
  /// SwitchFaultPlan crash point against it (phase, fault kind and switch
  /// mode all derived from the seed), so aborted and rolled-back switches
  /// are part of the byte-for-byte parity contract too.
  bool mid_switch_faults = false;
  /// When > 0, replace the single-job scenario with a co-tenant fleet of
  /// this many AutoPipe jobs under a greedy-arbiter JobManager
  /// (src/cluster/), cycling a small model mix. The testbed grows to
  /// max(3, fleet_jobs) servers so every job starts with at least two
  /// GPUs. Claim windows, arbiter grants/denials and contention aborts all
  /// join the byte-for-byte parity contract. mid_switch_faults is ignored
  /// in fleet mode (the JobManager drives its own switches).
  std::size_t fleet_jobs = 0;
};

/// Every observable artifact of one run. Two queue kinds are "at parity"
/// when all fields compare equal — the strings byte-for-byte, the floats
/// bit-for-bit.
struct ScenarioResult {
  std::string queue_name;
  std::string trace_text;    ///< full event trace, text form
  std::string ledger_text;   ///< finalized decision ledger, text form
  std::string metrics_text;  ///< sorted name=value metric lines
  /// autopipe-ts-v1 metric time-series sampled at a fixed cadence during
  /// the run — covers the TimeSeriesSampler in the parity contract.
  std::string timeseries_text;
  /// One line per causal event: "eid<-cause category:name". Redundant with
  /// trace_text byte-equality, but diffing it separately localizes a
  /// divergence in the causal graph (a reordered scheduling decision)
  /// even when timestamps happen to agree.
  std::string causal_text;
  std::vector<double> iteration_end_times;
  std::uint64_t events_processed = 0;
  std::uint64_t scheduled_events = 0;  ///< seq counter: pushes must match too
};

/// Run the scenario on the given queue implementation.
ScenarioResult run_scenario(const ScenarioConfig& config,
                            sim::EventQueueKind kind);

/// Capture every observable artifact of a run that has finished on
/// `simulator`, finalizing its ledger and time series first. Harnesses that
/// drive their own scenarios compare runs through this and compare().
ScenarioResult collect_artifacts(sim::Simulator& simulator,
                                 std::vector<double> iteration_end_times);

/// Outcome of diffing two runs of the same scenario.
struct Divergence {
  bool identical = true;
  /// Empty when identical; otherwise a human-readable report naming the
  /// first diverging artifact, line number and both lines.
  std::string report;
};

/// Byte/bit-exact comparison with first-divergence diagnostics.
Divergence compare(const ScenarioResult& reference,
                   const ScenarioResult& candidate);

/// Convenience: run `config` under both queues and diff. The heap is the
/// reference, the wheel the candidate.
Divergence run_differential(const ScenarioConfig& config);

/// Dump a divergence for inspection: `<dir>/<stem>.report.txt` holds the
/// compare() report, and `<dir>/<stem>.{heap,wheel}.{trace,ledger,metrics,
/// timeseries,causal}` every text compare() diffs. Creates `dir`.
void write_divergence(const std::string& dir, const std::string& stem,
                      const ScenarioResult& heap, const ScenarioResult& wheel,
                      const std::string& report);

}  // namespace autopipe::parity
