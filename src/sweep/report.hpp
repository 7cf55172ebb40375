// Sweep output: the human summary table and the machine-readable
// BENCH_sweep.json, which `autopipe_trace gate` checks against a committed
// baseline (analysis/gate.hpp).
//
// Determinism contract: everything under the JSON "scenarios" key is a pure
// function of the sweep spec, serialized with the analyzer's canonical
// number formatting — two runs of the same spec produce byte-identical
// sections at any thread count. Host timing (wall clock, jobs) is
// non-deterministic by nature and lives in a separate "timing" section that
// callers include only when they want it (the determinism tests and the
// committed baselines leave it out). The gate therefore compares *simulated*
// throughput, which does not drift with load on the machine running the
// sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sweep/runner.hpp"

namespace autopipe::sweep {

/// One host-profiler category row (see src/common/profile) for the timing
/// section — host wall time, so non-deterministic like the rest of timing.
struct HostProfileRow {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t inclusive_ns = 0;
  std::uint64_t exclusive_ns = 0;
};

/// All scenario outcomes in spec-expansion order, plus run-wide host timing.
struct SweepResult {
  std::vector<ScenarioResult> scenarios;
  std::size_t jobs = 1;        ///< worker threads the sweep ran with
  double wall_seconds = 0.0;   ///< host wall-clock for the whole sweep
  /// Per-category host-profiler breakdown; empty unless the sweep ran with
  /// the self-profiler enabled (autopipe_sweep --profile).
  std::vector<HostProfileRow> profile;
};

/// Render the per-scenario summary table (one row per scenario, spec
/// order) followed by a failure recap when any scenario failed.
void write_summary_table(const SweepResult& result, std::ostream& os);

/// Serialize BENCH_sweep.json. `include_timing` adds the host-timing
/// section; leave it off wherever byte-identical output matters.
void write_bench_json(const SweepResult& result, std::ostream& os,
                      bool include_timing);

}  // namespace autopipe::sweep
