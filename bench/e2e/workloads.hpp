// The end-to-end benchmark's four reference workloads. Each call of
// run_round() builds and runs one round of a workload from its seed alone
// and reports what the round measured; main.cpp repeats rounds for the
// measured duration and turns them into metrics. README.md says why each
// workload exists and what every metric means.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace autopipe::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every run length (iterations, fleets per round); the
  /// benchmark's own tests run at a tiny scale.
  double scale = 1.0;
  /// static-grid fan-out threads; 0 = half the hardware threads, 1 to 4.
  std::size_t threads = 0;
  /// Directory for the artifacts bwdrop-artifacts writes and reads back.
  std::string workdir = ".";
};

const std::vector<std::string>& workload_names();

/// Threads a round of `options.workload` runs on: static-grid's fan-out, one
/// for the others.
std::size_t workload_threads(const Options& options);

/// One operation: a scenario, or a whole fleet. It fails when it throws or
/// any of its output checks fails.
struct OpResult {
  std::string scenario;
  /// Digest of the operation's simulated results; repetitions of one run
  /// must reproduce it exactly.
  std::uint64_t digest = 0;
  std::vector<std::string> failed_checks;
};

struct RoundResult {
  /// Host seconds of the round's phases, split into segments that do the
  /// same simulated work in every round, so that main.cpp can take each
  /// segment's fastest repetition. Set-up builds a scenario before its first
  /// event; it has one segment per scenario or fleet. The run phase lasts
  /// from the first simulated event to the last artifact written; a segment
  /// is a block of 100 iterations of a single-job run (static-grid: of each
  /// scenario), a MiB of an artifact write, or one fleet.
  std::vector<double> setup_s;
  std::vector<double> run_s;
  /// Host seconds in planning rounds, one segment per controller call that
  /// ran one (a fleet: per fleet), and the number of planning rounds.
  std::vector<double> decision_s;
  double decisions = 0.0;
  std::vector<OpResult> ops;
  /// Simulated training speed and tail iteration time of the round.
  double samples_per_s = 0.0;
  double iter_p99_ms = 0.0;
  /// Per-layer quantities counted in the round, by metric name.
  std::map<std::string, double> layer;
  /// Layer whose call drives the simulator's event loop.
  std::string loop_layer = "pipeline";
};

/// Run one round of `options.workload`. Throws on an unknown workload;
/// failures inside operations are reported in RoundResult::ops. With
/// `read_back`, bwdrop-artifacts also reads its artifacts back and analyses
/// them; without, it checks that they are byte-identical to the first
/// round's.
RoundResult run_round(const Options& options, bool read_back);

}  // namespace autopipe::e2e
