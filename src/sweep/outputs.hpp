// The output files of one simulated run, owned in one place for every
// driver (autopipe_sim, autopipe_sweep, the benches): which flags name
// them, which recorders they switch on, where a run label goes in each
// path and how each file is written. See docs/TRACING.md, "Producing a
// trace".
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/profile.hpp"

namespace autopipe {
class Flags;
namespace sim {
class Simulator;
}
}  // namespace autopipe

namespace autopipe::sweep {

/// Split "PATH[:INTERVAL]". The text after the last ':' is the interval
/// only when it parses fully as a positive number, so a path containing a
/// colon keeps working; otherwise it all is the path, with interval 1.
std::pair<std::string, double> split_interval(const std::string& spec);

/// `path` with ".<label>" spliced in before the file name's extension
/// ("fig3.trace" + "vgg16_25gbps" -> "fig3.vgg16_25gbps.trace"), or
/// appended when it has none. Label characters outside [A-Za-z0-9._-]
/// become '_'; an empty label leaves `path` unchanged.
std::string splice_label(const std::string& path, const std::string& label);

/// The files one run writes; an empty path is a file not asked for.
struct RunOutputs {
  std::string trace;       ///< text for a .trace/.txt name, else Chrome JSON
  std::string metrics;     ///< the flattened metrics registry, JSON
  std::string ledger;      ///< the decision ledger
  std::string timeseries;  ///< autopipe-ts-v1
  double timeseries_interval = 1.0;  ///< sim-seconds between rows

  RunOutputs() = default;
  /// `--trace`, `--metrics`, `--ledger` and `--timeseries PATH[:INTERVAL]`.
  explicit RunOutputs(const Flags& flags);

  /// Switch on the recorders the requested files need; call before the run.
  void enable(sim::Simulator& simulator) const;

  /// Create every requested file now, so a bad path fails before the run.
  /// Throws std::runtime_error naming the file.
  void check_writable() const;

  /// Write every requested file of the finished run with `label` spliced
  /// into its path, the ledger and time series finalized first. Returns one
  /// "<kind>: <count> ... -> <path>" line per file written; throws
  /// std::runtime_error naming a file that cannot be opened.
  std::string write(sim::Simulator& simulator,
                    const std::string& label = "") const;
};

/// Start the host self-profiler when `path` is non-empty, after creating
/// the file (throws std::runtime_error naming it when that fails).
void start_profile(const std::string& path);

/// Stop the profiler and write its capture to `path`: Chrome trace_event
/// JSON for a .json name, autopipe-prof-v1 text for any other; logs one
/// line. Returns the capture, empty without writing when `path` is empty.
/// Call after worker threads have joined.
std::vector<prof::ThreadProfile> write_profile(const std::string& path,
                                               std::ostream& log);

}  // namespace autopipe::sweep
