// Reporting over host self-profiler captures (src/common/profile): the
// per-category and per-span inclusive/exclusive breakdown behind
// `autopipe_trace profile`, collapsed-stack flamegraph output, and the
// report JSON whose per-span ns_per_call the planner-time gate reads
// (analysis/gate.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/profile.hpp"

namespace autopipe::analysis {

/// Aggregated timing for one span name (or one category — the name prefix
/// before '/'). Inclusive counts time inside the span; exclusive subtracts
/// time attributed to nested recorded spans.
struct ProfileEntry {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t inclusive_ns = 0;
  std::uint64_t exclusive_ns = 0;
  bool aggregate_only = false;  ///< PROF_SPAN_AGG site (no nesting info)
};

struct ProfileReport {
  std::vector<ProfileEntry> spans;       ///< per name, inclusive desc
  std::vector<ProfileEntry> categories;  ///< per category, exclusive desc
  std::uint64_t total_ns = 0;  ///< top-level inclusive + aggregate totals
  std::size_t threads = 0;
};

/// Aggregate a capture into per-name and per-category entries. Exclusive
/// time is reconstructed from span nesting (sorted by start, a stack of
/// open spans); category inclusive time counts only spans whose parent
/// chain holds no span of the same category, so it never double-counts.
ProfileReport build_profile_report(
    const std::vector<prof::ThreadProfile>& profiles);

/// Load an autopipe-prof-v1 file (throws std::runtime_error — missing
/// file, bad header).
std::vector<prof::ThreadProfile> read_profile_file(const std::string& path);

/// The N individually longest spans across all threads, duration desc.
std::vector<prof::Span> top_spans(
    const std::vector<prof::ThreadProfile>& profiles, std::size_t n);

/// Category table, span table, top-N list.
void render_profile(const ProfileReport& report,
                    const std::vector<prof::ThreadProfile>& profiles,
                    std::size_t top_n, std::ostream& os);

/// Machine-readable report (schema autopipe-profile-report-v1).
void write_profile_json(const ProfileReport& report, std::ostream& os);

/// Collapsed-stack lines ("a;b;c <exclusive_ns>") for flamegraph.pl /
/// speedscope. Aggregate-only sites emit single-frame lines.
void write_collapsed_stacks(const std::vector<prof::ThreadProfile>& profiles,
                            std::ostream& os);

/// Mean inclusive ns per call of the named span; 0 when absent.
double span_ns_per_call(const ProfileReport& report, const std::string& name);

}  // namespace autopipe::analysis
