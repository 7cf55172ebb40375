// Helpers the end-to-end benchmark shares across workloads: a result
// digest, process memory probes, and the fold of host-profiler spans into
// per-layer self times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/profile.hpp"

namespace autopipe::e2e {

/// FNV-1a over the exact bytes of what is added, so two runs digest equal
/// only when every simulated number is bit-identical.
class Digest {
 public:
  Digest& add(std::uint64_t v);
  Digest& add(double v);
  Digest& add(std::string_view s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Linearly interpolated percentile, p in [0, 100]; 0 for no samples.
double percentile(const std::vector<double>& samples, double p);

/// Peak resident memory of this process over its whole life, in MiB.
double peak_rss_mib();

/// Restart the kernel's resident-memory high-water mark at the current
/// size (Linux /proc/self/clear_refs), so hwm_rss_mib() afterwards gives
/// the peak of one phase. Returns false when the kernel refuses.
bool reset_peak_rss();
double hwm_rss_mib();

/// Restrict the calling thread, and the threads it starts later, to the
/// `count` CPUs of the process's original affinity mask that run a short
/// probe of event-queue and tree work fastest. On a shared host the vCPUs'
/// speeds differ by up to 1.4x for seconds at a time, and a thread the
/// scheduler leaves on a slow one stays slow for a whole run.
void pin_to_fastest_cpus(std::size_t count);

/// The layers the benchmark reports, in report order.
const std::vector<std::string>& layer_names();

/// A span belongs to the layer named before its '/', except the
/// controller's own "planner/decide_round", "planner/replan" and
/// "predictor/infer" spans (autopipe) and the DP's "planner/solve"
/// (partition).
std::string layer_of_span(std::string_view span_name);

/// Host-profiler spans of one traced round, folded per layer.
struct LayerProfile {
  /// Per layer: time in its spans minus the time of their child spans, in
  /// seconds. The aggregate-only event-queue spans count as sim self time
  /// and are taken out of `loop_layer`, the layer whose call drives the
  /// event loop they run in.
  std::map<std::string, double> self_s;
  /// Per span name: inclusive seconds and number of calls.
  std::map<std::string, double> total_s;
  std::map<std::string, double> calls;
  /// Microseconds of every controller planning round
  /// ("planner/decide_round"), for its latency percentiles.
  std::vector<double> decide_round_us;
};

LayerProfile fold_profile(const std::vector<prof::ThreadProfile>& threads,
                          const std::string& loop_layer);

}  // namespace autopipe::e2e
