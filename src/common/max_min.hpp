// Max-min fair rate allocation, and its replay over a trace.
//
// `max_min_rates` is the progressive filling the flow network rates its
// flows with (sim/flow_network.hpp). It lives here, below the simulator, so
// that readers of a trace can run the very same arithmetic: the trace
// records each resource's capacity (`cap:<resource>` counters) and each
// flow's lifetime and path (`flow` b/e records), and `LoadReplay` turns
// those back into each resource's allocated load. The trace therefore
// carries no load values of its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace autopipe::common {

/// Buffers reused across max_min_rates calls, so steady state allocates
/// nothing.
struct MaxMinScratch {
  std::vector<double> cap;
  std::vector<std::size_t> count;
  std::vector<std::uint32_t> unfrozen;
};

/// Progressive filling: `rates[f]` becomes flow f's max-min fair share of
/// the resources `paths[f]` (indices into `capacity`, duplicate-free).
/// Repeatedly the resource with the smallest fair share (remaining capacity
/// over the unfrozen flows through it) is the bottleneck; every unfrozen
/// flow through it is pinned to that share, which is deducted along its
/// path. Resources are scanned in index order (the first smallest share
/// wins) and flows in index order, so the result, down to the last bit, is
/// a function of those orders: callers that must agree keep them.
void max_min_rates(std::span<const double> capacity,
                   std::span<const std::vector<std::size_t>> paths,
                   std::span<double> rates, MaxMinScratch& scratch);

/// Rebuilds each resource's load, the sum of the rates of the flows through
/// it, from a flow network's trace records fed in timestamp order. At the
/// end of every instant that changed something it rates the active flows
/// with max_min_rates and reports each resource whose load changed (every
/// load starts at 0).
///
/// Resources are indexed in the order of their first capacity record, which
/// is the order the flow network adds them in, and flows are rated in id
/// order, the network's slot order. So the loads equal the simulator's after
/// its last re-rate of the instant, bit for bit, whenever the capacities fed
/// are the exact values (in process, or printed exactly by "%.9g"). One flow
/// network per trace: flow ids must be unique. A path resource with no
/// capacity record yet is left out of that flow's path.
class LoadReplay {
 public:
  /// Receives one changed load: the instant, the resource index and the
  /// load.
  using OnLoad =
      std::function<void(double ts, std::size_t resource, double load)>;

  explicit LoadReplay(OnLoad on_load) : on_load_(std::move(on_load)) {}

  /// A `cap:<resource>` counter; returns the resource's index.
  std::size_t capacity(double ts, std::string_view resource, double value);
  /// A flow's `b` record; `path` is its comma-joined resource names.
  void begin_flow(double ts, std::uint64_t id, std::string_view path);
  /// A flow's `e` record, completed or cancelled.
  void end_flow(double ts, std::uint64_t id);
  /// Closes the last instant: call once, after the last record.
  void finish();

  const std::string& resource_name(std::size_t resource) const {
    return names_[resource];
  }

 private:
  /// Rates and reports the instant that is open, if it changed anything,
  /// when a record of a later instant arrives.
  void advance(double ts);
  void close_instant();

  OnLoad on_load_;
  std::vector<std::string> names_;
  std::map<std::string, std::size_t, std::less<>> index_;
  std::vector<double> capacity_;
  std::vector<double> load_;  ///< last reported, per resource
  // Active flows, sorted by id.
  std::vector<std::uint64_t> flow_id_;
  std::vector<std::vector<std::size_t>> flow_path_;
  std::vector<double> rates_;
  std::vector<double> sum_;
  MaxMinScratch scratch_;
  double instant_ = 0.0;
  bool changed_ = false;  ///< the open instant changed a flow or capacity
};

}  // namespace autopipe::common
