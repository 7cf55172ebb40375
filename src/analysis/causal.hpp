// Causal event-graph analysis over a recorded trace. The recorder stamps
// every non-counter event with an eid and the eid of the event that caused
// it (common/trace.hpp); reassembling those links yields a DAG whose edges
// carry delay: the contribution of edge parent→child is how much later the
// child finished than its cause. Walking the DAG backward from the event
// that ends a slow interval recovers the *dominant delay chain* — the
// concrete sequence fault → rescheduled flow → starved stage → late
// iteration mark — and aggregating edge classes over the interval yields a
// stall ledger that names where the time went, by mechanism rather than by
// row. Complements the interval-based critical path (critical_path.hpp),
// which infers dependencies from abutting timestamps; here the dependencies
// are the recorded ones, so the chain survives coincidental abutment and
// crosses layers (compute → flow → fault) that timestamp inference cannot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/trace_view.hpp"
#include "common/trace.hpp"

namespace autopipe::analysis {

/// When an event's effect was complete: span end for 'X', the timestamp
/// itself for instants, marks and async delimiters.
inline double event_end(const trace::Event& ev) {
  return ev.phase == 'X' ? ev.ts + ev.dur : ev.ts;
}

/// One causal edge parent→child with its delay contribution:
/// end(child) − end(parent), clamped at zero (a cause that outlived its
/// effect — e.g. an aggregate span — contributes nothing).
struct CausalEdge {
  std::size_t parent = 0;  ///< index into CausalGraph::events()
  std::size_t child = 0;
  double contribution = 0.0;
  std::string_view cls;  ///< stall-ledger class, see classify_edge
};

/// Stall-ledger class of the edge parent→child, derived from the endpoint
/// categories: "link_outage"/"gpu_outage"/"fault" (a fault instant caused
/// the child), "resource_shift" (bandwidth or background-load change),
/// "flow_stall" (comm waiting on comm), "stage_starve" (compute waiting on
/// comm), "compute_chain", "comm_launch" (comm following compute),
/// "bubble" (edge into an iteration mark), "iteration_chain" (work kicked
/// off by an iteration mark), "reconfig" (switch protocol), "control", or
/// "<parent-category>-><child-category>" as a fallback. One class outranks
/// all of these: "tenant_contention", an edge whose endpoints carry
/// *different* job= args — cross-job interference on a co-tenant cluster
/// (e.g. an arbiter grant to one job causing another job's abort).
/// The class names live in static storage, so an edge stores a view.
std::string_view classify_edge(const trace::Event& parent,
                               const trace::Event& child);

/// The event DAG reconstructed from recorded eid/cause links.
class CausalGraph {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit CausalGraph(std::vector<trace::Event> events);

  const std::vector<trace::Event>& events() const { return events_; }
  const std::vector<CausalEdge>& edges() const { return edges_; }

  /// Index of the event carrying `eid`, or npos.
  std::size_t index_of_eid(std::uint64_t eid) const;
  /// Index into edges() of the edge into event `i` (from its recorded
  /// cause), or npos for a root / non-causal event.
  std::size_t parent_edge(std::size_t i) const { return parent_edge_[i]; }

  /// Events carrying an eid (counters and pre-causality traces have none).
  std::size_t causal_events() const { return causal_events_; }
  /// Cause references that resolve to no recorded event (truncated trace).
  std::size_t dangling_causes() const { return dangling_causes_; }

 private:
  std::vector<trace::Event> events_;
  std::vector<std::size_t> eid_to_index_;  ///< eid-1 → event index
  std::vector<std::size_t> parent_edge_;
  std::vector<CausalEdge> edges_;
  std::size_t causal_events_ = 0;
  std::size_t dangling_causes_ = 0;
};

/// One link of a backward-walked chain. The root link has edge == npos and
/// contribution 0; every later link names the edge from the previous link's
/// event into this one.
struct ChainLink {
  std::size_t event = CausalGraph::npos;
  std::size_t edge = CausalGraph::npos;
  double contribution = 0.0;
};

/// A causal chain, root first.
struct CausalChain {
  std::vector<ChainLink> links;
  /// Wall-clock spanned: end(terminal) − ts(root).
  double duration = 0.0;
  /// Sum of edge contributions — the exact weighted causal path length.
  double weighted = 0.0;
};

/// The causal critical path: the recorded-cause chain ending at the
/// latest-finishing causal event. Cross-validate against the interval-based
/// extract_critical_path: on a complete trace both span the run, so
/// duration ≈ CriticalPath.wall_clock.
CausalChain critical_chain(const CausalGraph& g);

/// Per-class delay aggregate over a window's edges.
struct LedgerEntry {
  std::string cls;
  double seconds = 0.0;
  std::size_t edges = 0;
  double share = 0.0;  ///< of the window's total edge contribution
};

struct BlameReport {
  double window_begin = 0.0;
  double window_end = 0.0;
  /// Causal events whose end lies inside the window.
  std::size_t window_events = 0;
  /// Dominant delay chain: backward walk from the latest-finishing causal
  /// event in the window, through recorded causes, to the DAG root — the
  /// walk deliberately crosses the window's left edge so a fault injected
  /// earlier still appears. Root first; empty when the window holds no
  /// causal event.
  CausalChain chain;
  /// The injected disturbance the chain blames: the chain's rootmost
  /// fault/resource-category event; when the chain passes through none,
  /// the parent of its heaviest edge; npos for an empty chain.
  std::size_t root_cause = CausalGraph::npos;
  /// Stall ledger over edges whose child ends inside the window,
  /// heaviest class first.
  std::vector<LedgerEntry> ledger;
  double ledger_seconds = 0.0;  ///< total over all classes
};

/// Blame a wall-clock window [t0, t1].
BlameReport blame_window(const CausalGraph& g, double t0, double t1);

/// Co-tenancy variant: a non-zero `job` anchors the dominant chain at the
/// latest event tagged job=<job> inside the window instead of whichever
/// tenant's event happens to finish last. The stall ledger still aggregates
/// every edge ending in the window. job == 0 is the plain overload.
BlameReport blame_window(const CausalGraph& g, double t0, double t1,
                         std::uint64_t job);

/// Blame iteration `n` (1-based): the window from the previous iteration
/// mark (or the start of the trace) to mark n. Throws when the trace holds
/// fewer than n marks.
BlameReport blame_iteration(const CausalGraph& g, const TraceView& view,
                            std::size_t n);

/// Co-tenancy variant: iteration `n` *of job `job`*, counted over the
/// job-tagged iteration marks only (requires job > 0; a fleet trace
/// interleaves every tenant's marks).
BlameReport blame_iteration(const CausalGraph& g, std::size_t n,
                            std::uint64_t job);

/// Human-readable report: window, root cause, the chain's top contributing
/// links (at most `top`, ≥1% of the chain's weight), and the stall ledger.
void render_blame(const BlameReport& report, const CausalGraph& g,
                  std::size_t top, std::ostream& os);

/// Machine-readable report (schema "autopipe-blame-v1"), full chain.
void write_blame_json(const BlameReport& report, const CausalGraph& g,
                      std::ostream& os);

}  // namespace autopipe::analysis
