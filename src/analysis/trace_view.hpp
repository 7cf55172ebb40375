// Indexed view over a recorded trace: the event semantics the recorder
// established (worker rows for fp/bp, the network row for transfers, flows
// and cap: counters, the control row for switches and iteration marks)
// turned into the structures every analysis needs — per-worker occupancy
// interval sets, switch spans, iteration completion times, per-resource
// saturation windows and an inferred worker→server mapping. Loads are not
// read from the trace: common::LoadReplay derives them from the cap:
// counters and flow records, and `load:` counters of older traces are
// ignored.
//
// The view borrows the caller's decoded events rather than copying them, so
// a trace is held in memory once however many analyses read it. The vector
// must outlive the view and stay unchanged while the view is in use.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/interval.hpp"
#include "common/trace.hpp"

namespace autopipe::analysis {

/// One completed flow reconstructed from a 'b'/'e' async pair.
struct FlowRecord {
  std::uint64_t id = 0;
  double begin = 0.0;
  double end = 0.0;
  double bytes = 0.0;
  bool cancelled = false;
  std::string path;  ///< comma-joined resource names from the 'b' event
};

class TraceView {
 public:
  /// Indexes `events` in place; the view keeps pointers into the vector.
  explicit TraceView(const std::vector<trace::Event>& events);
  /// A temporary vector would die under the view: name it first.
  explicit TraceView(std::vector<trace::Event>&&) = delete;

  const std::vector<trace::Event>& events() const { return *events_; }

  /// End of the run: the latest instant any event touches.
  double wall_clock() const { return wall_clock_; }

  /// Worker (GPU) pids observed in the trace, sorted.
  const std::vector<int>& workers() const { return workers_; }

  // --- per-worker occupancy ---------------------------------------------

  /// Union of the worker's fp+bp compute spans.
  const IntervalSet& compute_busy(int worker) const;
  const IntervalSet& fp_busy(int worker) const;
  const IntervalSet& bp_busy(int worker) const;
  /// Union of communication spans involving the worker: transfers with the
  /// worker as src or dst, plus weight-sync collectives rooted on it.
  const IntervalSet& comm_busy(int worker) const;
  /// The worker's fp/bp spans sorted by start time.
  const std::vector<const trace::Event*>& compute_spans(int worker) const;

  // --- control-row structure ----------------------------------------------

  /// Completed `switch` spans (request to adoption), in time order.
  const std::vector<const trace::Event*>& switch_spans() const {
    return switch_spans_;
  }
  /// `switch_aborted` spans (request to abort), in time order — attempts
  /// that rolled back instead of committing.
  const std::vector<const trace::Event*>& aborted_switch_spans() const {
    return aborted_switch_spans_;
  }
  /// Union of the switch spans — the reconfiguration windows.
  const IntervalSet& switch_windows() const { return switch_windows_; }
  /// Timestamps of the per-iteration completion marks, sorted.
  const std::vector<double>& iteration_marks() const {
    return iteration_marks_;
  }

  // --- network ------------------------------------------------------------

  /// Completed flows ('b' paired with 'e'), in begin order.
  const std::vector<FlowRecord>& flows() const { return flows_; }

  /// Windows during which the named resource (e.g. "server0.nic.tx") was
  /// allocated at its full then-current capacity: cap > 0 and the derived
  /// load ≥ cap·(1 − 1e-9).
  const IntervalSet& resource_saturated(const std::string& resource) const;
  /// All resource names seen in cap: counters, sorted.
  std::vector<std::string> resource_names() const;

  /// Windows during which any NIC (tx or rx) or PCIe bus of the worker's
  /// server was saturated — the "capped flow on that worker's NIC" signal
  /// bubble attribution classifies contention stalls with. Empty when the
  /// worker could not be mapped to a server.
  const IntervalSet& nic_saturated(int worker) const;

  /// Server hosting the worker, inferred by correlating transfer spans with
  /// flow paths; -1 when the worker never communicated and no uniform
  /// workers-per-server layout fits the observed pairs.
  int server_of(int worker) const;

  // --- faults ---------------------------------------------------------------

  /// Windows during which the worker was fault-afflicted: its own
  /// gpu_down→gpu_up outages, its server's link_down→link_up outages, and
  /// the pipeline-wide pipeline_wedged→pipeline_recovered stalls. Unclosed
  /// windows run to wall_clock(). Stragglers and profiler dropouts are not
  /// downtime and are excluded.
  const IntervalSet& fault_windows(int worker) const;

 private:
  void index_events();
  void build_saturation();
  void infer_servers();
  void build_fault_windows();

  const std::vector<trace::Event>* events_;
  double wall_clock_ = 0.0;
  std::vector<int> workers_;

  struct WorkerIndex {
    IntervalSet compute;
    IntervalSet fp;
    IntervalSet bp;
    IntervalSet comm;
    IntervalSet nic_saturated;
    IntervalSet fault;
    std::vector<const trace::Event*> compute_spans;
    int server = -1;
  };
  std::map<int, WorkerIndex> per_worker_;

  std::vector<const trace::Event*> switch_spans_;
  std::vector<const trace::Event*> aborted_switch_spans_;
  IntervalSet switch_windows_;
  std::vector<double> iteration_marks_;
  std::vector<FlowRecord> flows_;
  std::map<std::string, IntervalSet> saturated_;

  static const IntervalSet kEmptySet;
  static const std::vector<const trace::Event*> kNoSpans;
};

}  // namespace autopipe::analysis
