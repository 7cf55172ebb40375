// Fault injection for the shared-cluster simulation. A FaultPlan is a
// deterministic schedule of hard failures — GPU preemption/eviction and
// return, NIC/link failure and flapping, transient compute stragglers and
// profiler dropouts — applied to a Cluster as first-class simulator events.
// Plans come from three sources: built by hand (tests), parsed from a
// schedule file or inline spec (`autopipe_sim --faults=`), or generated from
// a seeded ChaosSpec (the chaos harness), so the same schedule replays
// byte-identically run after run.
//
// Down/up transitions are *state* transitions, not capacity changes: a down
// GPU drops its in-flight kernels and rejects work, a down link remembers
// its nominal bandwidth and stalls (not cancels) in-flight flows. See
// docs/FAULTS.md for the fault model and the recovery semantics layered on
// top by pipeline::PipelineExecutor and autopipe::AutoPipeController.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/cluster.hpp"

namespace autopipe::faults {

struct FaultEvent {
  enum class Kind {
    kGpuDown,         ///< index = worker: preemption/eviction
    kGpuUp,           ///< index = worker: the evicted GPU returns
    kLinkDown,        ///< index = server: NIC failure (both directions)
    kLinkUp,          ///< index = server
    kStragglerBegin,  ///< index = worker, value = throughput scale in (0,1)
    kStragglerEnd,    ///< index = worker: back to nominal throughput
    kProfilerDrop,    ///< index = worker: measurements go stale
    kProfilerRestore, ///< index = worker
  };

  Kind kind = Kind::kGpuDown;
  std::size_t index = 0;
  double value = 0.0;

  /// Human-readable description for logs and harness output.
  std::string describe() const;
};

/// One scheduled point; fault schedules are anchored in simulated time.
struct FaultPoint {
  Seconds at = 0.0;
  FaultEvent event;
};

/// Shape of a seeded random fault schedule. Every outage injected is paired
/// with its recovery no later than `clear_by`, so post-fault-recovery
/// invariants have a well-defined "after the dust settles" point. One
/// randomly chosen server is never touched (its GPUs are not preempted and
/// its link never fails) so an emergency re-plan always has somewhere to go.
struct ChaosSpec {
  std::uint64_t seed = 1;
  Seconds start = 2.0;    ///< earliest injection time
  Seconds clear_by = 25.0;  ///< every fault recovered by this time
  std::size_t gpu_preemptions = 2;
  std::size_t link_failures = 1;
  std::size_t link_flaps = 1;  ///< short down/up bursts on one link
  std::size_t stragglers = 2;
  std::size_t profiler_drops = 1;
  Seconds min_outage = 0.5;
  Seconds max_outage = 4.0;
  Seconds flap_outage = 0.3;  ///< per-flap downtime
};

class FaultPlan {
 public:
  /// Append an event at absolute simulated time t.
  FaultPlan& at(Seconds t, FaultEvent ev);

  // Convenience pair schedulers (outage + recovery).
  FaultPlan& preempt_gpu(sim::WorkerId worker, Seconds t, Seconds outage);
  FaultPlan& fail_link(std::size_t server, Seconds t, Seconds outage);
  /// `flaps` down/up cycles of `outage` downtime separated by `outage` up.
  FaultPlan& flap_link(std::size_t server, Seconds t, Seconds outage,
                       std::size_t flaps);
  FaultPlan& straggle(sim::WorkerId worker, Seconds t, Seconds duration,
                      double scale);
  FaultPlan& drop_profiler(sim::WorkerId worker, Seconds t, Seconds duration);

  /// Schedule every point on the simulator (events labelled
  /// "fault_injection"). `on_fault`, if set, fires after each applied event.
  void install(sim::Simulator& simulator, sim::Cluster& cluster,
               std::function<void(const FaultEvent&)> on_fault = {}) const;

  /// Apply one event to the cluster now.
  static void apply(const FaultEvent& ev, sim::Cluster& cluster);

  const std::vector<FaultPoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }

  /// Time of the last scheduled point (0 for an empty plan).
  Seconds horizon() const;

  // Event constructors.
  static FaultEvent gpu_down(sim::WorkerId worker);
  static FaultEvent gpu_up(sim::WorkerId worker);
  static FaultEvent link_down(std::size_t server);
  static FaultEvent link_up(std::size_t server);
  static FaultEvent straggler_begin(sim::WorkerId worker, double scale);
  static FaultEvent straggler_end(sim::WorkerId worker);
  static FaultEvent profiler_drop(sim::WorkerId worker);
  static FaultEvent profiler_restore(sim::WorkerId worker);

 private:
  std::vector<FaultPoint> points_;
};

/// Generate a seeded random plan shaped by `spec` for a cluster of the given
/// size. Same (spec, shape) → identical plan.
FaultPlan random_plan(const ChaosSpec& spec, std::size_t num_servers,
                      std::size_t gpus_per_server);

/// Parse a `--faults=` spec:
///  * `@path` — schedule file, one event per line:
///        <time> gpu_down <worker>
///        <time> gpu_up <worker>
///        <time> link_down <server>
///        <time> link_up <server>
///        <time> straggler_begin <worker> <scale>
///        <time> straggler_end <worker>
///        <time> profiler_drop <worker>
///        <time> profiler_restore <worker>
///    Blank lines and lines starting with '#' are ignored.
///  * `random:key=value,...` — seeded ChaosSpec; keys: seed, start, clear,
///    gpus, links, flaps, stragglers, profiler_drops, min_outage,
///    max_outage.
///  * anything else — inline schedule, lines separated by ';'.
/// Throws contract_error with a line/key diagnostic on a malformed spec.
FaultPlan parse_spec(const std::string& spec, std::size_t num_servers,
                     std::size_t gpus_per_server);

}  // namespace autopipe::faults
