// Scripted resource fluctuation. The paper's dynamic experiments flip
// resources at fixed points ("change the bandwidth to 25Gbps at the 20th
// iteration", "add one more training job at the 40th iteration"); a
// ResourceTrace encodes such a script so benchmarks replay it exactly.
// Trace points are anchored in completed training iterations (the executor
// reports iteration counts).
#pragma once

#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/cluster.hpp"

namespace autopipe::sim {

struct TraceEvent {
  enum class Kind {
    kSetAllNicBandwidth,  ///< value = bytes/sec
    kSetNicBandwidth,     ///< index = server, value = bytes/sec
    kAddGpuJob,           ///< index = worker
    kAddJobAllGpus,       ///< background job spanning every GPU
  };

  Kind kind;
  std::size_t index = 0;
  double value = 0.0;

  /// Human-readable description for logs and benchmark output.
  std::string describe() const;
};

/// One scheduled point in the script.
struct TracePoint {
  /// Completed iteration count the event fires at.
  std::size_t iteration = 0;
  TraceEvent event;
};

class ResourceTrace {
 public:
  ResourceTrace& at_iteration(std::size_t iter, TraceEvent ev);

  /// Apply every point anchored at `iter`. Called by the training loop after
  /// each completed iteration. Returns how many fired.
  std::size_t apply_iteration(std::size_t iter, Cluster& cluster) const;

  static void apply(const TraceEvent& ev, Cluster& cluster);

  // Event constructors.
  static TraceEvent set_all_nic_bandwidth(BytesPerSec bw);
  static TraceEvent set_nic_bandwidth(std::size_t server, BytesPerSec bw);
  static TraceEvent add_gpu_job(WorkerId worker);
  static TraceEvent add_job_all_gpus();

 private:
  std::vector<TracePoint> points_;
};

}  // namespace autopipe::sim
