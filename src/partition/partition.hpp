// Work partitions: the assignment of contiguous layer ranges (stages) to
// disjoint worker sets, with optional data-parallel replication inside a
// stage — PipeDream's output format, and the object AutoPipe's neighbourhood
// search perturbs.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "sim/cluster.hpp"

namespace autopipe::partition {

struct StageAssignment {
  /// Inclusive layer range [first_layer, last_layer].
  std::size_t first_layer = 0;
  std::size_t last_layer = 0;
  /// Workers replicating this stage (round-robin over mini-batches).
  std::vector<sim::WorkerId> workers;

  std::size_t num_layers() const { return last_layer - first_layer + 1; }
  std::size_t replication() const { return workers.size(); }
  bool operator==(const StageAssignment&) const = default;
};

class Partition {
 public:
  /// Validates: stages cover [0, num_layers) contiguously in order; worker
  /// sets are non-empty and pairwise disjoint.
  Partition(std::vector<StageAssignment> stages, std::size_t num_layers);

  /// One stage per worker, layers split as evenly as possible (the "even
  /// split" strategy of Megatron-LM / Chimera for uniform models).
  static Partition even_split(std::size_t num_layers,
                              std::vector<sim::WorkerId> workers);

  /// Everything on one (replicated) stage — data parallelism's shape.
  static Partition single_stage(std::size_t num_layers,
                                std::vector<sim::WorkerId> workers);

  std::size_t num_stages() const { return stages_.size(); }
  std::size_t num_layers() const { return num_layers_; }
  const StageAssignment& stage(std::size_t s) const;
  const std::vector<StageAssignment>& stages() const { return stages_; }

  /// Index of the stage containing the layer.
  std::size_t stage_of_layer(std::size_t layer) const;

  /// Stage index a worker serves, or npos if the worker is unused.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t stage_of_worker(sim::WorkerId worker) const;

  /// All workers in stage order.
  std::vector<sim::WorkerId> all_workers() const;
  std::size_t num_workers() const;

  /// Workers whose layer set differs between *this and `other` — the
  /// migration set for state switching.
  std::vector<sim::WorkerId> changed_workers(const Partition& other) const;

  /// format_stages with " | " between stages.
  std::string to_string() const;
  bool operator==(const Partition& other) const = default;

 private:
  std::vector<StageAssignment> stages_;
  std::size_t num_layers_ = 0;
};

/// The stage list as text, one "L<first>-<last>@{<worker>,...}" per stage
/// with `separator` between stages: " | " in Partition::to_string(), "|" in
/// the decision ledger, whose lines are space-separated.
std::string format_stages(std::span<const StageAssignment> stages,
                          std::string_view separator);

/// Rewrite every worker id through `worker_map`: stage worker i becomes
/// worker_map[i]. Used by job-scoped planning on a shared cluster — the
/// planner runs over a dense id space [0, owned) and the result is mapped
/// back onto the job's real (possibly non-contiguous) cluster workers.
/// Requires every referenced id to be < worker_map.size().
Partition remap_workers(const Partition& p,
                        const std::vector<sim::WorkerId>& worker_map);

/// A planner's full answer: the partition plus the number of in-flight
/// mini-batches (PipeDream's NOW) and the planner's own time estimate.
struct PlanResult {
  Partition partition;
  /// Optimal number of on-the-fly mini-batches that fills the pipeline.
  std::size_t in_flight = 1;
  /// Planner-model estimate of steady-state seconds per mini-batch.
  Seconds predicted_batch_time = 0.0;
};

}  // namespace autopipe::partition
