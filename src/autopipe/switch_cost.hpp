// Switching-cost estimation (§4.3 normalizes switching cost into the RL
// reward): a transparent analytic estimate derived from the migration
// volume and pipeline state.
#pragma once

#include <cstddef>
#include <span>

#include "common/units.hpp"
#include "models/model.hpp"
#include "partition/environment.hpp"
#include "partition/partition.hpp"

namespace autopipe::core {

struct SwitchCostEstimate {
  /// Weight bytes that must cross the network.
  Bytes migration_bytes = 0.0;
  std::size_t moved_layers = 0;
  /// Expected lost time under fine-grained (layer-by-layer, stash-ordered)
  /// switching: restaging overhead plus the slowdown from migration traffic
  /// contending with training traffic.
  Seconds fine_grained = 0.0;
  /// Expected lost time under stop-the-world: drain + transfer + refill.
  Seconds stop_the_world = 0.0;
};

/// The cost of switching from stages `from` to stages `to`, both covering
/// the model's layers (a Partition's stages(), or a planner's scratch copy
/// with a move applied). Allocates nothing.
SwitchCostEstimate analytic_switch_cost(
    const models::ModelSpec& model,
    std::span<const partition::StageAssignment> from,
    std::span<const partition::StageAssignment> to,
    const partition::EnvironmentView& env, Seconds current_batch_time,
    std::size_t in_flight, Seconds restage_overhead_per_layer);

/// The stall the estimate predicts for the given switch mode — the value
/// the controller gates on and the decision ledger records per candidate.
inline Seconds cost_for_mode(const SwitchCostEstimate& estimate,
                             bool fine_grained) {
  return fine_grained ? estimate.fine_grained : estimate.stop_the_world;
}

}  // namespace autopipe::core
