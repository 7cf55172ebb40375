#include "autopipe/switch_cost.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace autopipe::core {

SwitchCostEstimate analytic_switch_cost(
    const models::ModelSpec& model,
    std::span<const partition::StageAssignment> from,
    std::span<const partition::StageAssignment> to,
    const partition::EnvironmentView& env, Seconds current_batch_time,
    std::size_t in_flight, Seconds restage_overhead_per_layer) {
  SwitchCostEstimate est;

  // Migration volume: one weight version of every layer per holder it gains
  // (the stash-ordered scheme transfers the latest version and reconstructs
  // the rest locally). One cursor per stage list walks the layers in runs
  // that lie in a single stage of each, so a run's old and new holders are
  // fixed; bytes are still summed layer by layer, then holder by holder.
  BytesPerSec worst_bw = env.uniform_bandwidth();
  auto old_stage = from.begin();
  auto new_stage = to.begin();
  for (std::size_t first = 0; first < model.num_layers();) {
    AUTOPIPE_EXPECT(old_stage != from.end() && new_stage != to.end());
    const std::size_t last =
        std::min(old_stage->last_layer, new_stage->last_layer);
    const auto& old_ws = old_stage->workers;
    const auto& new_ws = new_stage->workers;
    std::size_t gained = 0;  // holders of the run new to its layers
    if (old_ws != new_ws) {
      for (sim::WorkerId w : new_ws) {
        if (std::find(old_ws.begin(), old_ws.end(), w) != old_ws.end())
          continue;
        ++gained;
        worst_bw = std::min(worst_bw, env.worker_bandwidth.at(w));
      }
    }
    if (gained > 0) {
      est.moved_layers += last - first + 1;
      for (std::size_t layer = first; layer <= last; ++layer) {
        for (std::size_t i = 0; i < gained; ++i)
          est.migration_bytes += model.param_bytes(layer);
      }
    }
    if (old_stage->last_layer == last) ++old_stage;
    if (new_stage->last_layer == last) ++new_stage;
    first = last + 1;
  }
  AUTOPIPE_EXPECT(worst_bw > 0.0);
  const Seconds transfer =
      est.migration_bytes / (worst_bw * env.comm_efficiency);

  // Stop-the-world: the pipeline drains (in_flight batches complete with no
  // refill), the transfer happens cold, and the restarted pipeline pays a
  // fill bubble of the same depth (Fig 2's startup state).
  est.stop_the_world =
      2.0 * static_cast<double>(in_flight) * current_batch_time + transfer;

  // Fine-grained: training continues; the visible cost is the per-layer
  // restaging on the affected workers plus the share of the transfer that
  // surfaces as contention-induced slowdown (the migration flow takes a
  // max-min fair share alongside roughly two training flows per link).
  constexpr double kContentionShare = 1.0 / 3.0;
  est.fine_grained =
      restage_overhead_per_layer * static_cast<double>(est.moved_layers) +
      kContentionShare * transfer;
  return est;
}

}  // namespace autopipe::core
