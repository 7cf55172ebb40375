#include "partition/analytic_eval.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"

namespace autopipe::partition {

StageCostBreakdown stage_cost(const models::ModelSpec& model,
                              const StageAssignment& stage,
                              const EnvironmentView& env, std::size_t batch) {
  AUTOPIPE_EXPECT(stage.last_layer < model.num_layers());
  StageCostBreakdown out;
  // A replicated stage processes whole mini-batches round-robin, so the
  // per-batch compute cost is the full-stage cost at the slowest member's
  // speed, amortized by the replication factor.
  const FlopsPerSec speed = env.min_speed(stage.workers);
  AUTOPIPE_EXPECT(speed > 0.0);
  const Flops work =
      model.range_fwd_flops(stage.first_layer, stage.last_layer, batch) +
      model.range_bwd_flops(stage.first_layer, stage.last_layer, batch);
  // Two passes (FP and BP) of per-layer launch overhead.
  const Seconds overhead =
      2.0 * env.per_layer_overhead * static_cast<double>(stage.num_layers());
  out.compute = work / speed + overhead;
  if (stage.replication() > 1) {
    const Bytes params =
        model.range_param_bytes(stage.first_layer, stage.last_layer);
    out.sync = comm::sync_time(env.sync_scheme, params, stage.replication(),
                               env.min_bandwidth(stage.workers),
                               env.comm_efficiency);
  }
  out.effective =
      (out.compute + out.sync) / static_cast<double>(stage.replication());
  return out;
}

Seconds boundary_transfer_time(const models::ModelSpec& model,
                               std::span<const StageAssignment> stages,
                               std::size_t boundary_stage,
                               const EnvironmentView& env, std::size_t batch) {
  AUTOPIPE_EXPECT(boundary_stage + 1 < stages.size());
  const StageAssignment& up = stages[boundary_stage];
  const StageAssignment& down = stages[boundary_stage + 1];
  const Bytes activation = model.activation_bytes(up.last_layer, batch);
  // Forward activation and backward gradient have the same size and cross
  // the same links in opposite directions; with full-duplex NICs they do
  // not contend, so the boundary's period contribution is one transfer.
  const BytesPerSec bw =
      std::min(env.min_bandwidth(up.workers), env.min_bandwidth(down.workers));
  AUTOPIPE_EXPECT(bw > 0.0);
  return activation / (bw * env.comm_efficiency);
}

Seconds analytic_batch_time(const models::ModelSpec& model,
                            std::span<const StageAssignment> stages,
                            const EnvironmentView& env, std::size_t batch) {
  Seconds bottleneck = 0.0;
  for (const StageAssignment& stage : stages)
    bottleneck =
        std::max(bottleneck, stage_cost(model, stage, env, batch).effective);
  for (std::size_t s = 0; s + 1 < stages.size(); ++s) {
    bottleneck = std::max(
        bottleneck, boundary_transfer_time(model, stages, s, env, batch));
  }
  return bottleneck;
}

double analytic_throughput(const models::ModelSpec& model,
                           std::span<const StageAssignment> stages,
                           const EnvironmentView& env, std::size_t batch) {
  const Seconds t = analytic_batch_time(model, stages, env, batch);
  AUTOPIPE_EXPECT(t > 0.0);
  return static_cast<double>(batch) / t;
}

std::size_t optimal_in_flight(const Partition& partition) {
  // PipeDream's NOW = ceil(#machines / #machines in the input stage) is a
  // *per-replica* in-flight count; the executor tracks total active
  // mini-batches, so the pipeline needs NOW batches per input replica.
  const std::size_t total = partition.num_workers();
  const std::size_t first = partition.stage(0).replication();
  const std::size_t now_per_replica = (total + first - 1) / first;
  return now_per_replica * first;
}

}  // namespace autopipe::partition
