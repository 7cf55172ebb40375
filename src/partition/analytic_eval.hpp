// Closed-form steady-state pipeline model: the per-mini-batch period of a
// 1F1B pipeline is the bottleneck over (a) every stage's compute+sync time
// amortized over its replicas and (b) every inter-stage transfer. This is
// the "integrated pipeline model" evaluated against the *full* environment
// view; feeding it PipeDream's collapsed view instead reproduces PipeDream's
// planning error.
#pragma once

#include <cstddef>
#include <span>

#include "common/units.hpp"
#include "models/model.hpp"
#include "partition/environment.hpp"
#include "partition/partition.hpp"

namespace autopipe::partition {

struct StageCostBreakdown {
  Seconds compute = 0.0;      ///< whole-mini-batch FP+BP at the stage's speed
  Seconds sync = 0.0;         ///< weight sync across replicas (0 if r == 1)
  Seconds effective = 0.0;    ///< (compute + sync) / replication
};

/// Compute one stage's steady-state contribution.
StageCostBreakdown stage_cost(const models::ModelSpec& model,
                              const StageAssignment& stage,
                              const EnvironmentView& env, std::size_t batch);

/// Transfer time for the activation (forward) or gradient (backward) crossing
/// the boundary after `boundary_layer`, at the bandwidth between the two
/// stages' workers.
Seconds boundary_transfer_time(const models::ModelSpec& model,
                               std::span<const StageAssignment> stages,
                               std::size_t boundary_stage,
                               const EnvironmentView& env, std::size_t batch);

/// Steady-state seconds per mini-batch for the whole pipeline: the maximum
/// over stage costs and boundary transfers. Takes the stages alone so a
/// planner can score an edited scratch copy without building a Partition.
Seconds analytic_batch_time(const models::ModelSpec& model,
                            std::span<const StageAssignment> stages,
                            const EnvironmentView& env, std::size_t batch);

/// Images (samples) per second implied by analytic_batch_time.
double analytic_throughput(const models::ModelSpec& model,
                           std::span<const StageAssignment> stages,
                           const EnvironmentView& env, std::size_t batch);

/// The same three on a Partition's stages.
inline Seconds boundary_transfer_time(const models::ModelSpec& model,
                                      const Partition& partition,
                                      std::size_t boundary_stage,
                                      const EnvironmentView& env,
                                      std::size_t batch) {
  return boundary_transfer_time(model, partition.stages(), boundary_stage,
                                env, batch);
}
inline Seconds analytic_batch_time(const models::ModelSpec& model,
                                   const Partition& partition,
                                   const EnvironmentView& env,
                                   std::size_t batch) {
  return analytic_batch_time(model, partition.stages(), env, batch);
}
inline double analytic_throughput(const models::ModelSpec& model,
                                  const Partition& partition,
                                  const EnvironmentView& env,
                                  std::size_t batch) {
  return analytic_throughput(model, partition.stages(), env, batch);
}

/// PipeDream's NOW: in-flight mini-batches to fill the pipeline,
/// ceil(total workers / replication of the input stage).
std::size_t optimal_in_flight(const Partition& partition);

}  // namespace autopipe::partition
