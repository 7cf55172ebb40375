// Staleness-aware SGD: the mechanics behind Fig 11's accuracy-vs-time
// comparison. One trainer instance reproduces each paradigm's weight-update
// semantics exactly:
//
//   * BSP — gradients computed at the current weights (delay 0);
//   * PipeDream / AutoPipe (weight stashing) — gradients computed at the
//     consistent snapshot from `pipeline_depth - 1` updates ago: stale but
//     the same version in forward and backward, PipeDream's guarantee;
//   * TAP (total asynchrony) — forward and backward run on *different*
//     stale versions (no stashing), with random unbounded delay: the
//     inconsistent-weights failure mode the paper measures at 1.35-1.42x
//     worse converged accuracy.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "convergence/dataset.hpp"
#include "nn/mlp.hpp"

namespace autopipe::convergence {

enum class StalenessMode {
  kBsp,
  kWeightStashing,  // PipeDream and AutoPipe
  kTotalAsync,      // TAP
};

const char* to_string(StalenessMode mode);

struct TrainerConfig {
  std::size_t hidden = 32;
  double learning_rate = 0.05;
  std::size_t batch = 32;
  StalenessMode mode = StalenessMode::kBsp;
  /// Pipeline depth: the staleness bound under weight stashing and the
  /// delay scale under total asynchrony.
  std::size_t pipeline_depth = 4;
};

class StalenessSgdTrainer {
 public:
  StalenessSgdTrainer(const Dataset& dataset, TrainerConfig config,
                      std::uint64_t seed);

  /// One SGD update under the configured staleness semantics.
  void step();

  /// Top-1 accuracy on the held-out set.
  double test_accuracy();

  std::size_t steps_done() const { return steps_; }
  const TrainerConfig& config() const { return config_; }

 private:
  nn::Mlp& version_for_delay(std::size_t delay);
  void push_snapshot();

  const Dataset& dataset_;
  TrainerConfig config_;
  Rng rng_;
  nn::Mlp net_;
  /// Ring of past weight versions, newest at the back.
  std::deque<nn::Mlp> stash_;
  std::size_t steps_ = 0;
  /// TAP's persistent gradient-bias direction (one entry in {-1,+1} per
  /// parameter scalar) and the gradient scale it is calibrated against.
  std::vector<std::vector<double>> bias_direction_;
  double gradient_scale_ = 0.0;
};

/// A (time-free) accuracy curve: accuracy after every `eval_every` steps.
struct CurvePoint {
  std::size_t step = 0;
  double accuracy = 0.0;
};
std::vector<CurvePoint> accuracy_curve(const Dataset& dataset,
                                       TrainerConfig config,
                                       std::size_t total_steps,
                                       std::size_t eval_every,
                                       std::uint64_t seed);

}  // namespace autopipe::convergence
