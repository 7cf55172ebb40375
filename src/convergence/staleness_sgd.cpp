#include "convergence/staleness_sgd.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "nn/loss.hpp"

namespace autopipe::convergence {

namespace {
/// Max extra delay (in updates) for total asynchrony.
constexpr std::size_t kTapMaxExtraDelay = 12;
/// Strength of the systematic gradient bias that inconsistent
/// forward/backward weights introduce under total asynchrony. A gradient
/// computed with forward activations from one weight version and a backward
/// pass through another is not the gradient of any single loss; its error
/// has a persistent component that shifts the converged point. We model that
/// component as a fixed random direction with magnitude kTapBias x (initial
/// gradient scale), which reproduces the paper's observation that TAP
/// plateaus at a lower top-1 accuracy (Fig 11).
constexpr double kTapBias = 1.5;
}  // namespace

const char* to_string(StalenessMode mode) {
  switch (mode) {
    case StalenessMode::kBsp: return "BSP";
    case StalenessMode::kWeightStashing: return "WeightStashing";
    case StalenessMode::kTotalAsync: return "TAP";
  }
  return "?";
}

StalenessSgdTrainer::StalenessSgdTrainer(const Dataset& dataset,
                                         TrainerConfig config,
                                         std::uint64_t seed)
    : dataset_(dataset),
      config_(config),
      rng_(seed),
      net_([&] {
        Rng init(seed ^ 0xc2b2ae3d27d4eb4full);
        return nn::Mlp({dataset.config().dims, config.hidden,
                        dataset.config().classes},
                       nn::Activation::kTanh, nn::Activation::kSigmoid,
                       init);
      }()) {
  AUTOPIPE_EXPECT(config_.pipeline_depth >= 1);
}

nn::Mlp& StalenessSgdTrainer::version_for_delay(std::size_t delay) {
  if (delay == 0 || stash_.empty()) return net_;
  const std::size_t idx = std::min(delay, stash_.size()) - 1;
  // stash_.back() is the most recent snapshot (delay 1).
  return stash_[stash_.size() - 1 - idx];
}

void StalenessSgdTrainer::push_snapshot() {
  stash_.push_back(net_);
  const std::size_t keep = config_.pipeline_depth + kTapMaxExtraDelay + 1;
  while (stash_.size() > keep) stash_.pop_front();
}

void StalenessSgdTrainer::step() {
  nn::Matrix x, y;
  dataset_.sample_batch(rng_, config_.batch, x, y);

  // Pick the weight version(s) the gradient is computed with.
  std::size_t fwd_delay = 0, bwd_delay = 0;
  switch (config_.mode) {
    case StalenessMode::kBsp:
      break;
    case StalenessMode::kWeightStashing:
      // Consistent snapshot from pipeline_depth - 1 updates ago.
      fwd_delay = bwd_delay = config_.pipeline_depth - 1;
      break;
    case StalenessMode::kTotalAsync: {
      // Unbounded-ish random delays, *different* for forward and backward:
      // the inconsistency weight stashing exists to prevent.
      const auto max_delay = static_cast<std::int64_t>(
          config_.pipeline_depth - 1 + kTapMaxExtraDelay);
      fwd_delay = static_cast<std::size_t>(rng_.uniform_int(0, max_delay));
      bwd_delay = static_cast<std::size_t>(rng_.uniform_int(0, max_delay));
      break;
    }
  }

  nn::Matrix grad_source;
  if (fwd_delay == bwd_delay) {
    nn::Mlp& version = version_for_delay(fwd_delay);
    version.zero_grad();
    const nn::Matrix pred = version.forward(x);
    const nn::LossResult loss = nn::mse_loss(pred, y);
    version.backward(loss.grad);
    // Apply the (possibly stale) gradient to the *current* weights.
    auto stale_params = version.parameters();
    auto live_params = net_.parameters();
    for (std::size_t i = 0; i < live_params.size(); ++i) {
      for (std::size_t j = 0; j < live_params[i]->value.size(); ++j) {
        live_params[i]->value.data()[j] -=
            config_.learning_rate * stale_params[i]->grad.data()[j];
      }
    }
  } else {
    // Inconsistent: forward activations from one version, backward pass
    // through another — realized as the average of the two versions'
    // gradients plus the divergence between them acting as gradient error.
    nn::Mlp& v1 = version_for_delay(fwd_delay);
    v1.zero_grad();
    const nn::LossResult l1 = nn::mse_loss(v1.forward(x), y);
    v1.backward(l1.grad);
    nn::Mlp& v2 = version_for_delay(bwd_delay);
    if (&v1 != &v2) {
      v2.zero_grad();
      const nn::LossResult l2 = nn::mse_loss(v2.forward(x), y);
      v2.backward(l2.grad);
    }
    auto p1 = v1.parameters();
    auto p2 = v2.parameters();
    auto live = net_.parameters();

    // Calibrate the persistent-bias scale against the first inconsistent
    // gradient seen, and fix a random error direction per parameter scalar.
    if (bias_direction_.empty()) {
      double abs_sum = 0.0;
      std::size_t count = 0;
      for (std::size_t i = 0; i < live.size(); ++i) {
        bias_direction_.emplace_back();
        auto& dir = bias_direction_.back();
        dir.reserve(p1[i]->grad.size());
        for (std::size_t j = 0; j < p1[i]->grad.size(); ++j) {
          dir.push_back(rng_.chance(0.5) ? 1.0 : -1.0);
          abs_sum += std::abs(p1[i]->grad.data()[j]);
          ++count;
        }
      }
      gradient_scale_ = abs_sum / static_cast<double>(std::max<std::size_t>(1, count));
    }

    for (std::size_t i = 0; i < live.size(); ++i) {
      for (std::size_t j = 0; j < live[i]->value.size(); ++j) {
        const double g1 = p1[i]->grad.data()[j];
        const double g2 = p2[i]->grad.data()[j];
        // Mean gradient, the version divergence, and the persistent bias of
        // mixing forward activations with a mismatched backward Jacobian.
        const double mixed = 0.5 * (g1 + g2) + (g1 - g2) +
                             kTapBias * gradient_scale_ * bias_direction_[i][j];
        live[i]->value.data()[j] -= config_.learning_rate * mixed;
      }
    }
  }

  push_snapshot();
  ++steps_;
}

double StalenessSgdTrainer::test_accuracy() {
  const nn::Matrix pred = net_.forward(dataset_.test_x());
  const auto& labels = dataset_.test_labels();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < pred.cols(); ++c)
      if (pred.at(i, c) > pred.at(i, best)) best = c;
    if (best == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

std::vector<CurvePoint> accuracy_curve(const Dataset& dataset,
                                       TrainerConfig config,
                                       std::size_t total_steps,
                                       std::size_t eval_every,
                                       std::uint64_t seed) {
  AUTOPIPE_EXPECT(eval_every >= 1);
  StalenessSgdTrainer trainer(dataset, config, seed);
  std::vector<CurvePoint> curve;
  curve.push_back(CurvePoint{0, trainer.test_accuracy()});
  for (std::size_t s = 1; s <= total_steps; ++s) {
    trainer.step();
    if (s % eval_every == 0)
      curve.push_back(CurvePoint{s, trainer.test_accuracy()});
  }
  return curve;
}

}  // namespace autopipe::convergence
