#include "autopipe/features.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace autopipe::core {

namespace {
/// Worker slots every per-worker feature is padded to.
constexpr std::size_t kMaxWorkers = 16;
// Normalization scales (chosen near the testbed's operating point).
constexpr double kBandwidthScale = 12.5e9;  // 100 Gbps in bytes/sec
constexpr double kSpeedScale = 5e12;        // ~1 contended P100
constexpr double kBytesScale = 512.0 * 1024 * 1024;
constexpr double kTimeScale = 1.0;          // iteration seconds
}  // namespace

FeatureEncoder::FeatureEncoder(FeatureConfig config) : config_(config) {}

std::vector<double> FeatureEncoder::static_features(
    const ProfileSnapshot& snap) const {
  std::vector<double> f;
  f.push_back(static_cast<double>(snap.num_layers) / 64.0);
  f.push_back(static_cast<double>(snap.num_workers) /
              static_cast<double>(kMaxWorkers));

  auto aggregate = [&](const std::vector<double>& xs, double scale) {
    double total = 0.0, mx = 0.0;
    for (double x : xs) {
      total += x;
      mx = std::max(mx, x);
    }
    f.push_back(total / scale / static_cast<double>(std::max<std::size_t>(
                                    1, xs.size())));  // mean
    f.push_back(mx / scale);                          // max
    f.push_back(total / scale / 16.0);                // total (damped)
  };
  aggregate(snap.activation_bytes, kBytesScale);
  aggregate(snap.gradient_bytes, kBytesScale);
  aggregate(snap.param_bytes, kBytesScale);
  return f;
}

std::vector<double> FeatureEncoder::dynamic_features(
    const ProfileSnapshot& snap) const {
  std::vector<double> f;
  f.reserve(2 * kMaxWorkers + 1);
  for (std::size_t w = 0; w < kMaxWorkers; ++w) {
    f.push_back(w < snap.worker_bandwidth.size()
                    ? snap.worker_bandwidth[w] / kBandwidthScale
                    : 0.0);
  }
  for (std::size_t w = 0; w < kMaxWorkers; ++w) {
    f.push_back(w < snap.worker_speed.size()
                    ? snap.worker_speed[w] / kSpeedScale
                    : 0.0);
  }
  f.push_back(snap.iteration_time / kTimeScale);
  return f;
}

std::vector<double> FeatureEncoder::partition_features(
    std::span<const partition::StageAssignment> stages,
    std::size_t num_layers) const {
  AUTOPIPE_EXPECT(num_layers > 0);
  std::vector<double> f(3 * kMaxWorkers + 1, 0.0);
  for (const partition::StageAssignment& stage : stages) {
    for (sim::WorkerId w : stage.workers) {
      if (w >= kMaxWorkers) continue;
      f[3 * w + 0] = static_cast<double>(stage.first_layer) /
                     static_cast<double>(num_layers);
      f[3 * w + 1] = static_cast<double>(stage.last_layer + 1) /
                     static_cast<double>(num_layers);
      f[3 * w + 2] = static_cast<double>(stage.replication()) /
                     static_cast<double>(kMaxWorkers);
    }
  }
  f.back() = static_cast<double>(stages.size()) /
             static_cast<double>(kMaxWorkers);
  return f;
}

std::vector<double> FeatureEncoder::arbiter_state(
    const ProfileSnapshot& snap, double current_speed_pred,
    double candidate_speed_pred, double switch_cost_pred,
    double iterations_since_switch) const {
  std::vector<double> f = dynamic_features(snap);
  f.push_back(normalize_throughput(current_speed_pred));
  f.push_back(normalize_throughput(candidate_speed_pred));
  f.push_back(normalize_throughput(candidate_speed_pred) -
              normalize_throughput(current_speed_pred));
  f.push_back(switch_cost_pred / kTimeScale);
  f.push_back(std::min(iterations_since_switch, 50.0) / 50.0);
  return f;
}

std::size_t FeatureEncoder::static_dim() const { return 2 + 3 * 3; }

std::size_t FeatureEncoder::dynamic_dim() const {
  return 2 * kMaxWorkers + 1;
}

std::size_t FeatureEncoder::partition_dim() const {
  return 3 * kMaxWorkers + 1;
}

std::size_t FeatureEncoder::arbiter_dim() const {
  return dynamic_dim() + 5;
}

double FeatureEncoder::normalize_throughput(double samples_per_sec) const {
  return samples_per_sec / config_.throughput_scale;
}

double FeatureEncoder::denormalize_throughput(double normalized) const {
  return normalized * config_.throughput_scale;
}

}  // namespace autopipe::core
