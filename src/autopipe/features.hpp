// Feature engineering for the meta-network and the RL arbiter: Table-1
// snapshots, candidate partitions and environment summaries are mapped to
// fixed-width, roughly unit-scale vectors (padded to a maximum worker
// count) so one trained network serves different cluster sizes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "autopipe/profiler.hpp"
#include "partition/partition.hpp"

namespace autopipe::core {

struct FeatureConfig {
  double throughput_scale = 500.0;   // img/sec normalization for targets
};

class FeatureEncoder {
 public:
  explicit FeatureEncoder(FeatureConfig config = {});

  /// Static metrics (Table 1, rows 1-5), aggregated: layer/worker counts
  /// plus mean/max/total of per-layer work, activations and parameters.
  std::vector<double> static_features(const ProfileSnapshot& snap) const;

  /// One LSTM timestep of dynamic metrics (Table 1, rows 6-8): per-worker
  /// bandwidth and speed (padded) plus the last iteration time.
  std::vector<double> dynamic_features(const ProfileSnapshot& snap) const;

  /// The "worker partition solution" input: per worker (padded), the
  /// normalized first/last layer and replication of its stage.
  std::vector<double> partition_features(
      std::span<const partition::StageAssignment> stages,
      std::size_t num_layers) const;
  std::vector<double> partition_features(
      const partition::Partition& partition, std::size_t num_layers) const {
    return partition_features(partition.stages(), num_layers);
  }

  /// Arbiter state: dynamic summary + predicted current/candidate speeds +
  /// predicted switch cost + iterations since last switch.
  std::vector<double> arbiter_state(const ProfileSnapshot& snap,
                                    double current_speed_pred,
                                    double candidate_speed_pred,
                                    double switch_cost_pred,
                                    double iterations_since_switch) const;

  std::size_t static_dim() const;
  std::size_t dynamic_dim() const;
  std::size_t partition_dim() const;
  std::size_t arbiter_dim() const;

  const FeatureConfig& config() const { return config_; }

  /// Normalize / denormalize prediction targets (samples per second).
  double normalize_throughput(double samples_per_sec) const;
  double denormalize_throughput(double normalized) const;

 private:
  FeatureConfig config_;
};

}  // namespace autopipe::core
