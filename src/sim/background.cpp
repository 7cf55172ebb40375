#include "sim/background.hpp"

#include <algorithm>
#include <memory>

#include "common/expect.hpp"
#include "common/log.hpp"

namespace autopipe::sim {

namespace {
/// How many GPUs one GPU-intensive job occupies.
constexpr std::size_t kGpuJobSpan = 1;
/// Multiplicative NIC capacity cut while a network job holds a server (the
/// paper's "available bandwidth is halved").
constexpr double kNetBandwidthFactor = 0.5;
}  // namespace

BackgroundWorkload::BackgroundWorkload(BackgroundWorkloadConfig config,
                                       Rng rng)
    : config_(config), rng_(rng) {
  AUTOPIPE_EXPECT(config_.gpu_job_rate >= 0.0);
  AUTOPIPE_EXPECT(config_.net_job_rate >= 0.0);
  AUTOPIPE_EXPECT(config_.horizon > 0.0);
}

void BackgroundWorkload::install(Simulator& simulator, Cluster& cluster) {
  // GPU-intensive arrivals.
  if (config_.gpu_job_rate > 0.0) {
    Seconds t = 0.0;
    while (true) {
      t += rng_.exponential(1.0 / config_.gpu_job_rate);
      if (t > config_.horizon) break;
      const Seconds duration =
          rng_.exponential(config_.mean_gpu_job_duration);
      // Pick `span` distinct workers.
      std::vector<WorkerId> all(cluster.num_workers());
      for (WorkerId w = 0; w < all.size(); ++w) all[w] = w;
      rng_.shuffle(all);
      const std::size_t span = std::min(kGpuJobSpan, all.size());
      auto occupied = std::make_shared<std::vector<WorkerId>>(
          all.begin(), all.begin() + static_cast<std::ptrdiff_t>(span));
      simulator.at(t, [&cluster, occupied] {
        for (WorkerId w : *occupied) cluster.add_background_job(w);
      });
      simulator.at(t + duration, [&cluster, occupied] {
        for (WorkerId w : *occupied) cluster.remove_background_job(w);
      });
      ++gpu_jobs_;
    }
  }
  // Network-intensive arrivals.
  if (config_.net_job_rate > 0.0) {
    Seconds t = 0.0;
    while (true) {
      t += rng_.exponential(1.0 / config_.net_job_rate);
      if (t > config_.horizon) break;
      const Seconds duration =
          rng_.exponential(config_.mean_net_job_duration);
      const auto server = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(cluster.num_servers()) - 1));
      const double factor = kNetBandwidthFactor;
      // Scale the configured bandwidth, not the link-masked effective one:
      // a tenant arriving during a link outage would otherwise read 0 and
      // pin the server's NIC at zero long after the link recovers.
      simulator.at(t, [&cluster, server, factor] {
        cluster.set_nic_bandwidth(
            server, cluster.configured_nic_bandwidth(server) * factor);
      });
      simulator.at(t + duration, [&cluster, server, factor] {
        cluster.set_nic_bandwidth(
            server, cluster.configured_nic_bandwidth(server) / factor);
      });
      ++net_jobs_;
    }
  }
  LOG_INFO("background workload installed: " << gpu_jobs_ << " gpu jobs, "
                                             << net_jobs_ << " net jobs");
}

}  // namespace autopipe::sim
