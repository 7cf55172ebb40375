// Stochastic shared-cluster churn. The Microsoft trace study the paper cites
// ([7], Jeon et al., ATC'19) motivates three fluctuation sources: jobs
// joining/leaving (gang scheduling), locality-constrained placements, and
// failures. We model churn as two independent marked Poisson processes:
//
//   * GPU-intensive jobs: arrive at rate lambda_gpu, occupy `span` random
//     GPUs for an exponentially distributed duration, adding one tenant to
//     each occupied executor.
//   * Network-intensive jobs: arrive at rate lambda_net, cut a random
//     server's NIC capacity by a multiplicative factor for their duration.
//
// The generator pre-materializes the whole event schedule up to a horizon at
// install time from a seeded Rng, so experiments replay identically.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/cluster.hpp"

namespace autopipe::sim {

struct BackgroundWorkloadConfig {
  /// Mean arrivals per simulated second.
  double gpu_job_rate = 0.02;
  double net_job_rate = 0.02;
  /// Mean holding time of one background job.
  Seconds mean_gpu_job_duration = 30.0;
  Seconds mean_net_job_duration = 30.0;
  /// Stop generating arrivals beyond this horizon.
  Seconds horizon = 600.0;
};

/// Pre-materialized churn schedule bound to one cluster.
class BackgroundWorkload {
 public:
  BackgroundWorkload(BackgroundWorkloadConfig config, Rng rng);

  /// Sample the schedule and install start/stop events on the simulator.
  void install(Simulator& simulator, Cluster& cluster);

  /// Number of job arrivals materialized (after install()).
  std::size_t gpu_jobs() const { return gpu_jobs_; }
  std::size_t net_jobs() const { return net_jobs_; }

 private:
  BackgroundWorkloadConfig config_;
  Rng rng_;
  std::size_t gpu_jobs_ = 0;
  std::size_t net_jobs_ = 0;
};

}  // namespace autopipe::sim
