#include "autopipe/resource_monitor.hpp"

#include <cmath>
#include <sstream>

#include "common/expect.hpp"

namespace autopipe::core {

ResourceMonitor::ResourceMonitor(double relative_threshold, double ema_alpha,
                                 std::size_t persistence)
    : threshold_(relative_threshold),
      alpha_(ema_alpha),
      persistence_(persistence) {
  AUTOPIPE_EXPECT(threshold_ > 0.0);
  AUTOPIPE_EXPECT(alpha_ > 0.0 && alpha_ <= 1.0);
  AUTOPIPE_EXPECT(persistence_ >= 1);
}

ResourceChange ResourceMonitor::update(const ProfileSnapshot& snapshot) {
  ResourceChange change;
  if (!primed_) {
    bw_baseline_.assign(snapshot.worker_bandwidth.begin(),
                        snapshot.worker_bandwidth.end());
    speed_baseline_.assign(snapshot.worker_speed.begin(),
                           snapshot.worker_speed.end());
    primed_ = true;
    return change;
  }
  if (snapshot.worker_bandwidth.size() != bw_baseline_.size() ||
      snapshot.worker_speed.size() != speed_baseline_.size()) {
    // The worker set changed under us (a worker vanished or appeared
    // mid-window). That is itself a resource event: report it and re-prime
    // the baselines on the new population.
    bw_baseline_.assign(snapshot.worker_bandwidth.begin(),
                        snapshot.worker_bandwidth.end());
    speed_baseline_.assign(snapshot.worker_speed.begin(),
                           snapshot.worker_speed.end());
    consecutive_over_ = 0;
    change.changed = true;
    change.magnitude = 1.0;
    change.description = "worker population changed";
    return change;
  }

  std::ostringstream what;
  bool over_now = false;
  auto check = [&](std::vector<double>& baseline,
                   const std::vector<double>& now, const char* kind,
                   bool smooth) {
    for (std::size_t w = 0; w < baseline.size(); ++w) {
      if (baseline[w] <= 0.0) continue;
      const double rel = std::abs(now[w] - baseline[w]) / baseline[w];
      if (rel > change.magnitude) change.magnitude = rel;
      if (rel > threshold_) {
        over_now = true;
        if (what.tellp() > 0) what << "; ";
        what << kind << " change on worker " << w << " (" << baseline[w]
             << " -> " << now[w] << ")";
      } else if (smooth && rel < 0.5 * threshold_) {
        // Track slow drift only while comfortably inside the band. Between
        // half and full threshold the baseline holds: a gradual step (e.g.
        // an EMA-smoothed profiler converging on new contention) must not
        // be absorbed by a chasing baseline.
        baseline[w] = alpha_ * now[w] + (1.0 - alpha_) * baseline[w];
      }
    }
  };
  check(bw_baseline_, snapshot.worker_bandwidth, "bandwidth", true);
  check(speed_baseline_, snapshot.worker_speed, "speed", true);

  consecutive_over_ = over_now ? consecutive_over_ + 1 : 0;
  if (consecutive_over_ >= persistence_) {
    change.changed = true;
    change.description = what.str();
    consecutive_over_ = 0;
    // Snap the baseline so one event is reported once.
    bw_baseline_.assign(snapshot.worker_bandwidth.begin(),
                        snapshot.worker_bandwidth.end());
    speed_baseline_.assign(snapshot.worker_speed.begin(),
                           snapshot.worker_speed.end());
  }
  return change;
}

void ResourceMonitor::reset() {
  primed_ = false;
  bw_baseline_.clear();
  speed_baseline_.clear();
}

}  // namespace autopipe::core
