#include "partition/pipedream_planner.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>

#include "common/expect.hpp"
#include "common/profile.hpp"
#include "partition/analytic_eval.hpp"

namespace autopipe::partition {

namespace {
constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();
}

PipeDreamPlanner::PipeDreamPlanner(const models::ModelSpec& model,
                                   EnvironmentView env, std::size_t batch_size,
                                   Mode mode)
    : model_(model), env_(std::move(env)), batch_(batch_size), mode_(mode) {
  AUTOPIPE_EXPECT(batch_ >= 1);
  AUTOPIPE_EXPECT(env_.num_workers() >= 1);
  const std::size_t L = model_.num_layers();
  prefix_flops_.assign(L + 1, 0.0);
  prefix_params_.assign(L + 1, 0.0);
  for (std::size_t l = 0; l < L; ++l) {
    prefix_flops_[l + 1] = prefix_flops_[l] + model_.fwd_flops(l, batch_) +
                           model_.bwd_flops(l, batch_);
    prefix_params_[l + 1] = prefix_params_[l] + model_.param_bytes(l);
  }
}

Seconds PipeDreamPlanner::stage_time(std::size_t first, std::size_t last,
                                     std::size_t replication) const {
  const Flops work = prefix_flops_[last + 1] - prefix_flops_[first];
  FlopsPerSec speed;
  BytesPerSec bw;
  comm::SyncScheme scheme;
  if (mode_ == Mode::kPipeDream) {
    // PipeDream profiles one exclusive GPU and assumes uniform bandwidth
    // and all-reduce weight sync.
    speed = env_.uniform_speed();
    bw = env_.uniform_bandwidth();
    scheme = comm::SyncScheme::kRing;
  } else {
    // Plan against the current environment: contended mean speed, the
    // narrowest currently-available pipe, the real sync scheme.
    speed = std::accumulate(env_.worker_speed.begin(),
                            env_.worker_speed.end(), 0.0) /
            static_cast<double>(env_.num_workers());
    bw = *std::min_element(env_.worker_bandwidth.begin(),
                           env_.worker_bandwidth.end());
    scheme = env_.sync_scheme;
  }
  AUTOPIPE_EXPECT(speed > 0.0);
  const Seconds overhead = 2.0 * env_.per_layer_overhead *
                           static_cast<double>(last - first + 1);
  Seconds sync = 0.0;
  if (replication > 1) {
    const Bytes params = prefix_params_[last + 1] - prefix_params_[first];
    sync = comm::sync_time(scheme, params, replication, bw,
                           env_.comm_efficiency);
  }
  return (work / speed + overhead + sync) /
         static_cast<double>(replication);
}

Seconds PipeDreamPlanner::boundary_time(std::size_t layer) const {
  const Bytes activation = model_.activation_bytes(layer, batch_);
  const BytesPerSec bw =
      mode_ == Mode::kPipeDream
          ? env_.uniform_bandwidth()
          : *std::min_element(env_.worker_bandwidth.begin(),
                              env_.worker_bandwidth.end());
  AUTOPIPE_EXPECT(bw > 0.0);
  return activation / (bw * env_.comm_efficiency);
}

// The DP below is most of a scenario's set-up time. Its entry is pinned to a
// cache line so that code-size changes elsewhere in the library do not
// shift its loops' alignment: the same machine code placed 48 bytes past a
// cache-line boundary measured ~9% slower set-up on the e2e bwdrop workload.
[[gnu::aligned(64)]] PlanResult PipeDreamPlanner::plan(
    std::size_t max_workers) {
  PROF_SPAN("planner/solve");
  AUTOPIPE_EXPECT(max_workers >= 1);
  AUTOPIPE_EXPECT(max_workers <= env_.num_workers());
  const auto t0 = std::chrono::steady_clock::now();

  const std::size_t L = model_.num_layers();
  const std::size_t N = max_workers;

  // A[j][m]: best bottleneck period covering the first j layers with exactly
  // m workers. choice[j][m] records (split point k, workers m' in the last
  // stage); k == 0 means a single stage.
  std::vector<std::vector<Seconds>> A(L + 1,
                                      std::vector<Seconds>(N + 1, kInf));
  struct Choice {
    std::size_t k = 0;
    std::size_t last_stage_workers = 0;
  };
  std::vector<std::vector<Choice>> choice(L + 1,
                                          std::vector<Choice>(N + 1));

  for (std::size_t j = 1; j <= L; ++j) {
    for (std::size_t m = 1; m <= N; ++m) {
      // Option 1: layers [0, j) as a single stage replicated m ways.
      Seconds best = stage_time(0, j - 1, m);
      Choice best_choice{0, m};
      // Option 2: split after layer k-1; last stage = layers [k, j) on m'.
      for (std::size_t k = 1; k < j; ++k) {
        const Seconds comm = boundary_time(k - 1);
        for (std::size_t mprime = 1; mprime < m; ++mprime) {
          const Seconds head = A[k][m - mprime];
          if (head >= best) continue;  // max() can only be worse
          const Seconds tail = stage_time(k, j - 1, mprime);
          const Seconds candidate = std::max({head, comm, tail});
          if (candidate < best) {
            best = candidate;
            best_choice = Choice{k, mprime};
          }
        }
      }
      A[j][m] = best;
      choice[j][m] = best_choice;
    }
  }

  // Using fewer workers is allowed (idle workers can win when bandwidth is
  // the bottleneck).
  std::size_t best_m = 1;
  for (std::size_t m = 2; m <= N; ++m) {
    if (A[L][m] < A[L][best_m]) best_m = m;
  }

  // Reconstruct stage layer ranges and replication counts, back to front.
  struct StagePlan {
    std::size_t first, last, workers;
  };
  std::vector<StagePlan> plan_stages;
  {
    std::size_t j = L, m = best_m;
    while (j > 0) {
      const Choice c = choice[j][m];
      plan_stages.push_back(StagePlan{c.k, j - 1, c.last_stage_workers});
      AUTOPIPE_EXPECT(c.last_stage_workers <= m);
      m -= c.last_stage_workers;
      j = c.k;
      if (c.k == 0) break;
    }
    std::reverse(plan_stages.begin(), plan_stages.end());
  }

  // Map replica counts to concrete workers: hand the fastest GPUs to the
  // stages with the highest per-replica load (greedy, exact under the
  // homogeneous testbed). PipeDream mode profiles a single exclusive GPU,
  // so it has no per-worker speeds to exploit and assigns in id order.
  std::vector<sim::WorkerId> workers(env_.num_workers());
  std::iota(workers.begin(), workers.end(), sim::WorkerId{0});
  if (mode_ == Mode::kCurrentEnvironment) {
    std::stable_sort(workers.begin(), workers.end(),
                     [&](sim::WorkerId a, sim::WorkerId b) {
                       return env_.worker_speed[a] > env_.worker_speed[b];
                     });
  }
  std::vector<std::size_t> order(plan_stages.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<Seconds> load(plan_stages.size());
  for (std::size_t s = 0; s < plan_stages.size(); ++s) {
    load[s] = stage_time(plan_stages[s].first, plan_stages[s].last,
                         plan_stages[s].workers);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return load[a] > load[b];
                   });
  std::vector<std::vector<sim::WorkerId>> stage_workers(plan_stages.size());
  std::size_t next_worker = 0;
  for (std::size_t s : order) {
    for (std::size_t r = 0; r < plan_stages[s].workers; ++r)
      stage_workers[s].push_back(workers[next_worker++]);
    std::sort(stage_workers[s].begin(), stage_workers[s].end());
  }

  std::vector<StageAssignment> assignments;
  assignments.reserve(plan_stages.size());
  for (std::size_t s = 0; s < plan_stages.size(); ++s) {
    assignments.push_back(StageAssignment{
        plan_stages[s].first, plan_stages[s].last, stage_workers[s]});
  }
  Partition partition(std::move(assignments), L);

  const auto t1 = std::chrono::steady_clock::now();
  last_solve_seconds_ =
      std::chrono::duration<double>(t1 - t0).count();

  PlanResult result{partition, optimal_in_flight(partition), A[L][best_m]};
  return result;
}

}  // namespace autopipe::partition
