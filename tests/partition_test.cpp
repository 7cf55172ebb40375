// Partitioning tests: Partition invariants, the analytic pipeline model,
// the PipeDream DP planner (checked against the exhaustive oracle — the
// strongest property available), and the two-worker neighbourhood.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "models/zoo.hpp"
#include "partition/analytic_eval.hpp"
#include "partition/environment.hpp"
#include "partition/exhaustive.hpp"
#include "partition/neighborhood.hpp"
#include "partition/partition.hpp"
#include "partition/pipedream_planner.hpp"
#include "partition/rebalance.hpp"
#include "common/stats.hpp"

namespace autopipe::partition {
namespace {

/// Uniform environment helper.
EnvironmentView uniform_env(std::size_t workers, FlopsPerSec speed,
                            BytesPerSec bw,
                            comm::SyncScheme scheme = comm::SyncScheme::kRing) {
  EnvironmentView env;
  env.worker_speed.assign(workers, speed);
  env.worker_bandwidth.assign(workers, bw);
  env.sync_scheme = scheme;
  return env;
}

/// A small synthetic model for oracle comparisons.
models::ModelSpec tiny_model(std::size_t layers) {
  std::vector<models::LayerSpec> specs;
  for (std::size_t l = 0; l < layers; ++l) {
    models::LayerSpec s;
    s.name = "l" + std::to_string(l);
    s.fwd_flops_per_sample = 1e6 * static_cast<double>(1 + (l % 3));
    s.bwd_flops_per_sample = 2.0 * s.fwd_flops_per_sample;
    s.activation_bytes_per_sample = 1e3 * static_cast<double>(1 + (l % 2));
    s.param_bytes = 4e4 * static_cast<double>(1 + (l % 4));
    specs.push_back(std::move(s));
  }
  return models::ModelSpec("tiny", 8, std::move(specs));
}

TEST(Partition, ValidatesContiguity) {
  EXPECT_NO_THROW(Partition({{0, 2, {0}}, {3, 4, {1}}}, 5));
  // Gap.
  EXPECT_THROW(Partition({{0, 1, {0}}, {3, 4, {1}}}, 5), contract_error);
  // Overlap.
  EXPECT_THROW(Partition({{0, 2, {0}}, {2, 4, {1}}}, 5), contract_error);
  // Missing tail.
  EXPECT_THROW(Partition({{0, 2, {0}}}, 5), contract_error);
  // Duplicate worker.
  EXPECT_THROW(Partition({{0, 2, {0}}, {3, 4, {0}}}, 5), contract_error);
  // Empty worker set.
  EXPECT_THROW(Partition({{0, 4, {}}}, 5), contract_error);
}

TEST(Partition, EvenSplitCoversAllLayers) {
  const Partition p = Partition::even_split(10, {0, 1, 2});
  EXPECT_EQ(p.num_stages(), 3u);
  EXPECT_EQ(p.stage(0).num_layers(), 4u);  // remainder goes first
  EXPECT_EQ(p.stage(1).num_layers(), 3u);
  EXPECT_EQ(p.stage(2).num_layers(), 3u);
  EXPECT_EQ(p.stage_of_layer(0), 0u);
  EXPECT_EQ(p.stage_of_layer(9), 2u);
}

TEST(Partition, WorkerLookup) {
  const Partition p({{0, 1, {3, 4}}, {2, 4, {7}}}, 5);
  EXPECT_EQ(p.stage_of_worker(3), 0u);
  EXPECT_EQ(p.stage_of_worker(7), 1u);
  EXPECT_EQ(p.stage_of_worker(0), Partition::npos);
  EXPECT_EQ(p.num_workers(), 3u);
}

TEST(Partition, ChangedWorkersDetectsLayerMoves) {
  const Partition a({{0, 2, {0}}, {3, 4, {1}}}, 5);
  const Partition b({{0, 1, {0}}, {2, 4, {1}}}, 5);
  const auto changed = a.changed_workers(b);
  EXPECT_EQ(changed, (std::vector<sim::WorkerId>{0, 1}));
  EXPECT_TRUE(a.changed_workers(a).empty());
}

TEST(Partition, ToStringIsStable) {
  const Partition p({{0, 2, {0, 1}}, {3, 4, {2}}}, 5);
  EXPECT_EQ(p.to_string(), "L0-2@{0,1} | L3-4@{2}");
}

TEST(AnalyticEval, SingleWorkerMatchesHandComputation) {
  const auto model = tiny_model(4);
  const auto env = uniform_env(1, 1e9, 1e9);
  const Partition p = Partition::single_stage(4, {0});
  // Work: batch 8 x sum (fwd+bwd) flops.
  double flops = 0.0;
  for (std::size_t l = 0; l < 4; ++l)
    flops += (model.fwd_flops(l, 8) + model.bwd_flops(l, 8));
  EXPECT_NEAR(analytic_batch_time(model, p, env, 8), flops / 1e9, 1e-12);
}

TEST(AnalyticEval, ReplicationAmortizes) {
  const auto model = tiny_model(4);
  const auto env = uniform_env(4, 1e9, 1e12);  // effectively free sync
  const Seconds t1 = analytic_batch_time(
      model, Partition::single_stage(4, {0}), env, 8);
  const Seconds t4 = analytic_batch_time(
      model, Partition::single_stage(4, {0, 1, 2, 3}), env, 8);
  EXPECT_NEAR(t4, t1 / 4.0, t1 * 0.02);
}

TEST(AnalyticEval, LowBandwidthMakesBoundaryTheBottleneck) {
  const auto model = tiny_model(4);
  const auto env = uniform_env(2, 1e15, 1.0);  // compute free, wire 1 B/s
  const Partition p({{0, 1, {0}}, {2, 3, {1}}}, 4);
  const Seconds t = analytic_batch_time(model, p, env, 8);
  EXPECT_NEAR(t, model.activation_bytes(1, 8), 1.0);
}

TEST(AnalyticEval, OptimalInFlight) {
  EXPECT_EQ(optimal_in_flight(Partition::even_split(8, {0, 1, 2, 3})), 4u);
  // Replicated input stage: NOW per replica (= ceil(4/2) = 2) times the
  // input replication, so every replica keeps its own pipeline full.
  const Partition p({{0, 3, {0, 1}}, {4, 7, {2, 3}}}, 8);
  EXPECT_EQ(optimal_in_flight(p), 4u);
}

TEST(Planner, ProducesValidPartitionForZooModels) {
  for (const auto& model : models::image_models()) {
    const auto env = uniform_env(10, tflops(4), gbps(25));
    PipeDreamPlanner planner(model, env, model.default_batch_size());
    const PlanResult plan = planner.plan(10);
    EXPECT_LE(plan.partition.num_workers(), 10u);
    EXPECT_GE(plan.in_flight, 1u);
    EXPECT_GT(plan.predicted_batch_time, 0.0);
    EXPECT_EQ(plan.partition.num_layers(), model.num_layers());
  }
}

TEST(Planner, SolveTimeIsSubSecond) {
  // Fig 12's claim: partition calculation well under one second.
  const auto model = models::resnet50();
  const auto env = uniform_env(10, tflops(4), gbps(25));
  PipeDreamPlanner planner(model, env, 128);
  (void)planner.plan(10);
  EXPECT_LT(planner.last_solve_seconds(), 1.0);
}

TEST(Planner, MoreBandwidthNeverHurtsPredictedTime) {
  const auto model = models::vgg16();
  Seconds prev = 1e18;
  for (double g : {10.0, 25.0, 40.0, 100.0}) {
    const auto env = uniform_env(10, tflops(4), gbps(g));
    PipeDreamPlanner planner(model, env, 64);
    const auto plan = planner.plan(10);
    EXPECT_LE(plan.predicted_batch_time, prev + 1e-9) << g << "Gbps";
    prev = plan.predicted_batch_time;
  }
}

/// The strongest property we can assert: under a uniform environment the DP
/// must match brute force over all (split, replication) choices.
class PlannerOracle : public ::testing::TestWithParam<int> {};

TEST_P(PlannerOracle, DpMatchesExhaustiveOptimum) {
  autopipe::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  const std::size_t layers = 4 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  const std::size_t workers = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  const auto model = tiny_model(layers);
  auto env = uniform_env(workers, rng.uniform(1e8, 1e10),
                         rng.uniform(1e5, 1e9));

  PipeDreamPlanner planner(model, env, 8,
                           PipeDreamPlanner::Mode::kCurrentEnvironment);
  const PlanResult dp = planner.plan(workers);
  const auto oracle = exhaustive_best(model, env, 8, workers);
  ASSERT_TRUE(oracle.has_value());

  const Seconds dp_time = analytic_batch_time(model, dp.partition, env, 8);
  EXPECT_NEAR(dp_time, oracle->predicted_batch_time,
              oracle->predicted_batch_time * 1e-9)
      << "dp: " << dp.partition.to_string()
      << " oracle: " << oracle->partition.to_string();
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PlannerOracle,
                         ::testing::Range(0, 12));

TEST(Planner, PipeDreamModeIgnoresContention) {
  // The paper's Observation 2: PipeDream profiles one exclusive GPU, so
  // contended plans do not differ — while the current-environment mode
  // reacts.
  const auto model = models::vgg16();
  auto env = uniform_env(4, tflops(4), gbps(25));
  env.worker_speed[2] = tflops(1);  // worker 2 heavily contended

  PipeDreamPlanner stale(model, env, 64, PipeDreamPlanner::Mode::kPipeDream);
  auto env_uncontended = uniform_env(4, tflops(4), gbps(25));
  PipeDreamPlanner fresh(model, env_uncontended, 64,
                         PipeDreamPlanner::Mode::kPipeDream);
  EXPECT_EQ(stale.plan(4).partition, fresh.plan(4).partition);
}

TEST(Neighborhood, CandidatesAreValidAndDistinct) {
  const auto model = models::alexnet();
  const Partition current = Partition::even_split(model.num_layers(),
                                                  {0, 1, 2, 3});
  const auto candidates = two_worker_candidates(current);
  EXPECT_FALSE(candidates.empty());
  std::set<std::string> seen;
  for (const auto& c : candidates) {
    EXPECT_NE(c.partition, current);
    EXPECT_FALSE(c.changed_workers.empty());
    EXPECT_EQ(c.partition.num_layers(), model.num_layers());
    seen.insert(c.partition.to_string());
  }
  EXPECT_EQ(seen.size(), candidates.size()) << "duplicate candidates";
}

TEST(Neighborhood, BoundaryMovesChangeExactlyTwoWorkers) {
  const Partition current = Partition::even_split(12, {0, 1, 2});
  for (const auto& c : two_worker_candidates(current)) {
    // Unreplicated stages: every candidate touches exactly two workers.
    EXPECT_EQ(c.changed_workers.size(), 2u) << c.partition.to_string();
  }
}

TEST(Neighborhood, SizeIsQuadraticInLayersAtMost) {
  const Partition current = Partition::even_split(20, {0, 1, 2, 3});
  const auto candidates = two_worker_candidates(current);
  EXPECT_LE(candidates.size(), 20u * 20u);
}

TEST(Neighborhood, ReachesRebalancedOptimum) {
  // A skewed partition must offer a candidate that improves the analytic
  // time — the gradual-migration premise.
  const auto model = tiny_model(8);
  const auto env = uniform_env(2, 1e9, 1e12);
  const Partition skewed({{0, 6, {0}}, {7, 7, {1}}}, 8);
  const Seconds t0 = analytic_batch_time(model, skewed, env, 8);
  bool improves = false;
  for (const auto& c : two_worker_candidates(skewed)) {
    if (analytic_batch_time(model, c.partition, env, 8) < t0) {
      improves = true;
      break;
    }
  }
  EXPECT_TRUE(improves);
}

TEST(Neighborhood, DescentStepsUntilNoMoveBeatsItOrRoundsRunOut) {
  const auto model = tiny_model(8);
  const auto env = uniform_env(2, 1e9, 1e12);
  const Partition skewed({{0, 6, {0}}, {7, 7, {1}}}, 8);
  const Seconds t0 = analytic_batch_time(model, skewed, env, 8);
  const Descent none = descend(model, skewed, env, 8, 0);
  EXPECT_EQ(none.partition, skewed);
  EXPECT_EQ(none.batch_time, t0);
  const Descent one = descend(model, skewed, env, 8, 1);
  EXPECT_LT(one.batch_time, t0);
  const Descent full = descend(model, skewed, env, 8, 100);
  EXPECT_EQ(full.batch_time,
            analytic_batch_time(model, full.partition, env, 8));
  EXPECT_LE(full.batch_time, one.batch_time);
  for (const auto& c : two_worker_candidates(full.partition))
    EXPECT_GE(analytic_batch_time(model, c.partition, env, 8),
              full.batch_time * 0.999);
}

TEST(Neighborhood, MoveOrderIsPinned) {
  // Every stage is replicated, so the middle one re-homes in both
  // directions, and the re-homed workers sort into their destinations.
  const Partition current(
      {{0, 2, {0, 1}}, {3, 4, {2, 6}}, {5, 7, {3, 4, 5}}}, 8);
  using K = Move::Kind;
  const std::vector<std::pair<Move, std::string>> expected = {
      {{K::kShift, 0, -1}, "L0-1@{0,1} | L2-4@{2,6} | L5-7@{3,4,5}"},
      {{K::kShift, 0, -2}, "L0-0@{0,1} | L1-4@{2,6} | L5-7@{3,4,5}"},
      {{K::kShift, 0, 1}, "L0-3@{0,1} | L4-4@{2,6} | L5-7@{3,4,5}"},
      {{K::kShift, 1, -1}, "L0-2@{0,1} | L3-3@{2,6} | L4-7@{3,4,5}"},
      {{K::kShift, 1, 1}, "L0-2@{0,1} | L3-5@{2,6} | L6-7@{3,4,5}"},
      {{K::kShift, 1, 2}, "L0-2@{0,1} | L3-6@{2,6} | L7-7@{3,4,5}"},
      {{K::kRehome, 0, 0, 1}, "L0-2@{0} | L3-4@{1,2,6} | L5-7@{3,4,5}"},
      {{K::kRehome, 1, 0, 0}, "L0-2@{0,1,6} | L3-4@{2} | L5-7@{3,4,5}"},
      {{K::kRehome, 1, 0, 2}, "L0-2@{0,1} | L3-4@{2} | L5-7@{3,4,5,6}"},
      {{K::kRehome, 2, 0, 1}, "L0-2@{0,1} | L3-4@{2,5,6} | L5-7@{3,4}"},
  };
  std::vector<Move> moves;
  enumerate_moves(current.stages(), moves);
  const auto candidates = two_worker_candidates(current);
  ASSERT_EQ(moves.size(), expected.size());
  ASSERT_EQ(candidates.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(moves[i], expected[i].first) << "move " << i;
    EXPECT_EQ(apply_move(current, moves[i]).to_string(), expected[i].second);
    EXPECT_EQ(candidates[i].partition.to_string(), expected[i].second);
  }
  EXPECT_EQ(candidates[0].changed_workers,
            (std::vector<sim::WorkerId>{0, 1, 2, 6}));
  EXPECT_EQ(candidates[6].changed_workers, (std::vector<sim::WorkerId>{1}));
}

/// A random model, partition (1-10 stages, replication 1-4, worker ids
/// shuffled so stage lists need not be sorted) and environment.
struct RandomInstance {
  models::ModelSpec model;
  Partition partition;
  EnvironmentView env;
};

RandomInstance random_instance(Rng& rng) {
  const auto stages = static_cast<std::size_t>(rng.uniform_int(1, 10));
  const std::size_t layers =
      stages + static_cast<std::size_t>(rng.uniform_int(0, 12));
  std::vector<models::LayerSpec> specs;
  for (std::size_t l = 0; l < layers; ++l) {
    models::LayerSpec s;
    s.name = "l" + std::to_string(l);
    s.fwd_flops_per_sample = rng.uniform(1e5, 1e8);
    s.bwd_flops_per_sample = rng.uniform(1e5, 2e8);
    s.activation_bytes_per_sample = rng.uniform(1e2, 1e6);
    s.param_bytes = rng.uniform(0.0, 1e8);
    specs.push_back(std::move(s));
  }
  // Cut points: `stages - 1` distinct layers after which a stage ends.
  std::vector<std::size_t> cuts(layers - 1);
  for (std::size_t i = 0; i < cuts.size(); ++i) cuts[i] = i;
  rng.shuffle(cuts);
  cuts.resize(stages - 1);
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(layers - 1);
  std::vector<std::size_t> replication(stages);
  std::size_t workers = 0;
  for (std::size_t& r : replication) {
    r = static_cast<std::size_t>(rng.uniform_int(1, 4));
    workers += r;
  }
  std::vector<sim::WorkerId> ids(workers);
  for (std::size_t w = 0; w < workers; ++w) ids[w] = w;
  rng.shuffle(ids);
  std::vector<StageAssignment> assignment;
  std::size_t first = 0;
  auto next_id = ids.begin();
  for (std::size_t s = 0; s < stages; ++s) {
    assignment.push_back({first, cuts[s], {next_id, next_id + replication[s]}});
    next_id += replication[s];
    first = cuts[s] + 1;
  }
  EnvironmentView env;
  for (std::size_t w = 0; w < workers; ++w) {
    env.worker_speed.push_back(rng.uniform(1e11, 1e13));
    env.worker_bandwidth.push_back(rng.uniform(1e8, 1e10));
  }
  env.per_layer_overhead = rng.uniform(0.0, 1e-3);
  env.comm_efficiency = rng.uniform(0.5, 1.0);
  env.sync_scheme =
      rng.chance(0.5) ? comm::SyncScheme::kRing
                    : comm::SyncScheme::kParameterServer;
  return {models::ModelSpec("random", 32, std::move(specs)),
          Partition(std::move(assignment), layers), std::move(env)};
}

TEST(Neighborhood, MovesScoreInPlaceExactlyAsMaterialized) {
  Rng rng(20240917);
  std::size_t moves_checked = 0;
  std::vector<Move> moves;
  std::vector<StageAssignment> scratch;
  for (int trial = 0; trial < 300; ++trial) {
    const RandomInstance inst = random_instance(rng);
    const Partition& current = inst.partition;
    enumerate_moves(current.stages(), moves);
    const auto candidates = two_worker_candidates(current);
    ASSERT_EQ(candidates.size(), moves.size());
    scratch = current.stages();
    for (std::size_t i = 0; i < moves.size(); ++i) {
      Partition materialized = current;
      ASSERT_NO_THROW(materialized = apply_move(current, moves[i]))
          << current.to_string() << " move " << i;
      EXPECT_EQ(materialized, candidates[i].partition);
      apply_move(scratch, moves[i]);
      EXPECT_EQ(analytic_batch_time(inst.model, scratch, inst.env, 32),
                analytic_batch_time(inst.model, materialized, inst.env, 32))
          << materialized.to_string();
      undo_move(scratch, current.stages(), moves[i]);
      ASSERT_EQ(scratch, current.stages())
          << "undo of move " << i << " on " << current.to_string();
      ++moves_checked;
    }
  }
  EXPECT_GT(moves_checked, 3000u);
}

TEST(Partition, DuplicateWorkerNamesTheFirstRepeat) {
  const auto message = [](std::vector<StageAssignment> stages) {
    try {
      Partition(std::move(stages), 5);
    } catch (const contract_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  // Worker 1 repeats before worker 3 does, in stage order.
  EXPECT_NE(message({{0, 1, {3, 1}}, {2, 3, {2, 1}}, {4, 4, {3}}})
                .find("worker 1 assigned to two stages"),
            std::string::npos);
  // A repeat within one stage is rejected the same way.
  EXPECT_NE(message({{0, 1, {2, 2}}, {2, 4, {1}}})
                .find("worker 2 assigned to two stages"),
            std::string::npos);
}

TEST(Exhaustive, GuardRejectsLargeModels) {
  const auto env = uniform_env(2, 1e9, 1e9);
  EXPECT_FALSE(
      exhaustive_best(models::resnet50(), env, 32, 2).has_value());
}


TEST(Rebalance, UniformSpeedsApproximateEvenWork) {
  const auto model = tiny_model(12);
  const auto env = uniform_env(3, 1e9, 1e12);
  const Partition current = Partition::even_split(12, {0, 1, 2});
  const Partition balanced =
      speed_proportional_rebalance(model, current, env, 8);
  EXPECT_EQ(balanced.num_stages(), 3u);
  // Stage compute times within 2x of each other (layer granularity).
  std::vector<double> times;
  for (std::size_t s = 0; s < 3; ++s) {
    times.push_back(
        stage_cost(model, balanced.stage(s), env, 8).effective);
  }
  EXPECT_LT(max_of(times) / min_of(times), 2.0);
}

TEST(Rebalance, ShiftsWorkAwayFromSlowWorkers) {
  const auto model = tiny_model(12);
  auto env = uniform_env(3, 1e9, 1e12);
  env.worker_speed[1] = 2.5e8;  // worker 1 heavily contended
  const Partition current = Partition::even_split(12, {0, 1, 2});
  const Partition balanced =
      speed_proportional_rebalance(model, current, env, 8);
  // The contended worker's stage must shrink relative to the even split.
  EXPECT_LT(balanced.stage(1).num_layers(), current.stage(1).num_layers());
  // And the balanced plan must beat the even split analytically.
  EXPECT_LT(analytic_batch_time(model, balanced, env, 8),
            analytic_batch_time(model, current, env, 8));
}

TEST(Rebalance, PreservesStageWorkersAndContiguity) {
  const auto model = tiny_model(10);
  auto env = uniform_env(4, 1e9, 1e12);
  env.worker_speed[0] = 5e8;
  const Partition current({{0, 2, {0, 1}}, {3, 6, {2}}, {7, 9, {3}}}, 10);
  const Partition balanced =
      speed_proportional_rebalance(model, current, env, 8);
  ASSERT_EQ(balanced.num_stages(), 3u);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_EQ(balanced.stage(s).workers, current.stage(s).workers);
  // Contiguity and coverage are enforced by the Partition constructor; the
  // call not throwing is the assertion.
}

TEST(Rebalance, EveryStageKeepsAtLeastOneLayer) {
  const auto model = tiny_model(4);
  auto env = uniform_env(4, 1e9, 1e12);
  env.worker_speed[3] = 1e15;  // one worker absurdly fast
  const Partition current = Partition::even_split(4, {0, 1, 2, 3});
  const Partition balanced =
      speed_proportional_rebalance(model, current, env, 8);
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_GE(balanced.stage(s).num_layers(), 1u);
}

}  // namespace
}  // namespace autopipe::partition
