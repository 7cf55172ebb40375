// Cross-module property sweeps (TEST_P): invariants that must hold over
// whole parameter grids rather than single examples — executor sanity over
// the model x bandwidth grid, collective/analytic agreement over member
// counts, staleness-tolerance over pipeline depths, planner/rebalance
// dominance over random environments, and end-to-end determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/data_parallel.hpp"
#include "comm/collective.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/event_queue.hpp"
#include "convergence/dataset.hpp"
#include "convergence/staleness_sgd.hpp"
#include "models/zoo.hpp"
#include "partition/analytic_eval.hpp"
#include "partition/neighborhood.hpp"
#include "partition/pipedream_planner.hpp"
#include "partition/rebalance.hpp"
#include "pipeline/executor.hpp"
#include "sim/cluster.hpp"

namespace autopipe {
namespace {

// ---------------------------------------------------------------------------
// Executor invariants over the paper's model x bandwidth grid
// ---------------------------------------------------------------------------

// The model name is a std::string, not a const char*: the test's listed name
// prints its parameter, and a pointer would change from build to build.
class ExecutorGrid
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(ExecutorGrid, PlannedRunSatisfiesInvariants) {
  const auto [model_name, bandwidth] = GetParam();
  const auto model = models::model_by_name(model_name);

  sim::Simulator sim;
  sim::ClusterConfig config;
  config.nic_bandwidth = gbps(bandwidth);
  sim::Cluster cluster(sim, config);

  const auto env = partition::EnvironmentView::from_cluster(
      cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
  partition::PipeDreamPlanner planner(model, env,
                                      model.default_batch_size());
  const auto plan = planner.plan(cluster.num_workers());

  pipeline::PipelineExecutor executor(cluster, model, plan.partition,
                                      pipeline::ExecutorConfig{});
  const auto report = executor.run(30, 10);

  // Throughput positive and finite; utilization a valid fraction.
  EXPECT_GT(report.throughput, 0.0);
  EXPECT_TRUE(std::isfinite(report.throughput));
  EXPECT_GT(report.worker_utilization, 0.0);
  EXPECT_LE(report.worker_utilization, 1.0 + 1e-9);
  // Completion times strictly increase (no time travel).
  for (std::size_t i = 1; i < report.iteration_end_times.size(); ++i) {
    EXPECT_GE(report.iteration_end_times[i],
              report.iteration_end_times[i - 1]);
  }
  // Multi-stage plans must put bytes on the wire.
  if (plan.partition.num_stages() > 1) {
    EXPECT_GT(report.bytes_on_wire, 0.0);
  }
  // The measured rate cannot exceed the cluster's aggregate compute bound
  // (10% slack: short windows measure between completion bursts).
  double aggregate = 0.0;
  for (sim::WorkerId w = 0; w < cluster.num_workers(); ++w)
    aggregate += cluster.gpu(w).spec().throughput;
  const double flops_per_sample = model.total_flops_per_sample();
  EXPECT_LT(report.throughput, aggregate / flops_per_sample * 1.10);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsByBandwidth, ExecutorGrid,
    ::testing::Combine(::testing::Values("alexnet", "vgg16", "resnet50",
                                         "resnet18"),
                       ::testing::Values(10.0, 25.0, 100.0)));

// ---------------------------------------------------------------------------
// Event-driven ring all-reduce matches the analytic formula for any size
// ---------------------------------------------------------------------------

class RingSize : public ::testing::TestWithParam<int> {};

TEST_P(RingSize, SimulatedRingMatchesAnalytic) {
  const auto n = static_cast<std::size_t>(GetParam());
  sim::Simulator sim;
  sim::ClusterConfig config;
  config.num_servers = n;
  config.gpus_per_server = 1;
  config.nic_bandwidth = 1000.0;
  sim::Cluster cluster(sim, config);
  std::vector<sim::WorkerId> members(n);
  for (sim::WorkerId w = 0; w < n; ++w) members[w] = w;
  Seconds done = -1;
  comm::Collective::ring_allreduce(cluster, members, 8000.0, 1.0,
                                   [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, comm::ring_allreduce_time(8000.0, n, 1000.0),
              1e-6);
}

INSTANTIATE_TEST_SUITE_P(MemberCounts, RingSize,
                         ::testing::Values(2, 3, 4, 5, 7, 10));

// ---------------------------------------------------------------------------
// Weight stashing tolerates any bounded pipeline depth
// ---------------------------------------------------------------------------

class StashDepth : public ::testing::TestWithParam<int> {};

TEST_P(StashDepth, BoundedConsistentStalenessConverges) {
  convergence::DatasetConfig dc;
  dc.dims = 8;
  dc.classes = 3;
  dc.train_samples = 512;
  dc.test_samples = 256;
  const convergence::Dataset data(dc, 7);

  convergence::TrainerConfig config;
  config.mode = convergence::StalenessMode::kWeightStashing;
  config.pipeline_depth = static_cast<std::size_t>(GetParam());
  convergence::StalenessSgdTrainer trainer(data, config, 3);
  for (int i = 0; i < 2000; ++i) trainer.step();
  // PipeDream's guarantee: bounded + consistent staleness reaches high
  // accuracy regardless of the (reasonable) depth.
  EXPECT_GT(trainer.test_accuracy(), 0.85);
}

INSTANTIATE_TEST_SUITE_P(PipelineDepths, StashDepth,
                         ::testing::Values(1, 2, 4, 8, 12));

// ---------------------------------------------------------------------------
// Rebalance never hurts the analytic bottleneck on random heterogeneous envs
// ---------------------------------------------------------------------------

class RebalanceRandom : public ::testing::TestWithParam<int> {};

TEST_P(RebalanceRandom, NeverWorseOnComputeBoundEnvironments) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  // Compute-bound setup: generous uniform bandwidth, random speeds.
  const auto model = models::resnet18();
  partition::EnvironmentView env;
  const std::size_t workers = 4;
  for (std::size_t w = 0; w < workers; ++w) {
    env.worker_speed.push_back(rng.uniform(0.5e12, 4e12));
    env.worker_bandwidth.push_back(gbps(100));
  }
  const auto current = partition::Partition::even_split(
      model.num_layers(), {0, 1, 2, 3});
  const auto balanced = partition::speed_proportional_rebalance(
      model, current, env, model.default_batch_size());
  const Seconds before = partition::analytic_batch_time(
      model, current, env, model.default_batch_size());
  const Seconds after = partition::analytic_batch_time(
      model, balanced, env, model.default_batch_size());
  EXPECT_LE(after, before * 1.001)
      << "speeds: " << env.worker_speed[0] << " " << env.worker_speed[1]
      << " " << env.worker_speed[2] << " " << env.worker_speed[3];
}

INSTANTIATE_TEST_SUITE_P(RandomSpeeds, RebalanceRandom,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Determinism: identical seeds and scripts produce identical runs
// ---------------------------------------------------------------------------

class DeterminismGrid : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismGrid, RepeatedRunsAreBitIdentical) {
  auto run_once = [&] {
    sim::Simulator sim;
    sim::ClusterConfig config;
    config.nic_bandwidth = gbps(25);
    sim::Cluster cluster(sim, config);
    const auto model = models::model_by_name(GetParam());
    const auto env = partition::EnvironmentView::from_cluster(
        cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
    partition::PipeDreamPlanner planner(model, env,
                                        model.default_batch_size());
    const auto plan = planner.plan(cluster.num_workers());
    pipeline::PipelineExecutor executor(cluster, model, plan.partition,
                                        pipeline::ExecutorConfig{});
    return executor.run(20, 5);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  ASSERT_EQ(a.iteration_end_times.size(), b.iteration_end_times.size());
  for (std::size_t i = 0; i < a.iteration_end_times.size(); ++i)
    EXPECT_DOUBLE_EQ(a.iteration_end_times[i], b.iteration_end_times[i]);
}

INSTANTIATE_TEST_SUITE_P(Models, DeterminismGrid,
                         ::testing::Values("alexnet", "vgg16", "resnet50"));

// ---------------------------------------------------------------------------
// Schedule family: every mode completes and respects synchronous semantics
// ---------------------------------------------------------------------------

class ScheduleFamily
    : public ::testing::TestWithParam<pipeline::ScheduleMode> {};

TEST_P(ScheduleFamily, CompletesOnPlannedPartition) {
  sim::Simulator sim;
  sim::ClusterConfig config;
  config.nic_bandwidth = gbps(25);
  sim::Cluster cluster(sim, config);
  const auto model = models::resnet18();
  const auto partition = partition::Partition::even_split(
      model.num_layers(), {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  pipeline::ExecutorConfig ec;
  ec.mode = GetParam();
  ec.micro_batches = 4;
  pipeline::PipelineExecutor executor(cluster, model, partition, ec);
  const auto report = executor.run(12, 4);
  EXPECT_GT(report.throughput, 0.0);
  EXPECT_EQ(report.iterations, 12u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ScheduleFamily,
    ::testing::Values(pipeline::ScheduleMode::kAsync1F1B,
                      pipeline::ScheduleMode::kGPipe,
                      pipeline::ScheduleMode::kDapple,
                      pipeline::ScheduleMode::kChimera,
                      pipeline::ScheduleMode::kTwoBW));

// ---------------------------------------------------------------------------
// Tracing is observation-only: for random (model, cluster, switch) triples,
// a run with the recorder enabled trains exactly what a run with it disabled
// trains, byte for byte on the timeline.
// ---------------------------------------------------------------------------

class TracingParity : public ::testing::TestWithParam<int> {};

TEST_P(TracingParity, EnabledRunEqualsDisabledRun) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);

  // Random scenario: model, cluster shape, bandwidth, switch mode, and a
  // random neighbourhood switch requested mid-run.
  const auto model = rng.chance(0.5) ? models::alexnet() : models::resnet18();
  const std::size_t servers = static_cast<std::size_t>(rng.uniform_int(2, 3));
  const std::size_t gpus = static_cast<std::size_t>(rng.uniform_int(1, 2));
  const double bandwidths[] = {10.0, 25.0, 100.0};
  const double bw = bandwidths[rng.uniform_int(0, 2)];
  const auto switch_mode =
      rng.chance(0.5) ? pipeline::PipelineExecutor::SwitchMode::kFineGrained
                      : pipeline::PipelineExecutor::SwitchMode::kStopTheWorld;
  const std::size_t switch_pick = static_cast<std::size_t>(
      rng.uniform_int(0, 1000));

  auto run_once = [&](bool tracing) {
    sim::Simulator sim;
    if (tracing) sim.tracer().set_enabled(true);
    sim::ClusterConfig config;
    config.num_servers = servers;
    config.gpus_per_server = gpus;
    config.nic_bandwidth = gbps(bw);
    sim::Cluster cluster(sim, config);
    std::vector<sim::WorkerId> workers(cluster.num_workers());
    for (sim::WorkerId w = 0; w < workers.size(); ++w) workers[w] = w;
    const auto initial =
        partition::Partition::even_split(model.num_layers(), workers);
    pipeline::PipelineExecutor executor(cluster, model, initial,
                                        pipeline::ExecutorConfig{});
    const auto candidates = partition::two_worker_candidates(initial);
    executor.set_iteration_callback([&](std::size_t iters) {
      if (iters == 3 && !candidates.empty()) {
        executor.request_switch(
            candidates[switch_pick % candidates.size()].partition,
            switch_mode);
      }
    });
    const auto report = executor.run(15, 3);
    return std::make_tuple(report.iteration_end_times, report.throughput,
                           sim.now(), report.iterations * executor.batch_size(),
                           executor.switches_performed());
  };

  const auto with_trace = run_once(true);
  const auto without = run_once(false);

  // Samples trained are identical...
  EXPECT_EQ(std::get<3>(with_trace), std::get<3>(without));
  EXPECT_EQ(std::get<4>(with_trace), std::get<4>(without));
  // ...and so is the entire timeline, bit for bit.
  EXPECT_DOUBLE_EQ(std::get<1>(with_trace), std::get<1>(without));
  EXPECT_DOUBLE_EQ(std::get<2>(with_trace), std::get<2>(without));
  const auto& ta = std::get<0>(with_trace);
  const auto& tb = std::get<0>(without);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i)
    EXPECT_DOUBLE_EQ(ta[i], tb[i]) << "iteration " << i;
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, TracingParity,
                         ::testing::Range(0, 50));

// ---------------------------------------------------------------------------
// Planner invariants over randomly generated layer graphs
// ---------------------------------------------------------------------------

/// A random but well-formed model: positive per-layer work, positive
/// activations, a mix of parameter-heavy and parameter-free layers, wide
/// spreads in all magnitudes — shapes no zoo model exercises.
models::ModelSpec random_layer_model(Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 24));
  std::vector<models::LayerSpec> layers;
  layers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    models::LayerSpec layer;
    layer.name = "L" + std::to_string(i);
    layer.fwd_flops_per_sample = rng.uniform(1e6, 5e9);
    layer.bwd_flops_per_sample =
        layer.fwd_flops_per_sample * rng.uniform(1.0, 3.0);
    layer.activation_bytes_per_sample = rng.uniform(1e3, 5e7);
    layer.param_bytes = rng.chance(0.3) ? 0.0 : rng.uniform(1e4, 4e8);
    layers.push_back(layer);
  }
  const auto batch = static_cast<std::size_t>(rng.uniform_int(8, 128));
  return models::ModelSpec("random", batch, std::move(layers));
}

class RandomModelPlanner : public ::testing::TestWithParam<int> {};

TEST_P(RandomModelPlanner, PlanSatisfiesPartitionInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const auto model = random_layer_model(rng);

  // Heterogeneous random environment (contended GPUs, uneven NICs).
  const auto num_workers = static_cast<std::size_t>(rng.uniform_int(2, 10));
  partition::EnvironmentView env;
  for (std::size_t w = 0; w < num_workers; ++w) {
    env.worker_speed.push_back(tflops(rng.uniform(1.0, 10.0)));
    env.worker_bandwidth.push_back(gbps(rng.uniform(5.0, 100.0)));
  }

  const std::size_t batch = model.default_batch_size();
  for (const auto mode : {partition::PipeDreamPlanner::Mode::kPipeDream,
                          partition::PipeDreamPlanner::Mode::
                              kCurrentEnvironment}) {
    partition::PipeDreamPlanner planner(model, env, batch, mode);
    const partition::PlanResult plan = planner.plan(num_workers);
    const partition::Partition& p = plan.partition;

    // Layer coverage: stages tile [0, num_layers) contiguously in order,
    // and every layer maps back to exactly the stage holding it.
    ASSERT_GE(p.num_stages(), 1u);
    EXPECT_EQ(p.num_layers(), model.num_layers());
    std::size_t covered = 0;
    for (std::size_t s = 0; s < p.num_stages(); ++s) {
      const auto& stage = p.stage(s);
      EXPECT_EQ(stage.first_layer, covered) << "stage " << s;
      ASSERT_LE(stage.first_layer, stage.last_layer);
      ASSERT_LT(stage.last_layer, model.num_layers());
      for (std::size_t l = stage.first_layer; l <= stage.last_layer; ++l)
        EXPECT_EQ(p.stage_of_layer(l), s);
      covered = stage.last_layer + 1;
    }
    EXPECT_EQ(covered, model.num_layers()) << "stages must cover every layer";

    // No empty stage; worker sets pairwise disjoint and within range.
    std::vector<bool> seen(num_workers, false);
    for (std::size_t s = 0; s < p.num_stages(); ++s) {
      const auto& stage = p.stage(s);
      ASSERT_FALSE(stage.workers.empty()) << "empty stage " << s;
      for (sim::WorkerId w : stage.workers) {
        ASSERT_LT(w, num_workers);
        EXPECT_FALSE(seen[w]) << "worker " << w << " serves two stages";
        seen[w] = true;
        EXPECT_EQ(p.stage_of_worker(w), s);
      }
    }
    EXPECT_LE(p.num_workers(), num_workers);

    // The planner's pipeline-fill depth matches the closed form.
    EXPECT_GE(plan.in_flight, 1u);
    EXPECT_EQ(plan.in_flight, partition::optimal_in_flight(p));

    // Predicted time is positive, finite, and — by the max-bottleneck
    // definition — exactly the worst stage/boundary cost, never less than
    // any individual component.
    EXPECT_GT(plan.predicted_batch_time, 0.0);
    EXPECT_TRUE(std::isfinite(plan.predicted_batch_time));
    const Seconds analytic =
        partition::analytic_batch_time(model, p, env, batch);
    Seconds worst = 0.0;
    for (std::size_t s = 0; s < p.num_stages(); ++s) {
      const auto cost = partition::stage_cost(model, p.stage(s), env, batch);
      EXPECT_NEAR(cost.effective,
                  (cost.compute + cost.sync) /
                      static_cast<double>(p.stage(s).replication()),
                  1e-12 * std::max(1.0, cost.effective));
      EXPECT_LE(cost.effective, analytic + 1e-12);
      worst = std::max(worst, cost.effective);
    }
    for (std::size_t b = 0; b + 1 < p.num_stages(); ++b) {
      const Seconds t =
          partition::boundary_transfer_time(model, p, b, env, batch);
      EXPECT_LE(t, analytic + 1e-12);
      worst = std::max(worst, t);
    }
    EXPECT_NEAR(analytic, worst, 1e-12 * std::max(1.0, worst))
        << "analytic_batch_time must equal the max component cost";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLayerGraphs, RandomModelPlanner,
                         ::testing::Range(0, 200));

// ---------------------------------------------------------------------------
// Event-queue properties: the timing wheel against a sorted-vector oracle
// ---------------------------------------------------------------------------

/// The oracle: (time, seq) pairs; the minimum under (time, then seq) is
/// what any correct queue must dequeue next.
using OracleEntry = std::pair<Seconds, std::uint64_t>;

std::size_t oracle_min(const std::vector<OracleEntry>& oracle) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < oracle.size(); ++i) {
    if (oracle[i].first < oracle[best].first ||
        (oracle[i].first == oracle[best].first &&
         oracle[i].second < oracle[best].second)) {
      best = i;
    }
  }
  return best;
}

class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzz, RandomScheduleMatchesOracleOnBothQueues) {
  // Random interleavings of pushes (times spanning the near heap, all three
  // wheel levels, the overflow horizon and +inf) and pops; after every pop
  // both queues must agree with the oracle's (time, seq) minimum exactly.
  Rng rng(GetParam() * 7919 + 1);
  sim::TimingWheelEventQueue wheel;
  sim::HeapEventQueue heap;
  std::vector<OracleEntry> oracle;
  std::uint64_t seq = 0;
  Seconds watermark = 0.0;  // last popped time: pushes never go backwards

  for (int op = 0; op < 4000; ++op) {
    const bool push = oracle.empty() || rng.chance(0.55);
    if (push) {
      Seconds t;
      switch (rng.uniform_int(0, 6)) {
        case 0: t = watermark; break;  // exact tie: FIFO must decide
        case 1: t = watermark + rng.uniform(0.0, 0.0005); break;  // same tick
        case 2: t = watermark + rng.uniform(0.0, 2.0); break;     // level 0/1
        case 3: t = watermark + rng.uniform(0.0, 400.0); break;   // level 1/2
        case 4: t = watermark + rng.uniform(0.0, 5e4); break;     // level 2
        case 5: t = watermark + 2e7; break;  // beyond horizon: overflow
        default: t = std::numeric_limits<Seconds>::infinity(); break;
      }
      wheel.push(sim::SimEvent{t, seq, {}, nullptr});
      heap.push(sim::SimEvent{t, seq, {}, nullptr});
      oracle.emplace_back(t, seq);
      ++seq;
    } else {
      const std::size_t want = oracle_min(oracle);
      ASSERT_EQ(wheel.peek_time(), oracle[want].first);
      const sim::SimEvent got_w = wheel.pop();
      const sim::SimEvent got_h = heap.pop();
      ASSERT_EQ(got_w.time, oracle[want].first);
      ASSERT_EQ(got_w.seq, oracle[want].second);
      ASSERT_EQ(got_h.time, got_w.time);
      ASSERT_EQ(got_h.seq, got_w.seq);
      if (std::isfinite(got_w.time)) watermark = got_w.time;
      oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(want));
    }
    ASSERT_EQ(wheel.size(), oracle.size());
    ASSERT_EQ(wheel.empty(), oracle.empty());
  }
  // Drain: the remaining events must come out fully sorted on both queues.
  while (!oracle.empty()) {
    const std::size_t want = oracle_min(oracle);
    const sim::SimEvent got_w = wheel.pop();
    const sim::SimEvent got_h = heap.pop();
    ASSERT_EQ(got_w.time, oracle[want].first);
    ASSERT_EQ(got_w.seq, oracle[want].second);
    ASSERT_EQ(got_h.seq, got_w.seq);
    oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(want));
  }
  EXPECT_TRUE(wheel.empty());
  EXPECT_TRUE(heap.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz,
                         ::testing::Range<std::uint64_t>(0, 16));

TEST(EventQueueProperty, SameTimestampDequeuesInSchedulingOrder) {
  // 500 events at one instant: (time, seq) FIFO is the whole contract.
  sim::TimingWheelEventQueue wheel;
  for (std::uint64_t s = 0; s < 500; ++s)
    wheel.push(sim::SimEvent{1.5, s, {}, nullptr});
  for (std::uint64_t s = 0; s < 500; ++s) {
    const sim::SimEvent ev = wheel.pop();
    ASSERT_EQ(ev.time, 1.5);
    ASSERT_EQ(ev.seq, s);
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(EventQueueProperty, CascadesAcrossLevelBoundaries) {
  // Times striding every level-0 window edge and well into level 1 and 2;
  // pushed shuffled, must dequeue sorted. Exercises cascade_slot re-basing
  // (the bug class where a stale coarse bucket captures near events).
  Rng rng(42);
  std::vector<Seconds> times;
  for (int i = 0; i < 800; ++i)
    times.push_back(static_cast<Seconds>(i) * 0.37);  // 0 .. ~296 s
  std::vector<Seconds> shuffled = times;
  rng.shuffle(shuffled);

  sim::TimingWheelEventQueue wheel;
  std::uint64_t seq = 0;
  for (const Seconds t : shuffled)
    wheel.push(sim::SimEvent{t, seq++, {}, nullptr});
  Seconds prev = -1.0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const sim::SimEvent ev = wheel.pop();
    ASSERT_GT(ev.time, prev);
    prev = ev.time;
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(EventQueueProperty, FarFutureEventsWaitInOverflowAndRepage) {
  sim::TimingWheelEventQueue wheel;
  // Beyond the three-level horizon (~16777 s): overflow list.
  wheel.push(sim::SimEvent{3e7, 0, {}, nullptr});
  wheel.push(sim::SimEvent{1.0, 1, {}, nullptr});
  ASSERT_EQ(wheel.pop().seq, 1u);
  // Draining the levels re-pages the wheel around the overflow tick …
  ASSERT_EQ(wheel.peek_time(), 3e7);
  // … after which nearer events can still be scheduled and win again.
  wheel.push(sim::SimEvent{3e7 - 1.0, 2, {}, nullptr});
  ASSERT_EQ(wheel.pop().seq, 2u);
  ASSERT_EQ(wheel.pop().seq, 0u);
  EXPECT_TRUE(wheel.empty());
}

TEST(EventQueueProperty, InfiniteTimesDegradeToExactHeapMode) {
  sim::TimingWheelEventQueue wheel;
  const Seconds inf = std::numeric_limits<Seconds>::infinity();
  wheel.push(sim::SimEvent{inf, 0, {}, nullptr});
  wheel.push(sim::SimEvent{inf, 1, {}, nullptr});
  wheel.push(sim::SimEvent{2.0, 2, {}, nullptr});
  ASSERT_EQ(wheel.pop().seq, 2u);
  // Only unrepresentable ticks remain: the wheel re-pages into pure-heap
  // mode. New finite pushes must still dequeue before the infinite ones,
  // and the infinite ones FIFO among themselves.
  ASSERT_EQ(wheel.peek_time(), inf);
  wheel.push(sim::SimEvent{5.0, 3, {}, nullptr});
  ASSERT_EQ(wheel.pop().seq, 3u);
  ASSERT_EQ(wheel.pop().seq, 0u);
  ASSERT_EQ(wheel.pop().seq, 1u);
  EXPECT_TRUE(wheel.empty());
}

// ---------------------------------------------------------------------------
// RingQueue (the deque replacement in GPU executors) vs a deque oracle
// ---------------------------------------------------------------------------

class RingQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingQueueFuzz, RandomOpsMatchDequeOracle) {
  Rng rng(GetParam() * 104729 + 3);
  common::RingQueue<int> ring;
  std::deque<int> oracle;
  int next = 0;
  for (int op = 0; op < 5000; ++op) {
    const int kind = static_cast<int>(rng.uniform_int(0, 99));
    if (oracle.empty() || kind < 55) {
      ring.push_back(next);
      oracle.push_back(next);
      ++next;
    } else if (kind < 95) {
      ASSERT_EQ(ring.front(), oracle.front());
      ASSERT_EQ(ring.pop_front(), oracle.front());
      oracle.pop_front();
    } else {
      ring.clear();
      oracle.clear();
    }
    ASSERT_EQ(ring.size(), oracle.size());
    ASSERT_EQ(ring.empty(), oracle.empty());
    if (!oracle.empty()) {
      ASSERT_EQ(ring.front(), oracle.front());
    }
  }
  while (!oracle.empty()) {
    ASSERT_EQ(ring.pop_front(), oracle.front());
    oracle.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingQueueFuzz,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(RingQueueProperty, MoveOnlyPayloadsReleaseOnPop) {
  // pop_front resets the slot, so a move-only payload's resources are
  // released immediately — the property GpuExecutor task queues rely on.
  common::RingQueue<std::unique_ptr<int>> ring;
  for (int i = 0; i < 40; ++i) ring.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 40; ++i) {
    auto p = ring.pop_front();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);
  }
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace autopipe
