// Pipeline-executor tests: steady-state throughput against hand-computed
// bottlenecks, schedule-family ordering (async vs flush bubbles), live
// partition switching in both modes, telemetry, and memory accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/expect.hpp"
#include "common/units.hpp"
#include "models/model.hpp"
#include "models/zoo.hpp"
#include "partition/analytic_eval.hpp"
#include "partition/partition.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/memory.hpp"
#include "pipeline/schedule.hpp"
#include "sim/cluster.hpp"

namespace autopipe::pipeline {
namespace {

/// Four uniform layers, 100 FLOPs fwd / 200 bwd per sample, tiny tensors.
models::ModelSpec uniform_model(std::size_t layers = 4,
                                double act_bytes = 10.0,
                                double param_bytes = 40.0) {
  std::vector<models::LayerSpec> specs;
  for (std::size_t l = 0; l < layers; ++l) {
    models::LayerSpec s;
    s.name = "l" + std::to_string(l);
    s.fwd_flops_per_sample = 100.0;
    s.bwd_flops_per_sample = 200.0;
    s.activation_bytes_per_sample = act_bytes;
    s.param_bytes = param_bytes;
    specs.push_back(std::move(s));
  }
  return models::ModelSpec("uniform", 2, std::move(specs));
}

/// A small fast cluster: 4 servers x 1 GPU at 1e4 FLOP/s, 1e5 B/s NICs —
/// compute-dominated unless a test says otherwise.
struct Rig {
  explicit Rig(std::size_t servers = 4, double gpu_flops = 1e4,
               double nic = 1e5) {
    config.num_servers = servers;
    config.gpus_per_server = 1;
    config.gpu_specs = {sim::GpuSpec{"toy", gpu_flops, gib(16)}};
    config.nic_bandwidth = nic;
    cluster = std::make_unique<sim::Cluster>(sim, config);
  }
  sim::Simulator sim;
  sim::ClusterConfig config;
  std::unique_ptr<sim::Cluster> cluster;
};

ExecutorConfig clean_config() {
  ExecutorConfig c;
  c.framework.per_layer_overhead = 0.0;
  c.framework.comm_efficiency = 1.0;
  c.framework.compute_efficiency = 1.0;
  return c;
}

TEST(Executor, SingleStageMatchesComputeRate) {
  Rig rig(1);
  const auto model = uniform_model();
  PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::single_stage(model.num_layers(), {0}),
      clean_config());
  const auto report = executor.run(20, 5);
  // Per batch: 4 layers x (100+200) FLOP/sample x 2 samples = 2400 FLOPs at
  // 1e4 FLOP/s = 0.24 s -> 2/0.24 ≈ 8.33 samples/s.
  EXPECT_NEAR(report.throughput, 2.0 / 0.24, 0.05);
  EXPECT_EQ(report.iterations, 20u);
  EXPECT_EQ(report.batch_size, 2u);
}

TEST(Executor, PipelineReachesBottleneckThroughput) {
  Rig rig(4);
  const auto model = uniform_model();
  const auto partition =
      partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3});
  auto config = clean_config();
  config.in_flight = 5;  // one above PipeDream's NOW: fills the pipe
  PipelineExecutor executor(*rig.cluster, model, partition, config);
  const auto report = executor.run(60, 20);
  // Each worker handles one layer: (100+200)x2 = 600 FLOPs/batch = 0.06 s
  // period; comm is negligible at 1e5 B/s for 20-byte tensors.
  EXPECT_NEAR(report.throughput, 2.0 / 0.06, 2.0);
  EXPECT_GT(report.worker_utilization, 0.9);
}

TEST(Executor, PipeDreamNowUnderfillsWhenBpExceedsFp) {
  // The paper's Observation 3: with BP = 2x FP, PipeDream's NOW (= number
  // of stages) does NOT fill the pipeline — utilization stalls below ~85%.
  Rig rig(4);
  const auto model = uniform_model();
  const auto partition =
      partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3});
  PipelineExecutor executor(*rig.cluster, model, partition, clean_config());
  const auto report = executor.run(60, 20);
  EXPECT_LT(report.worker_utilization, 0.85);
  EXPECT_GT(report.worker_utilization, 0.6);
}

TEST(Executor, MatchesAnalyticModelOnUniformPipeline) {
  Rig rig(4);
  const auto model = uniform_model();
  const auto partition =
      partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3});
  const auto env = partition::EnvironmentView::from_cluster(
      *rig.cluster, clean_config().framework, comm::SyncScheme::kRing);
  const double predicted =
      partition::analytic_throughput(model, partition, env, 2);
  auto config = clean_config();
  config.in_flight = 5;  // filled pipeline: the regime the model describes
  PipelineExecutor executor(*rig.cluster, model, partition, config);
  const auto report = executor.run(60, 20);
  EXPECT_NEAR(report.throughput, predicted, predicted * 0.1);
}

TEST(Executor, InFlightOneIsModelParallelism) {
  const auto model = uniform_model();
  double pipe_speed, mp_speed;
  {
    Rig rig(4);
    PipelineExecutor executor(
        *rig.cluster, model,
        partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3}),
        clean_config());
    pipe_speed = executor.run(40, 10).throughput;
  }
  {
    Rig rig(4);
    auto config = clean_config();
    config.in_flight = 1;
    PipelineExecutor executor(
        *rig.cluster, model,
        partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3}),
        config);
    mp_speed = executor.run(40, 10).throughput;
  }
  // Pipelining should approach 4x naive model parallelism (Fig 1).
  EXPECT_GT(pipe_speed, 3.0 * mp_speed);
}

TEST(Executor, GPipeFlushCostsThroughput) {
  const auto model = uniform_model();
  double async_speed, gpipe_speed;
  {
    Rig rig(4);
    PipelineExecutor executor(
        *rig.cluster, model,
        partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3}),
        clean_config());
    async_speed = executor.run(40, 10).throughput;
  }
  {
    Rig rig(4);
    auto config = clean_config();
    config.mode = ScheduleMode::kGPipe;
    config.micro_batches = 2;
    PipelineExecutor executor(
        *rig.cluster, model,
        partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3}),
        config);
    gpipe_speed = executor.run(40, 10).throughput;
  }
  EXPECT_LT(gpipe_speed, async_speed);
}

TEST(Executor, DappleBeatsGPipe) {
  // Early backward shrinks the activation-stash window and the drain; with
  // equal micro-batches DAPPLE should be at least as fast as GPipe.
  const auto model = uniform_model(8);
  auto run_mode = [&](ScheduleMode mode) {
    Rig rig(4);
    auto config = clean_config();
    config.mode = mode;
    config.micro_batches = 4;
    PipelineExecutor executor(
        *rig.cluster, model,
        partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3}),
        config);
    return executor.run(30, 10).throughput;
  };
  EXPECT_GE(run_mode(ScheduleMode::kDapple) * 1.02,
            run_mode(ScheduleMode::kGPipe));
}

TEST(Executor, ChimeraAndTwoBWRun) {
  const auto model = uniform_model(8);
  for (ScheduleMode mode : {ScheduleMode::kChimera, ScheduleMode::kTwoBW}) {
    Rig rig(4);
    auto config = clean_config();
    config.mode = mode;
    config.micro_batches = 4;
    PipelineExecutor executor(
        *rig.cluster, model,
        partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3}),
        config);
    const auto report = executor.run(20, 5);
    EXPECT_GT(report.throughput, 0.0) << to_string(mode);
    EXPECT_EQ(report.iterations, 20u) << to_string(mode);
  }
}

TEST(Executor, ReplicatedStageSyncGeneratesTraffic) {
  Rig rig(4, 1e4, 1e6);
  const auto model = uniform_model();
  const partition::Partition replicated(
      {{0, 1, {0, 1}}, {2, 3, {2, 3}}}, model.num_layers());
  PipelineExecutor executor(*rig.cluster, model, replicated, clean_config());
  const auto report = executor.run(20, 5);
  // Weight sync for two replicated stages must appear on the wire beyond
  // the activation traffic: activations are 10 B x 2 samples per boundary;
  // params are 80 B per stage.
  EXPECT_GT(report.bytes_on_wire, 20.0 * 20);
}

TEST(Executor, IterationCallbackSeesEveryIteration) {
  Rig rig(2);
  const auto model = uniform_model(2);
  PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1}),
      clean_config());
  std::vector<std::size_t> seen;
  executor.set_iteration_callback(
      [&](std::size_t iters) { seen.push_back(iters); });
  executor.run(10, 2);
  ASSERT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(Executor, RunIsResumable) {
  Rig rig(2);
  const auto model = uniform_model(2);
  PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1}),
      clean_config());
  executor.run(5, 1);
  const auto second = executor.run(5, 1);
  EXPECT_EQ(executor.completed_iterations(), 10u);
  EXPECT_EQ(second.iteration_end_times.size(), 5u);
}

TEST(Executor, FineGrainedSwitchAdoptsNewPartition) {
  Rig rig(4);
  const auto model = uniform_model(8);
  const auto before =
      partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3});
  partition::Partition after(
      {{0, 3, {0}}, {4, 5, {1}}, {6, 6, {2}}, {7, 7, {3}}},
      model.num_layers());
  PipelineExecutor executor(*rig.cluster, model, before, clean_config());
  executor.set_iteration_callback([&](std::size_t iters) {
    if (iters == 5)
      executor.request_switch(after,
                              PipelineExecutor::SwitchMode::kFineGrained);
  });
  executor.run(30, 10);
  EXPECT_EQ(executor.current_partition(), after);
  EXPECT_EQ(executor.switches_performed(), 1u);
}

TEST(Executor, StopTheWorldStallsMoreThanFineGrained) {
  const auto model = uniform_model(8, 10.0, 5e4);  // heavy weights to move
  auto run_with = [&](PipelineExecutor::SwitchMode mode) {
    Rig rig(4, 1e4, 1e5);
    const auto before =
        partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3});
    partition::Partition after(
        {{0, 0, {0}}, {1, 3, {1}}, {4, 5, {2}}, {6, 7, {3}}},
        model.num_layers());
    PipelineExecutor executor(*rig.cluster, model, before, clean_config());
    executor.set_iteration_callback([&, mode](std::size_t iters) {
      if (iters == 10) executor.request_switch(after, mode);
    });
    const auto report = executor.run(40, 5);
    EXPECT_EQ(executor.switches_performed(), 1u);
    return report;
  };
  const auto stw = run_with(PipelineExecutor::SwitchMode::kStopTheWorld);
  const auto fg = run_with(PipelineExecutor::SwitchMode::kFineGrained);
  // Fine-grained switching keeps the pipeline running: higher throughput
  // over the same iteration budget (§4.4's whole point).
  EXPECT_GT(fg.throughput, stw.throughput);
  EXPECT_GT(stw.switch_stall, 0.0);
}

TEST(Executor, SwitchToSamePartitionIsRejected) {
  Rig rig(2);
  const auto model = uniform_model(2);
  const auto p =
      partition::Partition::even_split(model.num_layers(), {0, 1});
  PipelineExecutor executor(*rig.cluster, model, p, clean_config());
  EXPECT_FALSE(
      executor.request_switch(p, PipelineExecutor::SwitchMode::kFineGrained));
}

TEST(Executor, SecondSwitchWhileInProgressIsRejected) {
  Rig rig(4, 1e4, 1e2);  // slow network so migration stays in flight
  const auto model = uniform_model(8, 10.0, 1e4);
  const auto p0 =
      partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3});
  partition::Partition p1(
      {{0, 3, {0}}, {4, 5, {1}}, {6, 6, {2}}, {7, 7, {3}}},
      model.num_layers());
  partition::Partition p2(
      {{0, 0, {0}}, {1, 5, {1}}, {6, 6, {2}}, {7, 7, {3}}},
      model.num_layers());
  PipelineExecutor executor(*rig.cluster, model, p0, clean_config());
  EXPECT_TRUE(executor.request_switch(
      p1, PipelineExecutor::SwitchMode::kFineGrained));
  EXPECT_TRUE(executor.switch_in_progress());
  EXPECT_FALSE(executor.request_switch(
      p2, PipelineExecutor::SwitchMode::kFineGrained));
}

TEST(Executor, ObservedBandwidthApproachesLineRate) {
  Rig rig(4, 1e4, 1e5);
  const auto model = uniform_model(4, 1e4);  // big activations: wire busy
  PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3}),
      clean_config());
  executor.run(20, 5);
  // Workers in the middle of the pipe both send and receive; their observed
  // rate should be within the NIC line rate and positive.
  for (sim::WorkerId w = 0; w < 4; ++w) {
    EXPECT_GT(executor.observed_bandwidth(w), 0.0);
    EXPECT_LE(executor.observed_bandwidth(w), 1e5 * 1.01);
  }
}

TEST(Executor, StageTimingTelemetryIsPopulated) {
  Rig rig(4);
  const auto model = uniform_model();
  PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3}),
      clean_config());
  executor.run(10, 2);
  const auto& timing = executor.last_stage_timing();
  ASSERT_EQ(timing.size(), 4u);
  for (const auto& t : timing) {
    // Durations include queueing at the GPU, so only positivity and rough
    // scale are stable properties.
    EXPECT_GT(t.fp, 0.0);
    EXPECT_GT(t.bp, 0.0);
    EXPECT_LT(t.fp + t.bp, 1.0);
  }
}

TEST(Executor, FrameworkOverheadSlowsTraining) {
  const auto model = uniform_model();
  double lean, heavy;
  {
    Rig rig(4);
    PipelineExecutor executor(
        *rig.cluster, model,
        partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3}),
        clean_config());
    lean = executor.run(30, 10).throughput;
  }
  {
    Rig rig(4);
    auto config = clean_config();
    config.framework.per_layer_overhead = 0.01;  // 10 ms per layer-pass
    PipelineExecutor executor(
        *rig.cluster, model,
        partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3}),
        config);
    heavy = executor.run(30, 10).throughput;
  }
  EXPECT_LT(heavy, lean);
}

TEST(Schedule, ByNameMapsEveryCliName) {
  EXPECT_EQ(schedule_by_name("1f1b"), ScheduleMode::kAsync1F1B);
  EXPECT_EQ(schedule_by_name("gpipe"), ScheduleMode::kGPipe);
  EXPECT_EQ(schedule_by_name("dapple"), ScheduleMode::kDapple);
  EXPECT_EQ(schedule_by_name("chimera"), ScheduleMode::kChimera);
  EXPECT_EQ(schedule_by_name("2bw"), ScheduleMode::kTwoBW);
  EXPECT_THROW(schedule_by_name("foo"), contract_error);
  EXPECT_THROW(schedule_by_name("GPipe"), contract_error);
  EXPECT_THROW(schedule_by_name(""), contract_error);
}

TEST(Memory, WeightVersionsPerSchedule) {
  EXPECT_EQ(weight_versions(ScheduleMode::kAsync1F1B, 4), 4u);
  EXPECT_EQ(weight_versions(ScheduleMode::kTwoBW, 4), 2u);
  EXPECT_EQ(weight_versions(ScheduleMode::kGPipe, 4), 1u);
  EXPECT_EQ(weight_versions(ScheduleMode::kDapple, 4), 1u);
}

TEST(Memory, FootprintArithmetic) {
  const auto model = uniform_model(4, 10.0, 100.0);
  const auto p = partition::Partition::even_split(4, {0, 1, 2, 3});
  // Worker 0, stage of 1 layer: params 100, versions 4, optimizer 200,
  // activations 10 x 2 samples x 4 resident batches = 80.
  const Bytes footprint = worker_memory_footprint(
      model, p, 0, 2, ScheduleMode::kAsync1F1B, 4);
  EXPECT_DOUBLE_EQ(footprint, 100.0 * 4 + 200.0 + 80.0);
  // Unused worker has no footprint.
  EXPECT_DOUBLE_EQ(worker_memory_footprint(model, p, 9, 2,
                                           ScheduleMode::kAsync1F1B, 4),
                   0.0);
}

TEST(Memory, ZooModelsFitTestbedGpusAtModestDepth) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterConfig{});
  for (const auto& model : models::image_models()) {
    const auto p = partition::Partition::even_split(
        model.num_layers(), {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
    EXPECT_TRUE(plan_fits_memory(cluster, model, p,
                                 model.default_batch_size() / 2,
                                 ScheduleMode::kAsync1F1B, 4))
        << model.name();
  }
}

TEST(Memory, DeepStashingCanExceedP100) {
  // Full-depth weight stashing of VGG16's early stages at batch 64 with 10
  // resident mini-batches overflows a 16 GB device — why PipeDream-2BW
  // exists.
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterConfig{});
  const auto model = models::vgg16();
  const auto p = partition::Partition::even_split(
      model.num_layers(), {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_FALSE(plan_fits_memory(cluster, model, p, 64,
                                ScheduleMode::kAsync1F1B, 10));
  // 2BW's two-version scheme relieves the parameter side.
  const Bytes stash10 = worker_memory_footprint(model, p, 9, 64,
                                                ScheduleMode::kAsync1F1B, 10);
  const Bytes twobw = worker_memory_footprint(model, p, 9, 64,
                                              ScheduleMode::kTwoBW, 10);
  EXPECT_LT(twobw, stash10);
}

TEST(Schedule, Names) {
  EXPECT_STREQ(to_string(ScheduleMode::kAsync1F1B), "PipeDream-1F1B");
  EXPECT_STREQ(to_string(ScheduleMode::kChimera), "Chimera");
  EXPECT_TRUE(is_synchronous(ScheduleMode::kGPipe));
  EXPECT_FALSE(is_synchronous(ScheduleMode::kTwoBW));
}


TEST(Executor, BurstCompletionFallsBackToWholeRunMeasurement) {
  // With in-flight far above the requested iterations, every measured
  // iteration can complete at one simulated instant; the report must fall
  // back to whole-run measurement instead of dividing by zero.
  Rig rig(2);
  const auto model = uniform_model(2);
  auto config = clean_config();
  config.in_flight = 16;
  PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1}), config);
  const auto report = executor.run(4, 2);
  EXPECT_GT(report.throughput, 0.0);
  EXPECT_TRUE(std::isfinite(report.throughput));
}


TEST(Executor, RecomputationTradesThroughputForMemory) {
  const auto model = uniform_model(8, 1000.0, 40.0);
  double plain, recompute;
  {
    Rig rig(4);
    PipelineExecutor executor(
        *rig.cluster, model,
        partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3}),
        clean_config());
    plain = executor.run(30, 10).throughput;
  }
  {
    Rig rig(4);
    auto config = clean_config();
    config.recompute_activations = true;
    PipelineExecutor executor(
        *rig.cluster, model,
        partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3}),
        config);
    recompute = executor.run(30, 10).throughput;
  }
  // Recomputation adds one forward pass of work: measurably slower but by
  // less than the full FP share (FP is 1/3 of FP+BP here).
  EXPECT_LT(recompute, plain);
  EXPECT_GT(recompute, plain * 0.6);
}

TEST(Memory, RecomputationShrinksActivationStash) {
  const auto model = uniform_model(8, 1000.0, 40.0);
  const auto p = partition::Partition::even_split(8, {0, 1, 2, 3});
  const Bytes full = worker_memory_footprint(
      model, p, 1, 2, ScheduleMode::kGPipe, 4, /*recompute=*/false);
  const Bytes lean = worker_memory_footprint(
      model, p, 1, 2, ScheduleMode::kGPipe, 4, /*recompute=*/true);
  EXPECT_LT(lean, full);
}


// Note: PS-vs-Ring *throughput* ordering is asserted on the BSP
// data-parallel runtime (baselines_test), where sync blocks the iteration.
// The async pipeline coalesces weight syncs, deliberately hiding sync
// latency from the critical path, so no such ordering holds here.
TEST(Executor, StopTheWorldSwitchCountsStall) {
  Rig rig(4, 1e4, 1e4);
  const auto model = uniform_model(8, 10.0, 5e4);
  const auto before =
      partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3});
  partition::Partition after(
      {{0, 0, {0}}, {1, 3, {1}}, {4, 5, {2}}, {6, 7, {3}}},
      model.num_layers());
  PipelineExecutor executor(*rig.cluster, model, before, clean_config());
  executor.set_iteration_callback([&](std::size_t iters) {
    if (iters == 5)
      executor.request_switch(after,
                              PipelineExecutor::SwitchMode::kStopTheWorld);
  });
  const auto report = executor.run(30, 2);
  EXPECT_EQ(report.switches, 1u);
  EXPECT_GT(report.switch_stall, 0.0);
}

}  // namespace
}  // namespace autopipe::pipeline
