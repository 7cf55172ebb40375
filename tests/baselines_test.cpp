// Baseline-runtime tests: BSP data parallelism against hand-computed
// iteration times, PS-vs-Ring ordering, and the pipeline-vs-baseline
// relationships the paper's Fig 8 relies on.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/data_parallel.hpp"
#include "common/units.hpp"
#include "models/model.hpp"
#include "models/zoo.hpp"
#include "partition/partition.hpp"
#include "pipeline/executor.hpp"
#include "sim/cluster.hpp"

namespace autopipe::baselines {
namespace {

models::ModelSpec toy_model(double param_bytes = 1000.0) {
  std::vector<models::LayerSpec> specs;
  for (int l = 0; l < 4; ++l) {
    models::LayerSpec s;
    s.name = "l" + std::to_string(l);
    s.fwd_flops_per_sample = 100.0;
    s.bwd_flops_per_sample = 200.0;
    s.activation_bytes_per_sample = 10.0;
    s.param_bytes = param_bytes;
    specs.push_back(std::move(s));
  }
  return models::ModelSpec("toy", 2, std::move(specs));
}

struct Rig {
  explicit Rig(std::size_t servers = 4, double nic = 1e4) {
    config.num_servers = servers;
    config.gpus_per_server = 1;
    config.gpu_specs = {sim::GpuSpec{"toy", 1e4, gib(16)}};
    config.nic_bandwidth = nic;
    cluster = std::make_unique<sim::Cluster>(sim, config);
  }
  sim::Simulator sim;
  sim::ClusterConfig config;
  std::unique_ptr<sim::Cluster> cluster;
};

DataParallelConfig clean_dp() {
  DataParallelConfig c;
  c.framework.per_layer_overhead = 0.0;
  c.framework.comm_efficiency = 1.0;
  c.framework.compute_efficiency = 1.0;
  return c;
}

TEST(DataParallel, SingleWorkerMatchesComputeTime) {
  Rig rig(1);
  const auto model = toy_model();
  const auto report = run_data_parallel(*rig.cluster, model, {0}, 10, 2,
                                        clean_dp());
  // 4 layers x 300 FLOPs x 2 samples = 2400 FLOPs at 1e4 = 0.24 s/iter.
  EXPECT_NEAR(report.throughput, 2.0 / 0.24, 0.1);
}

TEST(DataParallel, AggregateThroughputCountsAllWorkers) {
  const auto model = toy_model(1.0);  // negligible sync volume
  Rig one(1), four(4);
  const double t1 =
      run_data_parallel(*one.cluster, model, {0}, 10, 2, clean_dp())
          .throughput;
  const double t4 = run_data_parallel(*four.cluster, model, {0, 1, 2, 3}, 10,
                                      2, clean_dp())
                        .throughput;
  EXPECT_NEAR(t4, 4.0 * t1, 0.3 * t1);
}

TEST(DataParallel, SyncCostReducesThroughput) {
  Rig rig(4, 1e4);
  const auto light = toy_model(10.0);
  const auto heavy = toy_model(1e4);  // 40 KB model over 10 KB/s links
  const double fast = run_data_parallel(*rig.cluster, light, {0, 1, 2, 3},
                                        10, 2, clean_dp())
                          .throughput;
  Rig rig2(4, 1e4);
  const double slow = run_data_parallel(*rig2.cluster, heavy, {0, 1, 2, 3},
                                        10, 2, clean_dp())
                          .throughput;
  EXPECT_LT(slow, fast * 0.5);
}

TEST(DataParallel, PsSlowerThanRingOnBigModels) {
  const auto model = toy_model(1e4);
  auto run_scheme = [&](comm::SyncScheme scheme) {
    Rig rig(4, 1e4);
    auto config = clean_dp();
    config.sync_scheme = scheme;
    return run_data_parallel(*rig.cluster, model, {0, 1, 2, 3}, 10, 2,
                             config)
        .throughput;
  };
  // The un-sharded PS concentrates (n-1)x traffic at one NIC.
  EXPECT_LT(run_scheme(comm::SyncScheme::kParameterServer),
            run_scheme(comm::SyncScheme::kRing));
}

TEST(DataParallel, IterationSeriesIsMonotone) {
  Rig rig(2);
  const auto report = run_data_parallel(*rig.cluster, toy_model(), {0, 1},
                                        8, 1, clean_dp());
  ASSERT_EQ(report.iteration_end_times.size(), 8u);
  for (std::size_t i = 1; i < 8; ++i)
    EXPECT_GT(report.iteration_end_times[i],
              report.iteration_end_times[i - 1]);
}

TEST(Comparison, PipelineBeatsDataParallelOnSlowNetwork) {
  // The pipeline's raison d'être (Fig 1): on a communication-bound setup,
  // pipelining outruns data parallelism because it ships activations, not
  // the whole model.
  const auto model = toy_model(5e4);  // 200 KB of weights, 10 B activations
  Rig dp_rig(4, 1e4);
  const double dp = run_data_parallel(*dp_rig.cluster, model, {0, 1, 2, 3},
                                      8, 2, clean_dp())
                        .throughput;
  Rig pipe_rig(4, 1e4);
  pipeline::ExecutorConfig pc;
  pc.framework.per_layer_overhead = 0.0;
  pc.framework.comm_efficiency = 1.0;
  pc.framework.compute_efficiency = 1.0;
  pipeline::PipelineExecutor executor(
      *pipe_rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3}),
      pc);
  const double pipe = executor.run(30, 10).throughput;
  EXPECT_GT(pipe, dp);
}

}  // namespace
}  // namespace autopipe::baselines
