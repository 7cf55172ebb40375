// The shared golden-trace scenarios: the fig3 shape in miniature, extracted
// from trace_test.cpp so the differential parity harness can replay the
// *same* committed-golden workload under both event-queue implementations,
// and a replicated-stage run whose weight syncs start several flows at one
// instant. Any edit here changes what the checked-in golden files assert —
// see tests/golden/bandwidth_drop.trace and replicated_{ring,ps}.trace.
#pragma once

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "comm/framework.hpp"
#include "common/trace.hpp"
#include "common/units.hpp"
#include "models/zoo.hpp"
#include "partition/partition.hpp"
#include "pipeline/executor.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"

namespace autopipe::test_scenarios {

/// A 5-layer convnet small enough that the golden trace stays reviewable.
inline models::ModelSpec tiny_model() {
  models::ConvNetBuilder b("tiny", 3, 32, 32);
  b.conv("c1", 8, 3)
      .maxpool("p1", 2, 2)
      .conv("c2", 16, 3)
      .global_avgpool("gap")
      .fc("fc", 10);
  return std::move(b).build(16);
}

struct GoldenCapture {
  std::string text;    ///< write_text output
  std::string chrome;  ///< write_chrome_json output of the same run
  std::vector<trace::Event> events;
};

/// The fig3 shape in miniature: two single-GPU servers, a two-stage
/// pipeline, an all-NIC bandwidth drop at iteration 5 and the response a
/// controller would make — a stop-the-world switch at iteration 7 that
/// shifts work toward the cheaper cut. One golden file then exercises
/// every event family the analyzer classifies: compute, flows, saturated
/// links and a reconfiguration window.
///
/// `kind` selects the event-queue implementation; the committed golden was
/// recorded before the timing wheel existed, so byte-identity under
/// kWheel *is* the semantic-preservation proof for the core rewrite.
inline GoldenCapture run_golden_scenario(
    sim::EventQueueKind kind = sim::EventQueueKind::kWheel) {
  sim::Simulator sim(kind);
  sim.tracer().set_enabled(true);
  sim::ClusterConfig config;
  config.num_servers = 2;
  config.gpus_per_server = 1;
  config.nic_bandwidth = gbps(10);
  sim::Cluster cluster(sim, config);

  const auto model = tiny_model();
  const std::size_t L = model.num_layers();
  const auto initial = partition::Partition::even_split(L, {0, 1});
  // Pull the cut back to after the pool layer: smaller activations cross
  // the (now slow) wire, and the second conv's weights migrate.
  const partition::Partition next({{0, 1, {0}}, {2, L - 1, {1}}}, L);
  pipeline::PipelineExecutor executor(cluster, model, initial,
                                      pipeline::ExecutorConfig{});
  sim::ResourceTrace rtrace;
  rtrace.at_iteration(5, sim::ResourceTrace::set_all_nic_bandwidth(gbps(1)));
  executor.set_iteration_callback([&](std::size_t iters) {
    rtrace.apply_iteration(iters, cluster);
    if (iters == 7) {
      executor.request_switch(
          next, pipeline::PipelineExecutor::SwitchMode::kStopTheWorld);
    }
  });
  executor.run(12, 2);

  GoldenCapture capture;
  std::ostringstream os;
  sim.tracer().write_text(os);
  capture.text = os.str();
  std::ostringstream chrome;
  sim.tracer().write_chrome_json(chrome);
  capture.chrome = chrome.str();
  capture.events = sim.tracer().events();
  return capture;
}

/// Replicated-stage traffic the bandwidth-drop golden never produces: the
/// tiny model on 2×2 GPUs with stage 0 replicated on workers {0, 2, 3}
/// (both servers), so every weight sync starts several flows at one
/// instant — a ring step or a parameter-server push. NICs drop to 2 Gbps
/// at iteration 3; at iteration 5 a stop-the-world switch moves the second
/// conv onto the replicas, and server 1's link fails the instant the
/// migration flows start, so the abort cancels them. The link returns
/// 5 ms later. Returns the text trace.
inline std::string run_replicated_sync_scenario(
    comm::SyncScheme scheme,
    sim::EventQueueKind kind = sim::EventQueueKind::kWheel) {
  sim::Simulator sim(kind);
  sim.tracer().set_enabled(true);
  sim::ClusterConfig config;
  config.num_servers = 2;
  config.gpus_per_server = 2;
  config.nic_bandwidth = gbps(10);
  sim::Cluster cluster(sim, config);

  const auto model = tiny_model();
  const std::size_t L = model.num_layers();
  const partition::Partition initial({{0, 1, {0, 2, 3}}, {2, L - 1, {1}}},
                                     L);
  const partition::Partition next({{0, 2, {0, 2, 3}}, {3, L - 1, {1}}}, L);
  pipeline::ExecutorConfig exec_config;
  exec_config.sync_scheme = scheme;
  pipeline::PipelineExecutor executor(cluster, model, initial, exec_config);
  executor.add_switch_observer(
      [&](const pipeline::PipelineExecutor::SwitchAttempt& attempt) {
        if (attempt.phase != pipeline::SwitchPhase::kTransfer) return;
        sim.after(0.0, [&] { cluster.set_link_down(1); });
        sim.after(0.005, [&] { cluster.set_link_up(1); });
      });
  sim::ResourceTrace rtrace;
  rtrace.at_iteration(3, sim::ResourceTrace::set_all_nic_bandwidth(gbps(2)));
  executor.set_iteration_callback([&](std::size_t iters) {
    rtrace.apply_iteration(iters, cluster);
    if (iters == 5) {
      executor.request_switch(
          next, pipeline::PipelineExecutor::SwitchMode::kStopTheWorld);
    }
  });
  executor.run(14, 2);

  std::ostringstream os;
  sim.tracer().write_text(os);
  return os.str();
}

}  // namespace autopipe::test_scenarios
