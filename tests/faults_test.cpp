// Tests for the fault-injection subsystem and the recovery machinery built
// on it: FaultPlan construction and spec parsing, cluster down/up state
// transitions, flow stall-and-resume, executor-level drop/replay/degraded
// repair and in-place rejoin, the controller's stall watchdog with
// emergency re-planning and re-admission, and the fault-downtime bubble
// class in trace analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/bubbles.hpp"
#include "analysis/trace_view.hpp"
#include "autopipe/controller.hpp"
#include "common/expect.hpp"
#include "common/units.hpp"
#include "faults/fault_plan.hpp"
#include "models/zoo.hpp"
#include "partition/partition.hpp"
#include "partition/pipedream_planner.hpp"
#include "pipeline/executor.hpp"
#include "sim/cluster.hpp"
#include "sim/simulator.hpp"

namespace autopipe {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan construction and parsing
// ---------------------------------------------------------------------------

TEST(FaultPlan, PairSchedulersEmitOutageAndRecovery) {
  faults::FaultPlan plan;
  plan.preempt_gpu(3, 1.0, 0.5);
  plan.fail_link(1, 2.0, 0.25);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_DOUBLE_EQ(plan.points()[0].at, 1.0);
  EXPECT_EQ(plan.points()[0].event.kind, faults::FaultEvent::Kind::kGpuDown);
  EXPECT_DOUBLE_EQ(plan.points()[1].at, 1.5);
  EXPECT_EQ(plan.points()[1].event.kind, faults::FaultEvent::Kind::kGpuUp);
  EXPECT_EQ(plan.points()[2].event.kind,
            faults::FaultEvent::Kind::kLinkDown);
  EXPECT_DOUBLE_EQ(plan.points()[3].at, 2.25);
  EXPECT_DOUBLE_EQ(plan.horizon(), 2.25);
  EXPECT_NE(plan.points()[0].event.describe().find("gpu_down"),
            std::string::npos);
}

TEST(FaultPlan, FlapSchedulesAlternatingCycles) {
  faults::FaultPlan plan;
  plan.flap_link(0, 1.0, 0.1, 3);
  ASSERT_EQ(plan.size(), 6u);  // 3 down/up cycles
  for (std::size_t i = 0; i < plan.size(); i += 2) {
    EXPECT_EQ(plan.points()[i].event.kind,
              faults::FaultEvent::Kind::kLinkDown);
    EXPECT_EQ(plan.points()[i + 1].event.kind,
              faults::FaultEvent::Kind::kLinkUp);
    EXPECT_DOUBLE_EQ(plan.points()[i + 1].at, plan.points()[i].at + 0.1);
  }
}

TEST(FaultPlan, ParseInlineSpec) {
  const auto plan = faults::parse_spec(
      "0.5 gpu_down 2; 1.0 straggler_begin 1 0.4; 1.5 gpu_up 2", 2, 2);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.points()[0].at, 0.5);
  EXPECT_EQ(plan.points()[1].event.kind,
            faults::FaultEvent::Kind::kStragglerBegin);
  EXPECT_DOUBLE_EQ(plan.points()[1].event.value, 0.4);
}

TEST(FaultPlan, ParseRandomSpecIsDeterministic) {
  const std::string spec = "random:seed=7,start=1.0,clear=6.0,gpus=2,links=1";
  const auto a = faults::parse_spec(spec, 3, 2);
  const auto b = faults::parse_spec(spec, 3, 2);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points()[i].at, b.points()[i].at);
    EXPECT_EQ(a.points()[i].event.kind, b.points()[i].event.kind);
    EXPECT_EQ(a.points()[i].event.index, b.points()[i].event.index);
  }
  // Every injected outage recovers within the requested window.
  EXPECT_LE(a.horizon(), 6.0 + 1e-9);
  for (const auto& p : a.points()) EXPECT_GE(p.at, 1.0 - 1e-9);
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(faults::parse_spec("0.5 gpu_melt 0", 2, 2), contract_error);
  EXPECT_THROW(faults::parse_spec("0.5 straggler_begin 0", 2, 2),
               contract_error);  // missing scale
  EXPECT_THROW(faults::parse_spec("0.5 gpu_down 99", 2, 2),
               contract_error);  // worker out of range
  EXPECT_THROW(faults::parse_spec("random:bogus_key=1", 2, 2),
               contract_error);
  EXPECT_THROW(faults::parse_spec("@/no/such/fault/file", 2, 2),
               contract_error);
  // A schedule line takes exactly its fields; the index is a whole number.
  for (const char* line :
       {"1.0 gpu_down 1 junk", "2.0 gpu_up 1x", "1.0 gpu_down -1",
        "1.0 link_down 1.5", "0.5 straggler_begin 0 0.5 0.7",
        "0.5 straggler_end 0 0.5"}) {
    EXPECT_THROW(faults::parse_spec(line, 2, 2), contract_error) << line;
  }
  EXPECT_EQ(faults::parse_spec("1.0 gpu_down 1;2.0 gpu_up 1", 2, 2).size(),
            2u);
  // The seed and the counts of a random spec are non-negative integers.
  for (const std::string key :
       {"seed", "gpus", "links", "flaps", "stragglers", "profiler_drops"}) {
    for (const char* value : {"1.5", "-1", "-3", "1e30"}) {
      EXPECT_THROW(faults::parse_spec("random:" + key + "=" + value, 2, 2),
                   contract_error)
          << key << "=" << value;
    }
  }
  EXPECT_NO_THROW(faults::parse_spec("random:seed=3,gpus=1,start=1.5", 2, 2));
}

namespace {

/// The contract message a malformed spec dies with; "" if it parses.
std::string spec_error(const std::string& spec) {
  try {
    faults::parse_spec(spec, 2, 2);
  } catch (const contract_error& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(FaultPlan, MalformedSpecErrorsNameLineAndField) {
  // Schedule lines: the message carries the 1-based line of the offender.
  EXPECT_NE(spec_error("0.5 gpu_down 0; not a fault line")
                .find("fault spec line 2: expected"),
            std::string::npos);
  EXPECT_NE(spec_error("0.5 gpu_down 0; 1.0 gpu_melt 0")
                .find("fault spec line 2: unknown fault kind 'gpu_melt'"),
            std::string::npos);
  EXPECT_NE(spec_error("0.5 straggler_begin 1")
                .find("fault spec line 1: straggler_begin needs a scale"),
            std::string::npos);
  EXPECT_NE(spec_error("0.5 gpu_down 0; 1.0 gpu_down 99")
                .find("fault spec line 2: worker index 99 out of range"),
            std::string::npos);
  EXPECT_NE(spec_error("0.5 link_down 7")
                .find("fault spec line 1: server index 7 out of range"),
            std::string::npos);

  // Random specs: comma-separated entries, so the message carries the
  // 1-based entry position and the offending field.
  EXPECT_NE(spec_error("random:seed=1,gpus")
                .find("random entry 2: expected key=value, got 'gpus'"),
            std::string::npos);
  EXPECT_NE(spec_error("random:seed=1,=3")
                .find("random entry 2: empty key in '=3'"),
            std::string::npos);
  EXPECT_NE(spec_error("random:seed=1,gpus=many")
                .find("random entry 2: field 'gpus': bad number 'many'"),
            std::string::npos);
  EXPECT_NE(spec_error("random:seed=1,start=1.0x")
                .find("random entry 2: field 'start': bad number '1.0x'"),
            std::string::npos);
  EXPECT_NE(spec_error("random:seed=1,bogus_key=1")
                .find("random entry 2: unknown random key 'bogus_key'"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Cluster state transitions
// ---------------------------------------------------------------------------

TEST(ClusterFaults, WorkerAndLinkTransitions) {
  sim::Simulator sim;
  sim::ClusterConfig config;
  config.num_servers = 2;
  config.gpus_per_server = 2;
  sim::Cluster cluster(sim, config);

  EXPECT_TRUE(cluster.worker_reachable(1));
  cluster.set_worker_down(1);
  EXPECT_FALSE(cluster.worker_up(1));
  EXPECT_FALSE(cluster.worker_reachable(1));
  EXPECT_TRUE(cluster.worker_reachable(0));  // same server, still fine
  cluster.set_worker_up(1);
  EXPECT_TRUE(cluster.worker_reachable(1));

  const BytesPerSec nominal = cluster.nic_bandwidth(1);
  EXPECT_GT(nominal, 0.0);
  cluster.set_link_down(1);
  EXPECT_DOUBLE_EQ(cluster.nic_bandwidth(1), 0.0);
  // A down link makes every worker on the server unreachable even though
  // the GPUs themselves are up.
  EXPECT_TRUE(cluster.worker_up(2));
  EXPECT_FALSE(cluster.worker_reachable(2));
  EXPECT_FALSE(cluster.worker_reachable(3));
  cluster.set_link_up(1);
  EXPECT_DOUBLE_EQ(cluster.nic_bandwidth(1), nominal);
  EXPECT_TRUE(cluster.worker_reachable(2));
}

TEST(ClusterFaults, DownGpuDropsQueuedTasks) {
  sim::Simulator sim;
  sim::ClusterConfig config;
  config.num_servers = 1;
  config.gpus_per_server = 1;
  sim::Cluster cluster(sim, config);

  int completions = 0;
  cluster.gpu(0).submit(1e12, [&] { ++completions; });
  cluster.gpu(0).submit(1e12, [&] { ++completions; });
  cluster.set_worker_down(0);
  sim.run();
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(cluster.gpu(0).tasks_dropped(), 2u);
  // Work submitted after recovery completes normally.
  cluster.set_worker_up(0);
  cluster.gpu(0).submit(1e12, [&] { ++completions; });
  sim.run();
  EXPECT_EQ(completions, 1);
}

TEST(ClusterFaults, FlowsStallWhileLinkDownAndResume) {
  sim::Simulator sim;
  sim::ClusterConfig config;
  config.num_servers = 2;
  config.gpus_per_server = 1;
  config.nic_bandwidth = gbps(10);
  sim::Cluster cluster(sim, config);

  // Baseline: the same transfer with no fault.
  Seconds clean_done = -1.0;
  cluster.transfer(0, 1, 1e9, [&] { clean_done = sim.now(); });
  sim.run();
  ASSERT_GT(clean_done, 0.0);

  // Fault run: the link goes down mid-flight and comes back 2s later. The
  // flow must stall (not cancel) and complete roughly 2s late. The clock
  // kept running through the baseline, so schedule relative to now().
  const Seconds t0 = sim.now();
  Seconds faulted_done = -1.0;
  cluster.transfer(0, 1, 1e9, [&] { faulted_done = sim.now(); });
  sim.at(t0 + clean_done / 2.0, [&] { cluster.set_link_down(1); });
  sim.at(t0 + clean_done / 2.0 + 2.0, [&] { cluster.set_link_up(1); });
  sim.run();
  ASSERT_GT(faulted_done, 0.0);
  EXPECT_NEAR(faulted_done - t0, clean_done + 2.0, 0.05 * clean_done + 1e-6);
}

TEST(ClusterFaults, ProfilerMuteFlag) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterConfig{});
  EXPECT_FALSE(cluster.profiler_muted(0));
  cluster.set_profiler_muted(0, true);
  EXPECT_TRUE(cluster.profiler_muted(0));
  cluster.set_profiler_muted(0, false);
  EXPECT_FALSE(cluster.profiler_muted(0));
}

// ---------------------------------------------------------------------------
// Executor recovery
// ---------------------------------------------------------------------------

struct FaultRig {
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<sim::Cluster> cluster;
  models::ModelSpec model = models::alexnet();
  std::unique_ptr<pipeline::PipelineExecutor> executor;
  std::unique_ptr<core::AutoPipeController> controller;
};

FaultRig make_rig(std::size_t servers, std::size_t gpus_per_server,
                  bool with_controller, bool traced = false) {
  FaultRig rig;
  rig.simulator = std::make_unique<sim::Simulator>();
  if (traced) rig.simulator->tracer().set_enabled(true);
  sim::ClusterConfig config;
  config.num_servers = servers;
  config.gpus_per_server = gpus_per_server;
  rig.cluster = std::make_unique<sim::Cluster>(*rig.simulator, config);

  const auto env = partition::EnvironmentView::from_cluster(
      *rig.cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
  partition::PipeDreamPlanner planner(
      rig.model, env, rig.model.default_batch_size(),
      partition::PipeDreamPlanner::Mode::kCurrentEnvironment);
  const auto plan = planner.plan(rig.cluster->num_workers());

  pipeline::ExecutorConfig executor_config;
  executor_config.framework = comm::pytorch_profile();
  executor_config.sync_scheme = comm::SyncScheme::kRing;
  rig.executor = std::make_unique<pipeline::PipelineExecutor>(
      *rig.cluster, rig.model, plan.partition, executor_config);

  if (with_controller) {
    core::ControllerConfig cc;
    cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
    cc.use_meta_network = false;
    rig.controller = std::make_unique<core::AutoPipeController>(
        *rig.cluster, *rig.executor, cc, nullptr, nullptr);
    rig.controller->attach();
  }
  return rig;
}

TEST(ExecutorRecovery, PreemptedReplicaRejoinsInPlace) {
  FaultRig rig = make_rig(3, 2, /*with_controller=*/true);
  // Pick a worker on a replicated stage so the pipeline degrades rather
  // than stalls.
  sim::WorkerId victim = 0;
  bool found = false;
  const auto& partition = rig.executor->current_partition();
  for (std::size_t s = 0; s < partition.num_stages() && !found; ++s) {
    if (partition.stage(s).replication() >= 2) {
      victim = partition.stage(s).workers.front();
      found = true;
    }
  }
  ASSERT_TRUE(found) << "planner produced no replicated stage";

  faults::FaultPlan plan;
  plan.preempt_gpu(victim, 1.0, 0.5);
  plan.install(*rig.simulator, *rig.cluster);

  rig.executor->run(60, 5);

  const auto& stats = rig.executor->fault_stats();
  EXPECT_EQ(stats.injected, stats.completed + stats.dropped +
                                rig.executor->active_batches());
  // The returned worker rejoined the stage it was dropped from, with its
  // missed weight versions reconstructed from a surviving replica's stash.
  EXPECT_NE(rig.executor->current_partition().stage_of_worker(victim),
            partition::Partition::npos);
  EXPECT_FALSE(rig.executor->degraded());
  EXPECT_GT(stats.weight_reconstructions, 0u);
}

TEST(ExecutorRecovery, SoleHolderLossWedgesThenEmergencyReplans) {
  FaultRig rig = make_rig(1, 2, /*with_controller=*/true);
  // Force a two-stage, one-worker-per-stage partition so losing a worker
  // leaves a stage with no holder.
  const auto forced = partition::Partition::even_split(
      rig.model.num_layers(), {0, 1});
  ASSERT_TRUE(rig.executor->request_switch(
      forced, pipeline::PipelineExecutor::SwitchMode::kStopTheWorld));

  faults::FaultPlan plan;
  plan.at(1.0, faults::FaultPlan::gpu_down(1));  // never comes back
  plan.install(*rig.simulator, *rig.cluster);

  rig.executor->run(60, 5);

  const auto& stats = rig.controller->stats();
  EXPECT_GE(stats.wedges_detected, 1u);
  EXPECT_GE(stats.emergency_replans, 1u);
  ASSERT_EQ(rig.controller->excluded_workers().size(), 1u);
  EXPECT_EQ(rig.controller->excluded_workers()[0], 1u);
  // The emergency plan runs on the survivor alone.
  EXPECT_EQ(rig.executor->current_partition().stage_of_worker(1),
            partition::Partition::npos);
  const auto& fstats = rig.executor->fault_stats();
  EXPECT_EQ(fstats.injected, fstats.completed + fstats.dropped +
                                 rig.executor->active_batches());
}

TEST(ExecutorRecovery, ReturnedWorkerIsReadmitted) {
  FaultRig rig = make_rig(1, 2, /*with_controller=*/true);
  const auto forced = partition::Partition::even_split(
      rig.model.num_layers(), {0, 1});
  ASSERT_TRUE(rig.executor->request_switch(
      forced, pipeline::PipelineExecutor::SwitchMode::kStopTheWorld));

  faults::FaultPlan plan;
  plan.preempt_gpu(1, 1.0, 3.0);  // long outage: wedge, replan, return
  plan.install(*rig.simulator, *rig.cluster);

  rig.executor->run(120, 5);

  const auto& stats = rig.controller->stats();
  EXPECT_GE(stats.emergency_replans, 1u);
  EXPECT_GE(stats.readmissions, 1u);
  EXPECT_TRUE(rig.controller->excluded_workers().empty());
  // After re-admission the full-width plan uses both workers again.
  EXPECT_NE(rig.executor->current_partition().stage_of_worker(1),
            partition::Partition::npos);
}

TEST(ExecutorRecovery, EmergencyReplanUsesAtMostOneWorkerPerLayer) {
  // 14 workers for alexnet's 11 layers: after the loss, 13 are reachable,
  // more than there are layers, so the recovery plan must leave two idle.
  FaultRig rig = make_rig(7, 2, /*with_controller=*/true);
  std::vector<sim::WorkerId> holders;
  for (sim::WorkerId w = 0; w < rig.model.num_layers(); ++w)
    holders.push_back(w);
  ASSERT_TRUE(rig.executor->request_switch(
      partition::Partition::even_split(rig.model.num_layers(), holders),
      pipeline::PipelineExecutor::SwitchMode::kStopTheWorld));

  faults::FaultPlan plan;
  plan.at(1.0, faults::FaultPlan::gpu_down(1));  // a sole holder, for good
  plan.install(*rig.simulator, *rig.cluster);

  rig.executor->run(60, 5);

  EXPECT_GE(rig.controller->stats().emergency_replans, 1u);
  ASSERT_EQ(rig.controller->excluded_workers().size(), 1u);
  EXPECT_EQ(rig.controller->excluded_workers()[0], 1u);
  const auto& recovered = rig.executor->current_partition();
  EXPECT_EQ(recovered.num_workers(), rig.model.num_layers());
  EXPECT_EQ(recovered.stage_of_worker(1), partition::Partition::npos);
}

TEST(ExecutorRecovery, EmergencyAdoptRejectsUnreachableTargets) {
  FaultRig rig = make_rig(1, 2, /*with_controller=*/false);
  rig.cluster->set_worker_down(1);
  const auto full = partition::Partition::even_split(
      rig.model.num_layers(), {0, 1});
  EXPECT_FALSE(rig.executor->emergency_adopt(full));
  const auto survivor = partition::Partition::even_split(
      rig.model.num_layers(), {0});
  EXPECT_TRUE(rig.executor->emergency_adopt(survivor));
}

// ---------------------------------------------------------------------------
// Trace analysis: fault windows and the fault-downtime bubble class
// ---------------------------------------------------------------------------

TEST(FaultTrace, FaultWindowsAndDowntimeBubblePartitionWallClock) {
  FaultRig rig = make_rig(3, 2, /*with_controller=*/true, /*traced=*/true);
  faults::FaultPlan plan;
  plan.preempt_gpu(2, 1.0, 0.5);
  plan.fail_link(1, 2.0, 0.4);
  plan.install(*rig.simulator, *rig.cluster);

  rig.executor->run(60, 5);

  const analysis::TraceView view(rig.simulator->tracer().events());
  // Workers 2 and 3 sit on server 1. Worker 2 accrues both its own
  // gpu_down/gpu_up outage and the server's link outage (disjoint windows);
  // worker 3 only the link outage; worker 0 neither.
  EXPECT_NEAR(view.fault_windows(2).total(), 0.5 + 0.4, 1e-6);
  EXPECT_NEAR(view.fault_windows(3).total(), 0.4, 1e-6);
  EXPECT_DOUBLE_EQ(view.fault_windows(0).total(), 0.0);

  const analysis::BubbleReport bubbles = analysis::attribute_bubbles(view);
  const double downtime = bubbles.totals[static_cast<std::size_t>(
      analysis::BubbleClass::kFaultDowntime)];
  EXPECT_GT(downtime, 0.0);
  // With the seventh class in the mix the classes must still partition
  // every worker's wall clock exactly.
  for (const analysis::WorkerBubbles& wb : bubbles.workers) {
    EXPECT_NEAR(wb.busy_seconds + wb.idle_seconds(), bubbles.wall_clock,
                1e-6 * std::max(1.0, bubbles.wall_clock));
  }
}

TEST(FaultTrace, SameScheduleReplaysToIdenticalEventStream) {
  auto run_once = [] {
    FaultRig rig = make_rig(2, 2, /*with_controller=*/true, /*traced=*/true);
    faults::FaultPlan plan;
    plan.preempt_gpu(1, 1.0, 0.5);
    plan.flap_link(1, 1.2, 0.05, 2);
    plan.install(*rig.simulator, *rig.cluster);
    rig.executor->run(40, 5);
    std::ostringstream os;
    rig.simulator->tracer().write_text(os);
    return os.str();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace autopipe
