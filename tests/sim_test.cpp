// Tests for the discrete-event substrate: event ordering, the max-min fair
// flow network (including a property sweep), the GPU executor under
// contention changes, the cluster topology and resource traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/max_min.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "common/units.hpp"
#include "sim/background.hpp"
#include "sim/cluster.hpp"
#include "sim/flow_network.hpp"
#include "sim/gpu.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace autopipe::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(2.0, [&] { order.push_back(2); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(3.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, TieBreakIsFifo) {
  Simulator sim;
  std::vector<int> order;
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunUntilAdvancesClock) {
  Simulator sim;
  bool fired = false;
  sim.at(5.0, [&] { fired = true; });
  sim.run_until(3.0);
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run_until(6.0);
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 6.0);
}

TEST(Simulator, RunUntilRunsEventsScheduledAtExactlyT) {
  // An event firing at t may schedule more work at exactly t; run_until(t)
  // must drain that cascade before pinning the clock, or the events would be
  // stranded in the past.
  Simulator sim;
  int fired = 0;
  sim.at(2.0, [&] {
    ++fired;
    sim.at(2.0, [&] {
      ++fired;
      sim.after(0.0, [&] { ++fired; });
    });
  });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(sim.empty());
  EXPECT_NEAR(sim.now(), 2.0, 1e-12);
}

TEST(Simulator, RunUntilToleratesFloatDriftAtBoundary) {
  // 0.1 * 3 != 0.3 in binary floating point; an event whose time was built
  // by repeated addition must still count as "no later than" run_until(0.3).
  Simulator sim;
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 3) sim.after(0.1, tick);
  };
  sim.after(0.1, tick);
  sim.run_until(0.1 + 0.1);  // fires events 1 and 2
  EXPECT_EQ(fired, 2);
  sim.run_until(0.3);  // event 3 sits a few ulps past 0.3
  EXPECT_EQ(fired, 3);
  // And the pinned clock must not break a subsequent run_until at the same
  // nominal time.
  sim.run_until(0.3);
  EXPECT_NEAR(sim.now(), 0.3, 1e-9);
}

TEST(Simulator, CallbacksCanSchedule) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.after(1.0, tick);
  };
  sim.after(1.0, tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.at(1.0, [] {}), contract_error);
}

// ---------------------------------------------------------------------------
// Flow network
// ---------------------------------------------------------------------------

TEST(FlowNetwork, SingleFlowTakesBytesOverCapacity) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);  // 100 B/s
  Seconds done_at = -1;
  net.start_flow({{r}, 500.0, [&] { done_at = sim.now(); }});
  sim.run();
  EXPECT_NEAR(done_at, 5.0, 1e-9);
  EXPECT_NEAR(net.total_bytes_delivered(), 500.0, 1e-6);
}

TEST(FlowNetwork, TwoFlowsShareFairly) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  Seconds t1 = -1, t2 = -1;
  net.start_flow({{r}, 100.0, [&] { t1 = sim.now(); }});
  net.start_flow({{r}, 100.0, [&] { t2 = sim.now(); }});
  sim.run();
  // Each gets 50 B/s: both finish at t=2.
  EXPECT_NEAR(t1, 2.0, 1e-9);
  EXPECT_NEAR(t2, 2.0, 1e-9);
}

TEST(FlowNetwork, ShortFlowFinishesThenLongSpeedsUp) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  Seconds t_short = -1, t_long = -1;
  net.start_flow({{r}, 50.0, [&] { t_short = sim.now(); }});
  net.start_flow({{r}, 150.0, [&] { t_long = sim.now(); }});
  sim.run();
  // Shared 50/50 until t=1 (short done, long has 100 left), then full rate:
  // long finishes at 1 + 100/100 = 2.
  EXPECT_NEAR(t_short, 1.0, 1e-9);
  EXPECT_NEAR(t_long, 2.0, 1e-9);
}

TEST(FlowNetwork, MaxMinRespectsPerFlowBottleneck) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto wide = net.add_resource("wide", 100.0);
  const auto narrow = net.add_resource("narrow", 10.0);
  // Flow A crosses both; flow B only the wide one.
  const auto a = net.start_flow({{wide, narrow}, 1000.0, nullptr});
  const auto b = net.start_flow({{wide}, 1000.0, nullptr});
  // A is pinned to 10 by the narrow link; B picks up the slack: 90.
  EXPECT_NEAR(net.flow_rate(a), 10.0, 1e-9);
  EXPECT_NEAR(net.flow_rate(b), 90.0, 1e-9);
}

TEST(FlowNetwork, CapacityChangeReratesInFlight) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  Seconds done_at = -1;
  net.start_flow({{r}, 200.0, [&] { done_at = sim.now(); }});
  sim.at(1.0, [&] { net.set_capacity(r, 50.0); });
  sim.run();
  // 100 bytes in the first second, the rest at 50 B/s: 1 + 100/50 = 3.
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(FlowNetwork, ZeroCapacityStallsUntilRestored) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  Seconds done_at = -1;
  net.start_flow({{r}, 100.0, [&] { done_at = sim.now(); }});
  sim.at(0.5, [&] { net.set_capacity(r, 0.0); });
  sim.at(2.5, [&] { net.set_capacity(r, 100.0); });
  sim.run();
  // 50 bytes by 0.5, stalled 2 seconds, 50 more in 0.5: done at 3.0.
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(FlowNetwork, CancelPreventsCompletion) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  bool fired = false;
  const auto id = net.start_flow({{r}, 100.0, [&] { fired = true; }});
  sim.at(0.5, [&] { net.cancel_flow(id); });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(net.active_flow_count(), 0u);
}

TEST(FlowNetwork, ZeroByteFlowCompletesImmediately) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  bool fired = false;
  net.start_flow({{r}, 0.0, [&] { fired = true; }});
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(FlowNetwork, DuplicateResourceInPathThrows) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  EXPECT_THROW(net.start_flow({{r, r}, 10.0, nullptr}), contract_error);
}

#if AUTOPIPE_TRACING
/// Each resource's load as a trace reader derives it: the cap: counters and
/// flow records replayed through common::LoadReplay, the last value per
/// resource (0 until its first change).
std::map<std::string, double> replayed_loads(
    const std::vector<trace::Event>& events) {
  std::map<std::string, double> last;
  common::LoadReplay replay([&](double, std::size_t r, double load) {
    last[replay.resource_name(r)] = load;
  });
  for (const trace::Event& ev : events) {
    if (ev.phase == 'C' && ev.name.starts_with("cap:")) {
      last.emplace(ev.name.substr(4), 0.0);
      replay.capacity(ev.ts, std::string_view(ev.name).substr(4), ev.value);
    } else if (ev.phase == 'b' && ev.name == "flow") {
      replay.begin_flow(ev.ts, ev.id, *ev.find_arg("path"));
    } else if (ev.phase == 'e' && ev.name == "flow") {
      replay.end_flow(ev.ts, ev.id);
    }
  }
  replay.finish();
  return last;
}
#endif

/// Property sweep: for random topologies and flow sets, the max-min
/// allocation must (a) never oversubscribe a resource and (b) leave no flow
/// below a share it could claim without displacing anyone (max-min
/// feasibility: every flow is bottlenecked by some saturated resource).
class FlowNetworkProperty : public ::testing::TestWithParam<int> {};

TEST_P(FlowNetworkProperty, MaxMinAllocationIsFeasibleAndSaturating) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Simulator sim;
  sim.tracer().set_enabled(true);
  FlowNetwork net(sim);
  const std::size_t R = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  std::vector<ResourceId> resources;
  for (std::size_t i = 0; i < R; ++i)
    resources.push_back(
        net.add_resource("r" + std::to_string(i), rng.uniform(10.0, 200.0)));

  const std::size_t F = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
  std::vector<std::vector<ResourceId>> paths;
  for (std::size_t f = 0; f < F; ++f) {
    std::vector<ResourceId> path;
    for (ResourceId r : resources)
      if (rng.chance(0.5)) path.push_back(r);
    if (path.empty()) path.push_back(resources[0]);
    paths.push_back(path);
  }
  // All flows start in one callback: one coalesced re-rate.
  std::vector<FlowId> flows;
  sim.at(0.0, [&] {
    for (const auto& path : paths)
      flows.push_back(net.start_flow({path, 1e9, nullptr}));
  });
  ASSERT_TRUE(sim.step());

  // (a) No resource oversubscribed.
  for (ResourceId r : resources)
    EXPECT_LE(net.resource_load(r), net.capacity(r) + 1e-6);
  // (b) Every flow is limited by at least one saturated resource.
  for (std::size_t f = 0; f < F; ++f) {
    bool bottlenecked = false;
    for (ResourceId r : paths[f]) {
      if (net.resource_load(r) >= net.capacity(r) - 1e-6) bottlenecked = true;
    }
    EXPECT_TRUE(bottlenecked) << "flow " << f << " rate "
                              << net.flow_rate(flows[f]);
  }
#if AUTOPIPE_TRACING
  // (c) A trace reader derives the network's real loads, bit for bit.
  const std::map<std::string, double> derived =
      replayed_loads(sim.tracer().events());
  for (ResourceId r : resources) {
    EXPECT_EQ(derived.at(net.resource_name(r)), net.resource_load(r))
        << net.resource_name(r);
  }
#endif
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, FlowNetworkProperty,
                         ::testing::Range(0, 20));

// ---------------------------------------------------------------------------
// GPU executor
// ---------------------------------------------------------------------------

TEST(GpuExecutor, TaskDurationMatchesThroughput) {
  Simulator sim;
  GpuExecutor gpu(sim, GpuSpec{"test", 100.0, gib(16)});  // 100 FLOP/s
  Seconds done_at = -1;
  gpu.submit(500.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 5.0, 1e-9);
  EXPECT_NEAR(gpu.total_flops_done(), 500.0, 1e-6);
  EXPECT_NEAR(gpu.busy_time(), 5.0, 1e-9);
}

TEST(GpuExecutor, FifoOrdering) {
  Simulator sim;
  GpuExecutor gpu(sim, GpuSpec{"test", 100.0, gib(16)});
  std::vector<int> order;
  gpu.submit(100.0, [&] { order.push_back(1); });
  gpu.submit(100.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(GpuExecutor, PriorityOvertakesQueuedWork) {
  Simulator sim;
  GpuExecutor gpu(sim, GpuSpec{"test", 100.0, gib(16)});
  std::vector<int> order;
  gpu.submit(100.0, [&] { order.push_back(1); });       // runs first
  gpu.submit(100.0, [&] { order.push_back(2); });       // queued normal
  gpu.submit_prioritized(100.0, 0.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(GpuExecutor, TenantChangeMidTaskRescales) {
  Simulator sim;
  GpuExecutor gpu(sim, GpuSpec{"test", 100.0, gib(16)});
  Seconds done_at = -1;
  gpu.submit(200.0, [&] { done_at = sim.now(); });
  sim.at(1.0, [&] { gpu.set_tenant_count(2); });  // half speed from t=1
  sim.run();
  // 100 FLOPs by t=1; remaining 100 at 50 FLOP/s: done at 3.0.
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(GpuExecutor, FixedOverheadUnaffectedByTenancy) {
  Simulator sim;
  GpuExecutor gpu(sim, GpuSpec{"test", 100.0, gib(16)});
  gpu.set_tenant_count(4);
  Seconds done_at = -1;
  gpu.submit(100.0, 2.0, [&] { done_at = sim.now(); });
  sim.run();
  // 2s fixed + 100 FLOPs at 25 FLOP/s = 2 + 4 = 6.
  EXPECT_NEAR(done_at, 6.0, 1e-9);
}

TEST(GpuExecutor, ThroughputScale) {
  Simulator sim;
  GpuExecutor gpu(sim, GpuSpec{"test", 100.0, gib(16)});
  gpu.set_throughput_scale(0.5);
  EXPECT_DOUBLE_EQ(gpu.effective_throughput(), 50.0);
}

TEST(GpuExecutor, PresetSpecsOrdered) {
  EXPECT_LT(p100_spec().throughput, v100_spec().throughput);
  EXPECT_LT(v100_spec().throughput, a100_spec().throughput);
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

TEST(Cluster, TopologyAndPaths) {
  Simulator sim;
  Cluster cluster(sim, ClusterConfig{});
  EXPECT_EQ(cluster.num_workers(), 10u);
  EXPECT_EQ(cluster.server_of(0), 0u);
  EXPECT_EQ(cluster.server_of(1), 0u);
  EXPECT_EQ(cluster.server_of(2), 1u);
  // Same-server pair: single PCIe hop.
  EXPECT_EQ(cluster.path(0, 1).size(), 1u);
  // Cross-server: tx + rx.
  EXPECT_EQ(cluster.path(0, 2).size(), 2u);
  // Same worker: free.
  EXPECT_TRUE(cluster.path(3, 3).empty());
}

TEST(Cluster, CrossServerTransferUsesNicBandwidth) {
  Simulator sim;
  ClusterConfig config;
  config.nic_bandwidth = 100.0;  // 100 B/s for easy arithmetic
  Cluster cluster(sim, config);
  Seconds done_at = -1;
  cluster.transfer(0, 2, 300.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(Cluster, SameWorkerTransferIsFree) {
  Simulator sim;
  Cluster cluster(sim, ClusterConfig{});
  Seconds done_at = -1;
  cluster.transfer(4, 4, 1e12, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}

TEST(Cluster, BackgroundJobsChangeTenancy) {
  Simulator sim;
  Cluster cluster(sim, ClusterConfig{});
  EXPECT_EQ(cluster.gpu(3).tenant_count(), 1);
  cluster.add_background_job(3);
  EXPECT_EQ(cluster.gpu(3).tenant_count(), 2);
  cluster.remove_background_job(3);
  EXPECT_EQ(cluster.gpu(3).tenant_count(), 1);
  EXPECT_THROW(cluster.remove_background_job(3), contract_error);
}

TEST(Cluster, NicBandwidthUpdates) {
  Simulator sim;
  Cluster cluster(sim, ClusterConfig{});
  cluster.set_nic_bandwidth(1, gbps(10));
  EXPECT_DOUBLE_EQ(cluster.nic_bandwidth(1), gbps(10));
  cluster.set_all_nic_bandwidth(gbps(40));
  for (std::size_t s = 0; s < cluster.num_servers(); ++s)
    EXPECT_DOUBLE_EQ(cluster.nic_bandwidth(s), gbps(40));
}

TEST(Cluster, PerWorkerGpuSpecs) {
  Simulator sim;
  ClusterConfig config;
  config.num_servers = 1;
  config.gpus_per_server = 2;
  config.gpu_specs = {p100_spec(), v100_spec()};
  Cluster cluster(sim, config);
  EXPECT_EQ(cluster.gpu(0).spec().name, "P100");
  EXPECT_EQ(cluster.gpu(1).spec().name, "V100");
}


TEST(Cluster, TwoTierTopologyRouting) {
  Simulator sim;
  ClusterConfig config;
  config.num_servers = 4;
  config.gpus_per_server = 1;
  config.servers_per_rack = 2;  // racks {0,1} and {2,3}
  config.nic_bandwidth = 100.0;
  config.rack_uplink_bandwidth = 100.0;
  Cluster cluster(sim, config);
  EXPECT_EQ(cluster.num_racks(), 2u);
  EXPECT_EQ(cluster.rack_of_server(1), 0u);
  EXPECT_EQ(cluster.rack_of_server(2), 1u);
  // Intra-rack: nic tx + nic rx only.
  EXPECT_EQ(cluster.path(0, 1).size(), 2u);
  // Cross-rack: nic tx + uplink tx + uplink rx + nic rx.
  EXPECT_EQ(cluster.path(0, 2).size(), 4u);
}

TEST(Cluster, OversubscribedUplinkBottlenecksCrossRackFlows) {
  // 2 servers per rack, NICs at 100 B/s, uplink at 100 B/s: two concurrent
  // cross-rack flows share the uplink (50 each) while two intra-rack flows
  // would run at full NIC rate.
  Simulator sim;
  ClusterConfig config;
  config.num_servers = 4;
  config.gpus_per_server = 1;
  config.servers_per_rack = 2;
  config.nic_bandwidth = 100.0;
  config.rack_uplink_bandwidth = 100.0;
  Cluster cluster(sim, config);
  Seconds t_a = -1, t_b = -1;
  cluster.transfer(0, 2, 100.0, [&] { t_a = sim.now(); });
  cluster.transfer(1, 3, 100.0, [&] { t_b = sim.now(); });
  sim.run();
  // Both bottlenecked by the shared 100 B/s uplink: 2 s each.
  EXPECT_NEAR(t_a, 2.0, 1e-9);
  EXPECT_NEAR(t_b, 2.0, 1e-9);
}

TEST(Cluster, IntraRackUnaffectedByUplink) {
  Simulator sim;
  ClusterConfig config;
  config.num_servers = 4;
  config.gpus_per_server = 1;
  config.servers_per_rack = 2;
  config.nic_bandwidth = 100.0;
  config.rack_uplink_bandwidth = 1.0;  // nearly dead uplink
  Cluster cluster(sim, config);
  Seconds done = -1;
  cluster.transfer(0, 1, 100.0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, 1.0, 1e-9);  // full NIC rate inside the rack
}

// ---------------------------------------------------------------------------
// Traces and background workload
// ---------------------------------------------------------------------------

TEST(ResourceTrace, IterationAnchoredEventsApplyOnce) {
  Simulator sim;
  Cluster cluster(sim, ClusterConfig{});
  ResourceTrace trace;
  trace.at_iteration(10, ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  trace.at_iteration(10, ResourceTrace::add_gpu_job(0));
  trace.at_iteration(20, ResourceTrace::add_job_all_gpus());
  EXPECT_EQ(trace.apply_iteration(9, cluster), 0u);
  EXPECT_EQ(trace.apply_iteration(10, cluster), 2u);
  EXPECT_DOUBLE_EQ(cluster.nic_bandwidth(0), gbps(10));
  EXPECT_EQ(cluster.gpu(0).tenant_count(), 2);
  EXPECT_EQ(cluster.gpu(1).tenant_count(), 1);
  EXPECT_EQ(trace.apply_iteration(19, cluster), 0u);
  EXPECT_EQ(trace.apply_iteration(20, cluster), 1u);
  for (WorkerId w = 0; w < cluster.num_workers(); ++w)
    EXPECT_EQ(cluster.gpu(w).tenant_count(), w == 0 ? 3 : 2);
}

TEST(ResourceTrace, DescribeIsHumanReadable) {
  const auto ev = ResourceTrace::set_all_nic_bandwidth(gbps(25));
  EXPECT_NE(ev.describe().find("25"), std::string::npos);
}

TEST(BackgroundWorkload, DeterministicAndBalanced) {
  Simulator sim;
  Cluster cluster(sim, ClusterConfig{});
  BackgroundWorkloadConfig config;
  config.horizon = 100.0;
  BackgroundWorkload workload(config, Rng(123));
  workload.install(sim, cluster);
  EXPECT_GT(workload.gpu_jobs() + workload.net_jobs(), 0u);
  sim.run();
  // Every arrival paired with a departure: tenancy returns to 1.
  for (WorkerId w = 0; w < cluster.num_workers(); ++w)
    EXPECT_EQ(cluster.gpu(w).tenant_count(), 1);
  for (std::size_t s = 0; s < cluster.num_servers(); ++s)
    EXPECT_NEAR(cluster.nic_bandwidth(s), gbps(100), 1.0);
}

// ---------------------------------------------------------------------------
// Timing-wheel semantics: exact timestamps despite bucketed placement.
// Every case runs under both queue kinds — same observable behaviour.
// ---------------------------------------------------------------------------

const EventQueueKind kBothKinds[] = {EventQueueKind::kHeap,
                                     EventQueueKind::kWheel};

TEST(SimulatorWheel, RunUntilPinsClockInsideABucket) {
  // 0.01000 and 0.01005 share one wheel tick (tick width 1/1024 s ≈
  // 0.977 ms). run_until at a point between them must fire only the first,
  // pin the clock to *exactly* the requested time — not a bucket edge —
  // and leave the later same-bucket event pending.
  for (const EventQueueKind kind : kBothKinds) {
    Simulator sim(kind);
    std::vector<double> fired;
    sim.at(0.01000, [&] { fired.push_back(sim.now()); });
    sim.at(0.01005, [&] { fired.push_back(sim.now()); });
    sim.run_until(0.01002);
    ASSERT_EQ(fired.size(), 1u) << sim.queue_name();
    EXPECT_EQ(fired[0], 0.01000);
    EXPECT_EQ(sim.now(), 0.01002);  // bit-exact, not rounded to a tick
    EXPECT_FALSE(sim.empty());
    sim.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[1], 0.01005);
    EXPECT_EQ(sim.now(), 0.01005);
  }
}

TEST(SimulatorWheel, NonTickAlignedTimesFireExactly) {
  // 1/3 s is not representable as a tick multiple; the event must still
  // fire at the exact double it was scheduled at.
  for (const EventQueueKind kind : kBothKinds) {
    Simulator sim(kind);
    const Seconds t = 1.0 / 3.0;
    Seconds observed = -1.0;
    sim.at(t, [&] { observed = sim.now(); });
    sim.run();
    EXPECT_EQ(observed, t) << sim.queue_name();  // ==, not NEAR
  }
}

TEST(SimulatorWheel, WatchdogStyleCadenceKeepsExactInstants) {
  // An EMA-watchdog-style self-rescheduling cadence: fires at k * dt with
  // dt a non-tick-aligned period. Accumulated drift must stay within the
  // simulator's own float-slack model — each firing lands on the exact
  // double the previous callback computed.
  for (const EventQueueKind kind : kBothKinds) {
    Simulator sim(kind);
    const Seconds dt = 0.0007;  // sub-tick period: many events per bucket
    std::vector<Seconds> scheduled;
    std::vector<Seconds> observed;
    std::function<void()> tick = [&] {
      observed.push_back(sim.now());
      if (observed.size() < 50) {
        const Seconds next = sim.now() + dt;
        scheduled.push_back(next);
        sim.after(dt, [&] { tick(); }, "watchdog");
      }
    };
    scheduled.push_back(0.001);
    sim.at(0.001, [&] { tick(); }, "watchdog");
    sim.run();
    ASSERT_EQ(observed.size(), 50u);
    for (std::size_t i = 0; i < observed.size(); ++i)
      EXPECT_EQ(observed[i], scheduled[i]) << sim.queue_name() << " @" << i;
  }
}

TEST(SimulatorWheel, ZeroProgressGuardTripsIdenticallyUnderBothQueues) {
  for (const EventQueueKind kind : kBothKinds) {
    Simulator sim(kind);
    sim.set_zero_progress_bound(64);
    std::function<void()> loop = [&] { sim.at(sim.now(), [&] { loop(); }, "spin"); };
    sim.at(1.0, [&] { loop(); }, "spin");
    EXPECT_THROW(sim.run(), contract_error) << sim.queue_name();
  }
}

TEST(SimulatorWheel, LegitimateSameInstantCascadeStaysUnderGuard) {
  // A same-timestamp cascade shorter than the bound must complete: the
  // guard keys on exact event timestamps, not on wheel bucket occupancy
  // (many distinct timestamps share one bucket and must not count as one
  // instant).
  for (const EventQueueKind kind : kBothKinds) {
    Simulator sim(kind);
    sim.set_zero_progress_bound(64);
    int chained = 0;
    std::function<void()> chain = [&] {
      if (++chained < 40) sim.at(sim.now(), [&] { chain(); });
    };
    sim.at(1.0, [&] { chain(); });
    // Distinct-but-same-bucket timestamps: each resets the instant counter.
    for (int i = 0; i < 200; ++i)
      sim.at(2.0 + static_cast<Seconds>(i) * 1e-6, [] {});
    sim.run();
    EXPECT_EQ(chained, 40) << sim.queue_name();
  }
}

TEST(SimulatorWheel, QueueKindIsReportedAndEnvDefaultHolds) {
  Simulator wheel(EventQueueKind::kWheel);
  Simulator heap(EventQueueKind::kHeap);
  EXPECT_STREQ(wheel.queue_name(), "wheel");
  EXPECT_STREQ(heap.queue_name(), "heap");
  EXPECT_EQ(wheel.queue_kind(), EventQueueKind::kWheel);
  EXPECT_EQ(heap.queue_kind(), EventQueueKind::kHeap);
  EXPECT_EQ(Simulator().queue_kind(), EventQueueKind::kWheel);
}

// ---------------------------------------------------------------------------
// Coalesced re-rating: one rating pass and one completion push per instant,
// with the push landing where the last change would have made it.
// ---------------------------------------------------------------------------

TEST(CoalescedRerate, FlowsStartedInOneCallbackQueueOneCompletion) {
  for (const EventQueueKind kind : kBothKinds) {
    Simulator sim(kind);
    FlowNetwork net(sim);
    const auto r = net.add_resource("link", 100.0);
    int done = 0;
    std::uint64_t scheduled_before = 0;
    sim.at(1.0, [&] {
      scheduled_before = sim.events_scheduled();
      for (int i = 1; i <= 4; ++i)
        net.start_flow({{r}, 100.0 * i, [&] { ++done; }});
    });
    ASSERT_TRUE(sim.step());
    EXPECT_EQ(sim.events_scheduled(), scheduled_before + 1) << sim.queue_name();
    sim.run();
    EXPECT_EQ(done, 4) << sim.queue_name();
    EXPECT_DOUBLE_EQ(sim.now(), 11.0) << sim.queue_name();
  }
}

TEST(CoalescedRerate, CompletionKeepsItsPlaceAmongSameTimeEvents) {
  // The flow completes at exactly t=2. An event pushed at t=2 before the
  // start fires first; one pushed after it fires after the completion.
  for (const EventQueueKind kind : kBothKinds) {
    Simulator sim(kind);
    FlowNetwork net(sim);
    const auto r = net.add_resource("link", 100.0);
    std::vector<std::string> order;
    sim.at(1.0, [&] {
      sim.at(2.0, [&] { order.push_back("before"); });
      net.start_flow({{r}, 100.0, [&] { order.push_back("flow"); }});
      sim.at(2.0, [&] { order.push_back("after"); });
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"before", "flow", "after"}))
        << sim.queue_name();
  }
}

TEST(CoalescedRerate, TwoNetworksPushInTheOrderOfTheirLastChanges) {
  // a's first change, b's change, a's second change: b's completion was
  // pushed before a's last one, so it fires first although all three flows
  // finish at t=1.
  for (const EventQueueKind kind : kBothKinds) {
    Simulator sim(kind);
    FlowNetwork a(sim);
    FlowNetwork b(sim);
    const auto a1 = a.add_resource("a1", 100.0);
    const auto a2 = a.add_resource("a2", 100.0);
    const auto b1 = b.add_resource("b1", 100.0);
    std::vector<std::string> order;
    sim.at(0.0, [&] {
      a.start_flow({{a1}, 100.0, [&] { order.push_back("a1"); }});
      b.start_flow({{b1}, 100.0, [&] { order.push_back("b1"); }});
      a.start_flow({{a2}, 100.0, [&] { order.push_back("a2"); }});
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"b1", "a2", "a1"}))
        << sim.queue_name();
  }
}

#if AUTOPIPE_TRACING
TEST(CoalescedRerate, CompletionIsCausedByTheLastChange) {
  Simulator sim;
  sim.tracer().set_enabled(true);
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  sim.at(1.0, [&] {
    net.start_flow({{r}, 100.0, nullptr});
    net.start_flow({{r}, 100.0, nullptr});
    sim.tracer().instant(trace::Category::kMark, "later", sim.now(), 0, 0);
  });
  sim.run();
  std::vector<trace::Event> begins;
  std::vector<trace::Event> ends;
  for (const trace::Event& ev : sim.tracer().events()) {
    if (ev.phase == 'b') begins.push_back(ev);
    if (ev.phase == 'e') ends.push_back(ev);
  }
  ASSERT_EQ(begins.size(), 2u);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_DOUBLE_EQ(ends[0].ts, 3.0);
  EXPECT_EQ(ends[0].cause, begins[1].eid);
}

TEST(CoalescedRerate, DerivedLoadsMatchTheNetworkAtEveryInstant) {
  // The trace holds no load values; after every event, replaying its cap:
  // counters and flow records must give each resource's load exactly.
  Simulator sim;
  sim.tracer().set_enabled(true);
  FlowNetwork net(sim);
  const std::vector<ResourceId> resources{net.add_resource("a", 100.0),
                                          net.add_resource("b", 100.0),
                                          net.add_resource("c", 40.0)};
  const ResourceId a = resources[0], b = resources[1], c = resources[2];
  FlowId cancelled = 0;
  sim.at(1.0, [&] {  // three flows in one callback: one re-rate
    net.start_flow({{a, b}, 150.0, nullptr});
    cancelled = net.start_flow({{a}, 1000.0, nullptr});
    net.start_flow({{b, c}, 90.0, nullptr});
  });
  sim.at(1.5, [&] { net.start_flow({{a, c}, 60.0, nullptr}); });
  sim.at(2.0, [&] { net.cancel_flow(cancelled); });
  sim.at(2.5, [&] { net.set_capacity(b, 30.0); });
  sim.at(2.75, [&] { net.start_flow({{c}, 100.0, nullptr}); });
  sim.at(3.0, [&] {
    net.set_resource_down(c);
    net.set_capacity(c, 80.0);  // applies when c comes back
  });
  sim.at(4.0, [&] { net.set_resource_up(c); });
  std::size_t steps = 0;
  while (sim.step()) {
    ++steps;
    const std::map<std::string, double> derived =
        replayed_loads(sim.tracer().events());
    for (ResourceId r : resources) {
      EXPECT_EQ(derived.at(net.resource_name(r)), net.resource_load(r))
          << net.resource_name(r) << " at t=" << sim.now();
    }
  }
  std::size_t completed = 0;
  for (const trace::Event& ev : sim.tracer().events()) {
    EXPECT_FALSE(ev.name.starts_with("load:")) << "at t=" << ev.ts;
    if (ev.phase == 'e' && ev.find_arg("cancelled") == nullptr) ++completed;
  }
  EXPECT_EQ(completed, 4u);
  EXPECT_GE(steps, 10u);
  EXPECT_EQ(net.active_flow_count(), 0u);
}
#endif

TEST(CoalescedRerate, RatesReadMidCallbackAreMaxMinOfTheCurrentFlows) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto wide = net.add_resource("wide", 100.0);
  const auto narrow = net.add_resource("narrow", 10.0);
  sim.at(1.0, [&] {
    const auto a = net.start_flow({{wide, narrow}, 1000.0, nullptr});
    const auto b = net.start_flow({{wide}, 1000.0, nullptr});
    EXPECT_NEAR(net.flow_rate(a), 10.0, 1e-9);
    EXPECT_NEAR(net.flow_rate(b), 90.0, 1e-9);
    const auto c = net.start_flow({{wide}, 1000.0, nullptr});
    EXPECT_NEAR(net.resource_load(wide), 100.0, 1e-9);
    EXPECT_NEAR(net.flow_rate(b), 45.0, 1e-9);
    EXPECT_NEAR(net.flow_rate(c), 45.0, 1e-9);
    net.set_capacity(narrow, 20.0);
    EXPECT_NEAR(net.resource_load(narrow), 20.0, 1e-9);
    EXPECT_NEAR(net.flow_rate(b), 40.0, 1e-9);
  });
  sim.run();
  EXPECT_EQ(net.active_flow_count(), 0u);
}

TEST(CoalescedRerate, ThrowingCallbackLeavesNoPushPending) {
  for (const EventQueueKind kind : kBothKinds) {
    Simulator sim(kind);
    FlowNetwork net(sim);
    const auto r = net.add_resource("link", 100.0);
    int done = 0;
    sim.at(1.0, [&] {
      net.start_flow({{r}, 100.0, [&] { ++done; }});
      net.start_flow({{r}, 100.0, [&] { ++done; }});
      throw std::runtime_error("callback failed");
    });
    EXPECT_THROW(sim.run(), std::runtime_error);
    // The completion was pushed while the exception left the callback.
    EXPECT_EQ(sim.events_scheduled(), 2u) << sim.queue_name();
    // Outside a callback a change pushes at once.
    net.start_flow({{r}, 100.0, [&] { ++done; }});
    EXPECT_EQ(sim.events_scheduled(), 3u) << sim.queue_name();
    sim.run();
    EXPECT_EQ(done, 3) << sim.queue_name();
    EXPECT_DOUBLE_EQ(sim.now(), 4.0) << sim.queue_name();
  }
}

// ---------------------------------------------------------------------------
// Fault instants under the wheel: exact timestamps, not bucket edges
// ---------------------------------------------------------------------------

TEST(SimulatorWheel, FaultInstantsFireAtExactTimestamps) {
  // 0.123456 s is far from any tick edge. The worker-state callback must
  // observe the transition at that exact double under both queues.
  for (const EventQueueKind kind : kBothKinds) {
    Simulator sim(kind);
    ClusterConfig config;
    config.num_servers = 2;
    config.gpus_per_server = 1;
    Cluster cluster(sim, config);
    std::vector<std::pair<Seconds, bool>> transitions;
    cluster.add_worker_state_callback(
        [&](WorkerId, bool up) { transitions.emplace_back(sim.now(), up); });
    sim.at(0.123456, [&] { cluster.set_worker_down(0); });
    sim.at(0.654321, [&] { cluster.set_worker_up(0); });
    sim.run();
    ASSERT_EQ(transitions.size(), 2u) << sim.queue_name();
    EXPECT_EQ(transitions[0].first, 0.123456);
    EXPECT_FALSE(transitions[0].second);
    EXPECT_EQ(transitions[1].first, 0.654321);
    EXPECT_TRUE(transitions[1].second);
  }
}

}  // namespace
}  // namespace autopipe::sim
