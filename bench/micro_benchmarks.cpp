// Google-benchmark micro-benchmarks for the hot paths: the event engine,
// max-min re-rating, the DP planner, neighbourhood enumeration, meta-network
// inference and one executor iteration. These bound the runtime overhead
// AutoPipe adds to a training job (the paper reports < 1% CPU).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "analysis/trace_reader.hpp"
#include "autopipe/controller.hpp"
#include "autopipe/features.hpp"
#include "common/profile.hpp"
#include "autopipe/meta_network.hpp"
#include "common/trace.hpp"
#include "models/zoo.hpp"
#include "partition/neighborhood.hpp"
#include "partition/pipedream_planner.hpp"
#include "pipeline/executor.hpp"
#include "sim/cluster.hpp"
#include "sim/flow_network.hpp"

using namespace autopipe;

namespace {

void BM_SimulatorEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i)
      sim.at(static_cast<Seconds>(i) * 1e-3, [&fired] { ++fired; });
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_SimulatorEventChurn);

void BM_SimulatorFatCaptureChurn(benchmark::State& state) {
  // Captures past std::function's ~16-byte SBO but inside the simulator's
  // 48-byte inline budget — the case the small-buffer callback exists for.
  for (auto _ : state) {
    sim::Simulator sim;
    double acc = 0.0;
    for (int i = 0; i < 1000; ++i) {
      const double a = i * 1.0, b = i * 2.0, c = i * 3.0, d = i * 4.0;
      sim.at(static_cast<Seconds>(i) * 1e-3,
             [&acc, a, b, c, d] { acc += a + b + c + d; });
    }
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SimulatorFatCaptureChurn);

void BM_SimulatorFatCaptureChurnHeap(benchmark::State& state) {
  // The same workload pinned to the reference binary heap: the spread
  // between this and BM_SimulatorFatCaptureChurn is the timing wheel's
  // win, measured through the identical devirtualized Simulator path.
  for (auto _ : state) {
    sim::Simulator sim(sim::EventQueueKind::kHeap);
    double acc = 0.0;
    for (int i = 0; i < 1000; ++i) {
      const double a = i * 1.0, b = i * 2.0, c = i * 3.0, d = i * 4.0;
      sim.at(static_cast<Seconds>(i) * 1e-3,
             [&acc, a, b, c, d] { acc += a + b + c + d; });
    }
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SimulatorFatCaptureChurnHeap);

template <typename Queue>
void queue_churn(benchmark::State& state) {
  // Queue-only churn: isolates push/pop cost from Simulator bookkeeping
  // and callback execution. Steady-state mix — a warm backlog of 256
  // events, then interleaved push/pop pairs walking time forward.
  for (auto _ : state) {
    Queue q;
    std::uint64_t seq = 0;
    for (int i = 0; i < 256; ++i)
      q.push(sim::SimEvent{static_cast<Seconds>(i) * 1e-3, seq++, {}, nullptr});
    Seconds horizon = 0.256;
    for (int i = 0; i < 1000; ++i) {
      const sim::SimEvent ev = q.pop();
      benchmark::DoNotOptimize(ev.time);
      q.push(sim::SimEvent{horizon, seq++, {}, nullptr});
      horizon += 1e-3;
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().time);
  }
}

void BM_EventQueueHeap(benchmark::State& state) {
  queue_churn<sim::HeapEventQueue>(state);
}
BENCHMARK(BM_EventQueueHeap);

void BM_EventQueueWheel(benchmark::State& state) {
  queue_churn<sim::TimingWheelEventQueue>(state);
}
BENCHMARK(BM_EventQueueWheel);

void BM_FlowNetworkRerate(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  sim::FlowNetwork net(sim);
  std::vector<sim::ResourceId> resources;
  for (int i = 0; i < 10; ++i)
    resources.push_back(net.add_resource("r", 1e9));
  for (std::size_t f = 0; f < flows; ++f) {
    net.start_flow({{resources[f % 10], resources[(f + 3) % 10]}, 1e15,
                    nullptr});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    // Each capacity change triggers a full max-min re-rate.
    net.set_capacity(resources[i % 10], (i % 2) ? 5e8 : 1e9);
    ++i;
  }
  state.SetLabel(std::to_string(flows) + " flows");
}
BENCHMARK(BM_FlowNetworkRerate)->Arg(8)->Arg(32)->Arg(128);

void BM_PipeDreamPlanner(benchmark::State& state) {
  const auto model = models::resnet50();
  partition::EnvironmentView env;
  env.worker_speed.assign(10, tflops(4));
  env.worker_bandwidth.assign(10, gbps(25));
  for (auto _ : state) {
    partition::PipeDreamPlanner planner(model, env, 128);
    benchmark::DoNotOptimize(planner.plan(10));
  }
}
BENCHMARK(BM_PipeDreamPlanner);

void BM_NeighborhoodEnumeration(benchmark::State& state) {
  const auto model = models::resnet50();
  const auto p = partition::Partition::even_split(
      model.num_layers(), {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::two_worker_candidates(p));
  }
}
BENCHMARK(BM_NeighborhoodEnumeration);

void BM_DecisionRound(benchmark::State& state) {
  // One planning call of the controller (profile snapshot, change check and
  // a full scoring round of the 28-move neighbourhood) on vgg16 5x2 at
  // 25 Gbps, from the plan L0-4@{0,1,2} | L5-12@{3..8} | L13-20@{9} under
  // the threshold arbiter and the analytic predictor. Set-up runs the
  // pipeline and aborts every switch the controller starts as a lost
  // tenant claim, which rejects its target for the rest of the regime, so
  // the timed rounds hold and each one checks a non-empty rejected set.
  sim::Simulator sim;
  sim::ClusterConfig config;
  config.num_servers = 5;
  config.gpus_per_server = 2;
  config.nic_bandwidth = gbps(25);
  sim::Cluster cluster(sim, config);
  const auto model = models::vgg16();
  const partition::Partition plan(
      {{0, 4, {0, 1, 2}}, {5, 12, {3, 4, 5, 6, 7, 8}}, {13, 20, {9}}},
      model.num_layers());
  pipeline::PipelineExecutor executor(cluster, model, plan,
                                      pipeline::ExecutorConfig{});
  core::ControllerConfig cc;
  cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
  cc.use_meta_network = false;
  core::AutoPipeController controller(cluster, executor, cc, nullptr,
                                      nullptr);
  executor.set_iteration_callback([&](std::size_t iters) {
    controller.on_iteration(iters);
    if (executor.switch_in_progress())
      executor.abort_switch_attempt("tenant_contention");
  });
  executor.run(80, 5);
  if (executor.switches_aborted() == 0 ||
      !(executor.current_partition() == plan)) {
    state.SkipWithError("set-up did not reject a target on the 28-move plan");
    return;
  }
  const std::size_t requested = controller.stats().switches_requested;
  for (auto _ : state) {
    controller.on_iteration(1000);
    benchmark::DoNotOptimize(controller.stats().last_decision_wall_seconds);
  }
  if (controller.stats().switches_requested != requested)
    state.SkipWithError("a timed round switched instead of holding");
  state.counters["candidates"] = benchmark::Counter(
      static_cast<double>(controller.stats().candidates_evaluated) /
      static_cast<double>(controller.stats().decisions));
}
BENCHMARK(BM_DecisionRound);

void BM_MetaNetworkPredict(benchmark::State& state) {
  const core::FeatureEncoder encoder;
  core::MetaNetworkConfig mc;
  mc.dynamic_dim = encoder.dynamic_dim();
  mc.static_dim = encoder.static_dim();
  mc.partition_dim = encoder.partition_dim();
  core::MetaNetwork meta(mc, 1);
  const std::vector<std::vector<double>> seq(
      8, std::vector<double>(encoder.dynamic_dim(), 0.4));
  const std::vector<double> st(encoder.static_dim(), 0.4);
  const std::vector<double> pf(encoder.partition_dim(), 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(meta.predict(seq, st, pf));
  }
}
BENCHMARK(BM_MetaNetworkPredict);

void BM_ProfilerSpanOverhead(benchmark::State& state) {
  // The cost of leaving PROF_SPAN in a hot path. Arg(0) measures the
  // disabled case — one relaxed load and a branch, the ≤2 ns budget quoted
  // in docs/TELEMETRY.md — and Arg(1) the full record path. The recording
  // buffer is drained periodically so the enabled case measures appends,
  // not allocation-driven regrowth of an unbounded vector.
  const bool enabled = state.range(0) != 0;
  prof::reset();
  prof::set_enabled(enabled);
  std::size_t recorded = 0;
  for (auto _ : state) {
    {
      PROF_SPAN("bench/span_overhead");
    }
    if (enabled && ++recorded >= 65536) {
      state.PauseTiming();
      prof::reset();
      recorded = 0;
      state.ResumeTiming();
    }
  }
  prof::set_enabled(false);
  prof::reset();
  state.SetLabel(enabled ? "enabled" : "disabled");
}
BENCHMARK(BM_ProfilerSpanOverhead)->Arg(0)->Arg(1);

void BM_ProfilerAggOverhead(benchmark::State& state) {
  // PROF_SPAN_AGG is the flavour meant for per-event paths (queue push/pop):
  // constant memory, so no periodic drain is needed even when enabled.
  const bool enabled = state.range(0) != 0;
  prof::reset();
  prof::set_enabled(enabled);
  for (auto _ : state) {
    PROF_SPAN_AGG("bench/agg_overhead");
  }
  prof::set_enabled(false);
  prof::reset();
  state.SetLabel(enabled ? "enabled" : "disabled");
}
BENCHMARK(BM_ProfilerAggOverhead)->Arg(0)->Arg(1);

/// Per-event cost reported as the inverse rate of `events` per iteration.
benchmark::Counter ns_per_event(double events) {
  return benchmark::Counter(
      events, benchmark::Counter::kIsIterationInvariantRate |
                  benchmark::Counter::kInvert);
}

void BM_TraceRecordFlowBegin(benchmark::State& state) {
  // The trace's most common event, tied with its 'e' (45% of a traced
  // vgg16 run each): a flow 'b' with its bytes and path.
  constexpr int kEvents = 4096;
  trace::TraceRecorder rec;
  rec.set_enabled(true);
  for (auto _ : state) {
    for (int i = 0; i < kEvents; ++i) {
      rec.async_begin(trace::Category::kComm, "flow",
                      static_cast<std::uint64_t>(i), i * 1e-3,
                      {trace::arg("bytes", 4.5e6 + i),
                       trace::arg("path", "server0.nic.tx,server1.nic.rx")});
    }
    state.PauseTiming();
    rec.clear();
    state.ResumeTiming();
  }
  state.counters["ns_per_event"] = ns_per_event(kEvents);
}
BENCHMARK(BM_TraceRecordFlowBegin);

/// Discards what is written, so the text sink's formatting is all that is
/// timed.
class NullBuffer : public std::streambuf {
 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
  int_type overflow(int_type ch) override { return traits_type::not_eof(ch); }
};

/// A traced run's event mix, after the lines of a traced vgg16 5x2 run
/// (1000 iterations, NICs to 10 Gbps at 500: flow b 45.1%, e 45.1%, fp/bp
/// 3.2%, act/grad/sync 2.6%, predict 2.6%, marks the rest). Of every 250
/// records, 113 are flow 'b's with bytes and path, 113 'e's, 8 fp/bp spans,
/// 6 act spans, 6 `predict` instants and 4 iteration marks. 76 of the 250
/// start a new timestamp, so 69.6% repeat the previous record's (69.5% in
/// that run).
void record_flow_mix(trace::TraceRecorder& rec) {
  constexpr int kCycle = 250;
  constexpr int kInstants = 76;
  std::uint64_t begun = 0, ended = 0;
  for (int i = 0; i < 40 * kCycle; ++i) {
    const double t = (i * kInstants / kCycle) * 1e-4;
    const int k = i % kCycle;
    if (k < 226 && k % 2 == 0) {
      rec.async_begin(trace::Category::kComm, "flow", ++begun, t,
                      {trace::arg("bytes", 4.5e6 + i),
                       trace::arg("path", "server0.nic.tx,server1.nic.rx")});
    } else if (k < 226) {
      rec.async_end(trace::Category::kComm, "flow", ++ended, t);
    } else if (k < 234) {
      rec.complete(trace::Category::kCompute, k % 2 == 0 ? "fp" : "bp", t,
                   t + 2e-4, i % 10, 0,
                   {trace::arg("batch", i), trace::arg("micro", 16)});
    } else if (k < 240) {
      rec.complete(trace::Category::kComm, "act", t, t + 3e-4,
                   trace::kPidNetwork, 1,
                   {trace::arg("src", 0), trace::arg("dst", 1),
                    trace::arg("bytes", 284939.13)});
    } else if (k < 246) {
      rec.instant(trace::Category::kControl, "predict", t,
                  trace::kPidControl, 1, {trace::arg("speed", 8.33333333)});
    } else {
      rec.instant(trace::Category::kMark, "iteration", t, trace::kPidControl,
                  0, {trace::arg("n", i / kCycle)});
    }
  }
}

void BM_TraceWriteText(benchmark::State& state) {
  trace::TraceRecorder rec;
  rec.set_enabled(true);
  record_flow_mix(rec);
  NullBuffer sink;
  std::ostream os(&sink);
  for (auto _ : state) rec.write_text(os);
  state.counters["ns_per_event"] =
      ns_per_event(static_cast<double>(rec.size()));
}
BENCHMARK(BM_TraceWriteText);

void BM_TraceParseText(benchmark::State& state) {
  // The text BM_TraceWriteText writes, decoded back into events.
  trace::TraceRecorder rec;
  rec.set_enabled(true);
  record_flow_mix(rec);
  std::ostringstream text;
  rec.write_text(text);
  std::istringstream is(text.str());
  for (auto _ : state) {
    is.clear();
    is.seekg(0);
    benchmark::DoNotOptimize(analysis::parse_text(is));
  }
  state.counters["ns_per_event"] =
      ns_per_event(static_cast<double>(rec.size()));
}
BENCHMARK(BM_TraceParseText);

void BM_ExecutorIteration(benchmark::State& state) {
  const auto model = models::alexnet();
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    sim::ClusterConfig cc;
    cc.nic_bandwidth = gbps(25);
    sim::Cluster cluster(sim, cc);
    const auto env = partition::EnvironmentView::from_cluster(
        cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
    partition::PipeDreamPlanner planner(model, env, 256);
    const auto plan = planner.plan(10);
    pipeline::PipelineExecutor executor(cluster, model, plan.partition,
                                        pipeline::ExecutorConfig{});
    state.ResumeTiming();
    benchmark::DoNotOptimize(executor.run(10, 2));
  }
}
BENCHMARK(BM_ExecutorIteration)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
