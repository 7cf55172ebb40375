// The analysis tier (ctest label `analysis`): interval algebra, trace
// parsing round-trips, and the analyzer itself checked against hand-built
// event sequences whose utilization, bubble classes, critical path and
// switch post-mortems are known exactly — plus a golden `summary --json`
// over the checked-in bandwidth-drop trace and the partition invariant
// (busy + every idle class == wall clock) asserted on it.
//
// Golden regeneration: AUTOPIPE_REGEN_GOLDEN=1 rewrites the summary file,
// same as the trace golden in trace_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/bubbles.hpp"
#include "analysis/critical_path.hpp"
#include "analysis/gantt.hpp"
#include "analysis/interval.hpp"
#include "analysis/json.hpp"
#include "analysis/report.hpp"
#include "analysis/switches.hpp"
#include "analysis/trace_reader.hpp"
#include "analysis/trace_view.hpp"
#include "common/expect.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/trace.hpp"

namespace autopipe::analysis {
namespace {

using trace::Category;
using trace::TraceRecorder;
using trace::arg;
using trace::kPidControl;
using trace::kPidNetwork;

// Direct Event builders: the Event struct is available even with
// AUTOPIPE_TRACING=OFF (when the recorder is an inert stub), so every
// analyzer test runs in both configurations.

trace::Event span(Category category, std::string name, double begin,
                  double end, int pid, int tid, trace::Args args = {}) {
  trace::Event ev;
  ev.category = category;
  ev.phase = 'X';
  ev.name = std::move(name);
  ev.ts = begin;
  ev.dur = end - begin;
  ev.pid = pid;
  ev.tid = tid;
  ev.args = std::move(args);
  return ev;
}

trace::Event instant(Category category, std::string name, double ts, int pid,
                     int tid, trace::Args args = {}) {
  trace::Event ev;
  ev.category = category;
  ev.phase = 'i';
  ev.name = std::move(name);
  ev.ts = ts;
  ev.pid = pid;
  ev.tid = tid;
  ev.args = std::move(args);
  return ev;
}

trace::Event counter(Category category, std::string name, double ts,
                     double value) {
  trace::Event ev;
  ev.category = category;
  ev.phase = 'C';
  ev.name = std::move(name);
  ev.ts = ts;
  ev.value = value;
  ev.pid = kPidNetwork;
  return ev;
}

trace::Event flow_edge(char phase, std::uint64_t id, double ts,
                       trace::Args args = {}) {
  trace::Event ev;
  ev.category = Category::kComm;
  ev.phase = phase;
  ev.name = "flow";
  ev.id = id;
  ev.ts = ts;
  ev.pid = kPidNetwork;
  ev.args = std::move(args);
  return ev;
}

// ---------------------------------------------------------------------------
// Interval algebra
// ---------------------------------------------------------------------------

TEST(IntervalSet, AddMergesOverlappingAndTouching) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  s.add(2.0, 3.0);
  s.add(0.0, 1.0);
  s.add(1.0, 2.0);  // touches both: everything merges
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_DOUBLE_EQ(s.total(), 3.0);
  EXPECT_DOUBLE_EQ(s.front_begin(), 0.0);
  EXPECT_DOUBLE_EQ(s.back_end(), 3.0);

  s.add(5.0, 5.0);  // empty input ignored
  s.add(7.0, 6.0);  // inverted input ignored
  EXPECT_EQ(s.intervals().size(), 1u);
}

TEST(IntervalSet, SetOperations) {
  IntervalSet a;
  a.add(0.0, 4.0);
  a.add(6.0, 8.0);
  IntervalSet b;
  b.add(3.0, 7.0);

  const IntervalSet u = a.unite(b);
  EXPECT_DOUBLE_EQ(u.total(), 8.0);
  ASSERT_EQ(u.intervals().size(), 1u);

  const IntervalSet i = a.intersect(b);
  EXPECT_DOUBLE_EQ(i.total(), 2.0);  // [3,4) + [6,7)
  ASSERT_EQ(i.intervals().size(), 2u);

  const IntervalSet d = a.subtract(b);
  EXPECT_DOUBLE_EQ(d.total(), 4.0);  // [0,3) + [7,8)
  EXPECT_DOUBLE_EQ(d.front_begin(), 0.0);
  EXPECT_DOUBLE_EQ(d.back_end(), 8.0);

  // subtract + intersect partition the original measure.
  EXPECT_NEAR(d.total() + i.total(), a.total(), 1e-12);
}

TEST(IntervalSet, ComplementClampOverlap) {
  IntervalSet s;
  s.add(1.0, 2.0);
  s.add(4.0, 5.0);

  const IntervalSet c = s.complement(0.0, 6.0);
  EXPECT_DOUBLE_EQ(c.total(), 4.0);  // [0,1) + [2,4) + [5,6)
  ASSERT_EQ(c.intervals().size(), 3u);
  EXPECT_NEAR(c.total() + s.total(), 6.0, 1e-12);

  const IntervalSet k = s.clamp(1.5, 4.5);
  EXPECT_DOUBLE_EQ(k.total(), 1.0);  // [1.5,2) + [4,4.5)

  EXPECT_DOUBLE_EQ(s.overlap(1.5, 4.5), 1.0);
  EXPECT_DOUBLE_EQ(s.overlap(2.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(s.overlap(0.0, 10.0), s.total());
}

// ---------------------------------------------------------------------------
// Histogram percentiles
// ---------------------------------------------------------------------------

TEST(Histogram, PercentilesMatchTheFreeFunction) {
  Histogram h;
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) {
    h.add(static_cast<double>(i));
    xs.push_back(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.p50(), percentile(xs, 50.0));
  EXPECT_DOUBLE_EQ(h.p95(), percentile(xs, 95.0));
  EXPECT_DOUBLE_EQ(h.p99(), percentile(xs, 99.0));

  // Adding after a percentile query re-sorts correctly.
  h.add(1000.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 1000.0);

  const Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);

  h.reset();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.summary().count, 0u);
}

// ---------------------------------------------------------------------------
// Text-format round trip (needs a live recorder to produce the text)
// ---------------------------------------------------------------------------

#if AUTOPIPE_TRACING

TEST(TraceReader, RoundTripsEveryPhase) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.complete(Category::kCompute, "fp", 0.25, 0.75, 2, 1,
               {arg("batch", 3), arg("micro", 0)});
  rec.instant(Category::kMark, "iteration", 1.0, kPidControl, 0,
              {arg("n", 1)});
  rec.counter(Category::kResource, "cap:server0.nic.tx", 0.0, 1.25e9);
  rec.async_begin(Category::kComm, "flow", 42, 0.25,
                  {arg("bytes", 100.0), arg("path", "server0.nic.tx")});
  rec.async_end(Category::kComm, "flow", 42, 0.5);
  // Typed fields at their extremes, and a string value with spaces last, as
  // resource_event's what= is.
  rec.instant(Category::kResource, "resource_event", 1.5, trace::kPidResource,
              0,
              {arg("delta", std::int64_t{-42}),
               arg("max", std::numeric_limits<std::uint64_t>::max()),
               arg("nan", std::numeric_limits<double>::quiet_NaN()),
               arg("inf", -std::numeric_limits<double>::infinity()),
               arg("what", "set all NIC bandwidth to 10 Gbps")});

  std::ostringstream os;
  rec.write_text(os);
  std::istringstream is(os.str());
  const std::vector<trace::Event> parsed = parse_text(is);
  // events() decodes a fresh copy: keep it alive while referencing into it.
  const std::vector<trace::Event> recorded = rec.events();
  ASSERT_EQ(parsed.size(), recorded.size());
  ASSERT_EQ(recorded.back().args.size(), 5u);
  EXPECT_EQ(recorded.back().args[0].value, "-42");
  EXPECT_EQ(recorded.back().args[1].value, "18446744073709551615");
  EXPECT_EQ(recorded.back().args[2].value, "nan");
  EXPECT_EQ(recorded.back().args[3].value, "-inf");
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const trace::Event& want = recorded[i];
    const trace::Event& got = parsed[i];
    EXPECT_EQ(got.category, want.category) << "event " << i;
    EXPECT_EQ(got.phase, want.phase);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.pid, want.pid);
    EXPECT_EQ(got.tid, want.tid);
    EXPECT_EQ(got.id, want.id);
    EXPECT_NEAR(got.ts, want.ts, 1e-12);
    EXPECT_NEAR(got.dur, want.dur, 1e-12);
    EXPECT_NEAR(got.value, want.value, 1e-3);
    ASSERT_EQ(got.args.size(), want.args.size());
    for (std::size_t a = 0; a < got.args.size(); ++a) {
      EXPECT_EQ(got.args[a].key, want.args[a].key);
      EXPECT_EQ(got.args[a].value, want.args[a].value);
    }
  }
}

TEST(TraceReader, ArgValuesWithSpacesSurvive) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.instant(Category::kResource, "resource_event", 0.5, 1002, 0,
              {arg("what", "set all NIC bandwidth"), arg("after", "done")});
  std::ostringstream os;
  rec.write_text(os);
  std::istringstream is(os.str());
  const auto parsed = parse_text(is);
  ASSERT_EQ(parsed.size(), 1u);
  ASSERT_NE(parsed[0].find_arg("what"), nullptr);
  EXPECT_EQ(*parsed[0].find_arg("what"), "set all NIC bandwidth");
  ASSERT_NE(parsed[0].find_arg("after"), nullptr);
  EXPECT_EQ(*parsed[0].find_arg("after"), "done");
}

#endif  // AUTOPIPE_TRACING

TEST(TraceReader, MalformedLinesThrow) {
  {
    std::istringstream is("0.5 compute X fp pid=0\n");  // missing tid
    EXPECT_THROW(parse_text(is), contract_error);
  }
  {
    std::istringstream is("not-a-number compute X fp pid=0 tid=0\n");
    EXPECT_THROW(parse_text(is), contract_error);
  }
  {
    // An X span that never states its dur lies about its own shape.
    std::istringstream is("0.5 compute X fp pid=0 tid=0\n");
    EXPECT_THROW(parse_text(is), contract_error);
  }
  EXPECT_THROW(parse_text_file("/nonexistent/run.trace"), contract_error);
}

TEST(TraceReader, UnknownCategorySkipsAndCounts) {
  // A newer writer's category is healed around, not fatal: the line is
  // skipped, the damage is counted, and everything else still parses.
  std::istringstream is(
      "0.5 nonsense X fp pid=0 tid=0 dur=1\n"
      "0.5 compute X fp pid=0 tid=0 dur=1.000000000\n");
  ReadStats stats;
  const auto parsed = parse_text(is, &stats);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].name, "fp");
  EXPECT_EQ(stats.skipped_lines, 1u);
  EXPECT_EQ(stats.events, 1u);
  EXPECT_FALSE(stats.clean());
}

// ---------------------------------------------------------------------------
// A hand-built two-worker run with exactly known answers
// ---------------------------------------------------------------------------

/// w0 computes [0,1) and [5,6); w1 computes [2,4). server0's NIC is
/// saturated over [2,4): flow 2 takes all of its capacity, first recorded
/// at 2. One act transfer [1,2) (w0 -> w1) rides flow 1, whose path names
/// the server NICs; no capacity is recorded for either while it runs, so it
/// saturates neither. Iteration marks at 6 and 10 pin the wall clock to 10.
std::vector<trace::Event> known_run() {
  return {
      span(Category::kCompute, "fp", 0.0, 1.0, 0, 0, {arg("batch", 0)}),
      span(Category::kCompute, "bp", 5.0, 6.0, 0, 0, {arg("batch", 0)}),
      span(Category::kCompute, "fp", 2.0, 3.0, 1, 1, {arg("batch", 0)}),
      span(Category::kCompute, "bp", 3.0, 4.0, 1, 1, {arg("batch", 0)}),
      span(Category::kComm, "act", 1.0, 2.0, kPidNetwork, 1,
           {arg("src", 0), arg("dst", 1), arg("bytes", 100.0)}),
      flow_edge('b', 1, 1.0,
                {arg("bytes", 100.0),
                 arg("path", "server0.nic.tx,server1.nic.rx")}),
      flow_edge('e', 1, 2.0),
      counter(Category::kResource, "cap:server0.nic.tx", 2.0, 1000.0),
      flow_edge('b', 2, 2.0,
                {arg("bytes", 2000.0), arg("path", "server0.nic.tx")}),
      flow_edge('e', 2, 4.0),
      instant(Category::kMark, "iteration", 6.0, kPidControl, 0,
              {arg("n", 0)}),
      instant(Category::kMark, "iteration", 10.0, kPidControl, 0,
              {arg("n", 1)}),
  };
}

// The view borrows its events: a named vector binds, a temporary, which
// would die under the view, does not compile.
static_assert(
    std::is_constructible_v<TraceView, const std::vector<trace::Event>&>);
static_assert(!std::is_constructible_v<TraceView, std::vector<trace::Event>>);

TEST(TraceView, IndexesTheKnownRun) {
  const std::vector<trace::Event> events = known_run();
  const TraceView view(events);

  EXPECT_DOUBLE_EQ(view.wall_clock(), 10.0);
  ASSERT_EQ(view.workers().size(), 2u);
  EXPECT_DOUBLE_EQ(view.compute_busy(0).total(), 2.0);
  EXPECT_DOUBLE_EQ(view.compute_busy(1).total(), 2.0);
  EXPECT_DOUBLE_EQ(view.fp_busy(0).total(), 1.0);
  EXPECT_DOUBLE_EQ(view.bp_busy(0).total(), 1.0);
  // The act transfer marks both endpoints comm-busy.
  EXPECT_DOUBLE_EQ(view.comm_busy(0).total(), 1.0);
  EXPECT_DOUBLE_EQ(view.comm_busy(1).total(), 1.0);

  ASSERT_EQ(view.flows().size(), 2u);
  EXPECT_DOUBLE_EQ(view.flows()[0].bytes, 100.0);
  EXPECT_FALSE(view.flows()[0].cancelled);

  EXPECT_EQ(view.iteration_marks().size(), 2u);
  EXPECT_TRUE(view.switch_spans().empty());

  // Saturation derived from the cap: counter and the flows.
  const IntervalSet& sat = view.resource_saturated("server0.nic.tx");
  EXPECT_DOUBLE_EQ(sat.total(), 2.0);
  EXPECT_DOUBLE_EQ(sat.front_begin(), 2.0);

  // Servers inferred from the transfer<->flow correlation.
  EXPECT_EQ(view.server_of(0), 0);
  EXPECT_EQ(view.server_of(1), 1);
  EXPECT_DOUBLE_EQ(view.nic_saturated(0).total(), 2.0);
  EXPECT_DOUBLE_EQ(view.nic_saturated(1).total(), 0.0);
}

TEST(Bubbles, ClassifiesTheKnownRunExactly) {
  const std::vector<trace::Event> events = known_run();
  const TraceView view(events);
  const BubbleReport report = attribute_bubbles(view);
  ASSERT_EQ(report.workers.size(), 2u);

  auto cls = [](const WorkerBubbles& w, BubbleClass c) {
    return w.seconds[static_cast<std::size_t>(c)];
  };

  // w0: busy [0,1)+[5,6); saturated-NIC idle [2,4); the gaps [1,2) and
  // [4,5) both end at its bp span -> downstream; [6,10) is the tail.
  const WorkerBubbles& w0 = report.workers[0];
  EXPECT_EQ(w0.worker, 0);
  EXPECT_DOUBLE_EQ(w0.busy_seconds, 2.0);
  EXPECT_DOUBLE_EQ(cls(w0, BubbleClass::kStartupFill), 0.0);
  EXPECT_DOUBLE_EQ(cls(w0, BubbleClass::kReconfigDrain), 0.0);
  EXPECT_DOUBLE_EQ(cls(w0, BubbleClass::kNetContention), 2.0);
  EXPECT_DOUBLE_EQ(cls(w0, BubbleClass::kUpstreamStall), 0.0);
  EXPECT_DOUBLE_EQ(cls(w0, BubbleClass::kDownstreamStall), 2.0);
  EXPECT_DOUBLE_EQ(cls(w0, BubbleClass::kDrainTail), 4.0);

  // w1: fill until its first fp at 2, tail after its bp ends at 4; its
  // server's NIC was never saturated.
  const WorkerBubbles& w1 = report.workers[1];
  EXPECT_DOUBLE_EQ(w1.busy_seconds, 2.0);
  EXPECT_DOUBLE_EQ(cls(w1, BubbleClass::kStartupFill), 2.0);
  EXPECT_DOUBLE_EQ(cls(w1, BubbleClass::kNetContention), 0.0);
  EXPECT_DOUBLE_EQ(cls(w1, BubbleClass::kDrainTail), 6.0);

  // The partition invariant, exactly.
  for (const WorkerBubbles& w : report.workers) {
    EXPECT_NEAR(w.busy_seconds + w.idle_seconds(), view.wall_clock(), 1e-9);
  }
}

TEST(Bubbles, WorkerWithNoComputeIsAllStartupFill) {
  const std::vector<trace::Event> events{
      span(Category::kCompute, "fp", 0.0, 1.0, 0, 0, {arg("batch", 0)}),
      // w1 only ever communicates.
      span(Category::kComm, "act", 1.0, 2.0, kPidNetwork, 1,
           {arg("src", 0), arg("dst", 1), arg("bytes", 8.0)}),
  };
  const TraceView view(events);
  const BubbleReport report = attribute_bubbles(view);
  ASSERT_EQ(report.workers.size(), 2u);
  const WorkerBubbles& w1 = report.workers[1];
  EXPECT_DOUBLE_EQ(w1.busy_seconds, 0.0);
  EXPECT_DOUBLE_EQ(
      w1.seconds[static_cast<std::size_t>(BubbleClass::kStartupFill)],
      view.wall_clock());
  EXPECT_NEAR(w1.idle_seconds(), view.wall_clock(), 1e-9);
}

TEST(CriticalPath, RecoversTheDependencyChain) {
  // fp on w0 -> activation transfer -> fp on w1, perfectly abutting,
  // plus a decoy on w0 that also ends at 2.0 but feeds nothing.
  const std::vector<trace::Event> events{
      span(Category::kCompute, "fp", 0.0, 1.0, 0, 0, {arg("batch", 0)}),
      span(Category::kComm, "act", 1.0, 2.0, kPidNetwork, 1,
           {arg("src", 0), arg("dst", 1), arg("bytes", 64.0),
            arg("batch", 0)}),
      span(Category::kCompute, "fp", 2.0, 3.0, 1, 1, {arg("batch", 0)}),
      span(Category::kCompute, "fp", 1.5, 2.0, 0, 0, {arg("batch", 1)}),
  };
  const TraceView view(events);
  const CriticalPath path = extract_critical_path(view);

  ASSERT_EQ(path.segments.size(), 3u);
  EXPECT_EQ(path.segments[0].key, "compute:fp:stage0@w0");
  EXPECT_EQ(path.segments[1].key, "comm:act:0->1");
  EXPECT_EQ(path.segments[2].key, "compute:fp:stage1@w1");
  EXPECT_DOUBLE_EQ(path.span_seconds, 3.0);
  EXPECT_DOUBLE_EQ(path.wait_seconds, 0.0);

  double share = 0.0;
  for (const PathEntry& e : path.entries) share += e.share;
  EXPECT_NEAR(share, 1.0, 1e-9);
}

TEST(CriticalPath, InsertsWaitSegmentsAcrossGaps) {
  // Nothing abuts: [1, 2.5) is dead time even on the critical path.
  const std::vector<trace::Event> events{
      span(Category::kCompute, "fp", 0.0, 1.0, 0, 0, {arg("batch", 0)}),
      span(Category::kCompute, "fp", 2.5, 3.0, 1, 1, {arg("batch", 0)}),
  };
  const TraceView view(events);
  const CriticalPath path = extract_critical_path(view);

  ASSERT_EQ(path.segments.size(), 3u);
  EXPECT_EQ(path.segments[1].key, "wait");
  EXPECT_DOUBLE_EQ(path.wait_seconds, 1.5);
  EXPECT_DOUBLE_EQ(path.span_seconds, 1.5);
}

TEST(Switches, PostMortemArithmetic) {
  // Steady 1.0 s/iter before; the switch [3.0, 4.5) completes no
  // iterations; afterwards the run settles at 0.5 s/iter.
  std::vector<trace::Event> events;
  for (int n = 1; n <= 3; ++n) {
    events.push_back(instant(Category::kMark, "iteration",
                             static_cast<double>(n), kPidControl, 0,
                             {arg("n", n)}));
  }
  events.push_back(span(Category::kSwitch, "switch", 3.0, 4.5, kPidControl, 0,
                        {arg("mode", "stw")}));
  events.push_back(instant(Category::kSwitch, "migration_begin", 3.5,
                           kPidControl, 0,
                           {arg("pairs", 2), arg("bytes", 1000.0)}));
  for (int n = 0; n < 3; ++n) {
    events.push_back(instant(Category::kMark, "iteration", 5.0 + 0.5 * n,
                             kPidControl, 0, {arg("n", 4 + n)}));
  }

  const TraceView view(events);
  const auto post = switch_post_mortems(view);
  ASSERT_EQ(post.size(), 1u);
  const SwitchPostMortem& pm = post[0];
  EXPECT_EQ(pm.mode, "stw");
  EXPECT_DOUBLE_EQ(pm.request_ts, 3.0);
  EXPECT_DOUBLE_EQ(pm.duration, 1.5);
  EXPECT_DOUBLE_EQ(pm.migration_bytes, 1000.0);
  EXPECT_EQ(pm.migration_pairs, 2u);
  EXPECT_EQ(pm.iterations_during, 0u);
  EXPECT_DOUBLE_EQ(pm.period_before, 1.0);
  EXPECT_DOUBLE_EQ(pm.period_after, 0.5);
  EXPECT_NEAR(pm.speedup_pct, 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(pm.stall_seconds, 1.5);
  // 1.5 s stall won back at 0.5 s/iteration gain.
  EXPECT_DOUBLE_EQ(pm.payback_iterations, 3.0);
}

TEST(Switches, AbortedAttemptsGetPostMortemsToo) {
  // One aborted attempt [2.0, 2.8) that rolled back mid-transfer, then a
  // committed retry [3.0, 3.5); both must appear, in time order.
  std::vector<trace::Event> events;
  for (int n = 1; n <= 2; ++n) {
    events.push_back(instant(Category::kMark, "iteration",
                             static_cast<double>(n), kPidControl, 0,
                             {arg("n", n)}));
  }
  events.push_back(span(Category::kSwitch, "switch_aborted", 2.0, 2.8,
                        kPidControl, 0,
                        {arg("mode", "fine"), arg("phase", "transfer"),
                         arg("reason", "worker_loss"), arg("id", 1)}));
  events.push_back(instant(Category::kSwitch, "switch_prepare", 2.0,
                           kPidControl, 0,
                           {arg("pairs", 3), arg("bytes", 500.0)}));
  events.push_back(span(Category::kSwitch, "switch", 3.0, 3.5, kPidControl,
                        0, {arg("mode", "fine"), arg("id", 2)}));
  events.push_back(instant(Category::kSwitch, "switch_prepare", 3.0,
                           kPidControl, 0,
                           {arg("pairs", 3), arg("bytes", 500.0)}));
  for (int n = 0; n < 2; ++n) {
    events.push_back(instant(Category::kMark, "iteration", 4.0 + n,
                             kPidControl, 0, {arg("n", 3 + n)}));
  }

  const TraceView view(events);
  const auto post = switch_post_mortems(view);
  ASSERT_EQ(post.size(), 2u);

  const SwitchPostMortem& aborted = post[0];
  EXPECT_EQ(aborted.index, 0u);
  EXPECT_TRUE(aborted.aborted);
  EXPECT_EQ(aborted.abort_phase, "transfer");
  EXPECT_EQ(aborted.abort_reason, "worker_loss");
  EXPECT_DOUBLE_EQ(aborted.request_ts, 2.0);
  EXPECT_DOUBLE_EQ(aborted.duration, 0.8);
  EXPECT_DOUBLE_EQ(aborted.migration_bytes, 500.0);
  // An aborted switch buys nothing: no speedup, no payback.
  EXPECT_DOUBLE_EQ(aborted.speedup_pct, 0.0);
  EXPECT_DOUBLE_EQ(aborted.payback_iterations, -1.0);

  const SwitchPostMortem& committed = post[1];
  EXPECT_EQ(committed.index, 1u);
  EXPECT_FALSE(committed.aborted);
  EXPECT_DOUBLE_EQ(committed.request_ts, 3.0);
  EXPECT_DOUBLE_EQ(committed.migration_bytes, 500.0);
}

// ---------------------------------------------------------------------------
// Whole-run analysis over the checked-in golden trace
// ---------------------------------------------------------------------------

std::string golden_path(const char* name) {
  return std::string(AUTOPIPE_GOLDEN_DIR) + "/" + name;
}

/// The golden bandwidth-drop trace, decoded for a view to borrow.
std::vector<trace::Event> golden_events() {
  return parse_text_file(golden_path("bandwidth_drop.trace"));
}

TEST(GoldenAnalysis, IdleClassesPartitionWallClock) {
  const std::vector<trace::Event> events = golden_events();
  const TraceView view(events);
  const RunAnalysis a = analyze(view);
  ASSERT_FALSE(a.bubbles.workers.empty());
  for (const WorkerBubbles& w : a.bubbles.workers) {
    EXPECT_NEAR(w.busy_seconds + w.idle_seconds(), a.wall_clock, 1e-6)
        << "worker " << w.worker;
  }
  for (const WorkerUtilization& u : a.utilization) {
    EXPECT_NEAR(u.compute_frac + u.comm_frac + u.idle_frac, 1.0, 1e-6)
        << "worker " << u.worker;
    EXPECT_GE(u.idle_frac, -1e-9);
  }
}

TEST(GoldenAnalysis, AttributesContentionAndReconfigDrain) {
  // The golden scenario drops the NIC to 1 Gbps at iteration 5 and switches
  // the partition stop-the-world at iteration 7: both signatures must show.
  const std::vector<trace::Event> events = golden_events();
  const TraceView view(events);
  const BubbleReport report = attribute_bubbles(view);
  EXPECT_GT(report.totals[static_cast<std::size_t>(
                BubbleClass::kNetContention)],
            0.0);
  EXPECT_GT(report.totals[static_cast<std::size_t>(
                BubbleClass::kReconfigDrain)],
            0.0);

  const auto post = switch_post_mortems(view);
  ASSERT_EQ(post.size(), 1u);
  EXPECT_EQ(post[0].mode, "stw");
  EXPECT_GT(post[0].migration_bytes, 0.0);
}

TEST(GoldenAnalysis, SummaryJsonMatchesGolden) {
  const std::string path = golden_path("bandwidth_drop.summary.json");
  const std::vector<trace::Event> events = golden_events();
  const TraceView view(events);
  const RunAnalysis a = analyze(view);
  std::ostringstream os;
  write_summary_json(a, os);

  if (std::getenv("AUTOPIPE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write golden file " << path;
    out << os.str();
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with AUTOPIPE_REGEN_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(os.str(), golden.str())
      << "summary drifted from the golden file; if the change is intended, "
         "regenerate with AUTOPIPE_REGEN_GOLDEN=1";
}

TEST(GoldenAnalysis, OldLoadCountersAnswerLikeDerivedLoads) {
  // bandwidth_drop_precausal.trace is the golden run in the oldest format,
  // with no eids and with the load: counters traces no longer carry;
  // bandwidth_drop.trace is the same run written today. The reader ignores
  // those counters and derives every load, so the answers agree.
  const std::vector<trace::Event> old_events =
      parse_text_file(golden_path("bandwidth_drop_precausal.trace"));
  const std::vector<trace::Event> new_events = golden_events();
  auto loads = [](const std::vector<trace::Event>& events) {
    std::size_t n = 0;
    for (const trace::Event& ev : events)
      n += ev.phase == 'C' && ev.name.starts_with("load:");
    return n;
  };
  ASSERT_GT(loads(old_events), 0u);
  EXPECT_EQ(loads(new_events), 0u);

  const TraceView old_view(old_events);
  const TraceView new_view(new_events);
  const RunAnalysis got = analyze(old_view);
  const RunAnalysis want = analyze(new_view);
  EXPECT_GT(want.bubbles.totals[static_cast<std::size_t>(
                BubbleClass::kNetContention)],
            0.0);
  EXPECT_EQ(render_bubbles_text(got), render_bubbles_text(want));
  EXPECT_EQ(render_critical_path_text(got), render_critical_path_text(want));
  EXPECT_EQ(render_switches_text(got), render_switches_text(want));
}

TEST(GoldenAnalysis, SupersededSameInstantLoadsChangeNoAnswer) {
  // Loads are derived, never read: load: counters, as older traces wrote
  // them, change no answer even when they are wrong. Before every flow
  // record of a golden, insert one for each resource on the flow's path,
  // alternately the resource's capacity and 0.
  const std::vector<trace::Event> events =
      parse_text_file(golden_path("replicated_ring.trace"));
  std::map<std::string, double> capacity;
  std::map<std::uint64_t, std::string> open_paths;
  std::vector<trace::Event> padded;
  bool at_capacity = true;
  for (const trace::Event& ev : events) {
    if (ev.phase == 'C' && ev.name.starts_with("cap:"))
      capacity[ev.name.substr(4)] = ev.value;
    if (ev.phase == 'b' && ev.name == "flow")
      open_paths[ev.id] = *ev.find_arg("path");
    if ((ev.phase == 'b' || ev.phase == 'e') && ev.name == "flow") {
      const std::string& path = open_paths.at(ev.id);
      for (const std::string& resource : parse::split(path, ',')) {
        trace::Event& wrong = padded.emplace_back();
        wrong.category = Category::kComm;
        wrong.phase = 'C';
        wrong.name = "load:" + resource;
        wrong.ts = ev.ts;
        wrong.pid = kPidNetwork;
        wrong.value = at_capacity ? capacity.at(resource) : 0.0;
        at_capacity = !at_capacity;
      }
    }
    padded.push_back(ev);
  }
  ASSERT_GT(padded.size(), events.size());

  const TraceView view(events);
  const TraceView padded_view(padded);
  const RunAnalysis want = analyze(view);
  RunAnalysis got = analyze(padded_view);
  EXPECT_EQ(render_bubbles_text(got), render_bubbles_text(want));
  EXPECT_EQ(render_critical_path_text(got), render_critical_path_text(want));
  EXPECT_EQ(render_switches_text(got), render_switches_text(want));
  EXPECT_EQ(got.num_events, padded.size());
  got.num_events = want.num_events;
  EXPECT_EQ(render_summary_text(got), render_summary_text(want));
}

TEST(GoldenAnalysis, SelfDiffIsEmpty) {
  const std::vector<trace::Event> events = golden_events();
  const TraceView view(events);
  const RunAnalysis a = analyze(view);
  const RunAnalysis b = analyze(view);
  EXPECT_TRUE(diff_analyses(a, b).empty());

  // flatten() is the diff's substrate: keys must be unique and ordered the
  // same on every call.
  const auto fa = flatten(a);
  const auto fb = flatten(b);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].first, fb[i].first);
  }
}

TEST(GoldenAnalysis, DiffDetectsAChangedRun) {
  const std::vector<trace::Event> golden_run = golden_events();
  const std::vector<trace::Event> other_run = known_run();
  const TraceView golden(golden_run);
  const TraceView other(other_run);
  const auto deltas = diff_analyses(analyze(golden), analyze(other));
  EXPECT_FALSE(deltas.empty());
  bool saw_wall_clock = false;
  for (const DiffEntry& d : deltas) {
    if (d.key == "wall_clock") saw_wall_clock = true;
  }
  EXPECT_TRUE(saw_wall_clock);
}

TEST(Diff, EmptyVsEmptyTraceHasNoDifferences) {
  const std::vector<trace::Event> none;
  const TraceView a(none);
  const TraceView b(none);
  const auto deltas = diff_analyses(analyze(a), analyze(b));
  EXPECT_TRUE(deltas.empty());
}

TEST(Diff, MismatchedWorkerCountsCompareAgainstZero) {
  // Two workers vs one: the per-worker keys the single-worker run lacks
  // must still appear in the diff, compared against 0 on the missing side.
  const std::vector<trace::Event> two_workers = known_run();
  const std::vector<trace::Event> one_worker{
      span(Category::kCompute, "fp", 0.0, 1.0, 0, 0, {arg("batch", 0)}),
      span(Category::kCompute, "bp", 1.0, 2.0, 0, 0, {arg("batch", 0)}),
      instant(Category::kMark, "iteration", 2.0, kPidControl, 0,
              {arg("n", 0)}),
  };
  const TraceView two(two_workers);
  const TraceView one(one_worker);
  const auto deltas = diff_analyses(analyze(two), analyze(one));
  ASSERT_FALSE(deltas.empty());
  bool saw_missing_worker = false;
  for (const DiffEntry& d : deltas) {
    if (d.key.find("worker1") != std::string::npos ||
        d.key.find("w1") != std::string::npos) {
      saw_missing_worker = true;
      EXPECT_DOUBLE_EQ(d.b, 0.0) << d.key;
    }
  }
  EXPECT_TRUE(saw_missing_worker);
  // And the comparison is symmetric: swapping sides flips a/b.
  const auto swapped = diff_analyses(analyze(one), analyze(two));
  ASSERT_EQ(swapped.size(), deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    EXPECT_EQ(swapped[i].key, deltas[i].key);
    EXPECT_DOUBLE_EQ(swapped[i].a, deltas[i].b);
    EXPECT_DOUBLE_EQ(swapped[i].b, deltas[i].a);
  }
}

TEST(GoldenAnalysis, UtilizationTimelineIsSane) {
  const std::vector<trace::Event> events = golden_events();
  const TraceView view(events);
  const auto timeline = utilization_timeline(view, 16);
  ASSERT_EQ(timeline.size(), 16u);
  EXPECT_DOUBLE_EQ(timeline.front().begin, 0.0);
  EXPECT_DOUBLE_EQ(timeline.back().end, view.wall_clock());
  double busy_from_windows = 0.0;
  for (const UtilizationWindow& w : timeline) {
    ASSERT_EQ(w.compute_frac.size(), view.workers().size());
    for (double f : w.compute_frac) {
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0 + 1e-9);
    }
    busy_from_windows += w.compute_frac[0] * (w.end - w.begin);
  }
  // Window-bucketed busy time telescopes back to the exact total.
  EXPECT_NEAR(busy_from_windows,
              view.compute_busy(view.workers()[0]).total(), 1e-9);
}

TEST(GoldenAnalysis, GanttRendersEveryWorkerRow) {
  const std::vector<trace::Event> events = golden_events();
  const TraceView view(events);
  const std::string gantt = render_gantt(view, 60);
  for (int worker : view.workers()) {
    EXPECT_NE(gantt.find("w" + std::to_string(worker) + " "),
              std::string::npos);
  }
  EXPECT_NE(gantt.find("F fp"), std::string::npos);  // legend
  EXPECT_NE(gantt.find("scale: 1 cell"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

TEST(JsonWriter, NestsAndEscapes) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    w.kv("text", "line\n\"quoted\"");
    w.kv("num", 0.5);
    w.kv("flag", true);
    w.key("list");
    w.begin_array();
    w.value(std::int64_t{1});
    w.begin_object();
    w.kv("inner", 2);
    // Destructor closes the inner object, array and outer object.
  }
  const std::string json = os.str();
  EXPECT_NE(json.find("\"text\": \"line\\n\\\"quoted\\\"\""),
            std::string::npos);
  EXPECT_NE(json.find("\"num\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"flag\": true"), std::string::npos);
  // Balanced braces/brackets.
  std::ptrdiff_t depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(JsonWriter, ScalarMapKeepsKeyOrder) {
  std::ostringstream os;
  write_scalar_map_json({{"b.second", 2.0}, {"a.first", 1.5}}, os);
  const std::string json = os.str();
  const std::size_t a = json.find("a.first");
  const std::size_t b = json.find("b.second");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_NE(json.find("\"a.first\": 1.5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fuzz-style reader robustness. The reader's whole contract is "parse or
// throw contract_error" — never crash, hang or leak a foreign exception
// type — so feed it seeded corruptions of the checked-in golden trace and
// assert nothing else ever escapes. The golden file keeps these tests
// independent of AUTOPIPE_TRACING (no live recorder needed).
// ---------------------------------------------------------------------------

std::string golden_trace_text() {
  std::ifstream in(golden_path("bandwidth_drop.trace"));
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

/// True when parse_text accepts the text, false when it rejects it with
/// contract_error. Any other exception propagates into gtest and fails the
/// test — that is the point of the harness.
bool parses_cleanly(const std::string& text) {
  std::istringstream is(text);
  try {
    (void)parse_text(is);
    return true;
  } catch (const contract_error&) {
    return false;
  }
}

std::string flip_random_bytes(std::string text, Rng& rng) {
  if (text.empty()) return text;
  const std::int64_t flips = rng.uniform_int(1, 16);
  for (std::int64_t f = 0; f < flips; ++f) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    text[pos] = static_cast<char>(rng.uniform_int(0, 255));
  }
  return text;
}

std::string truncate_random(const std::string& text, Rng& rng) {
  const auto cut = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(text.size())));
  return text.substr(0, cut);
}

class TraceReaderFuzz : public ::testing::TestWithParam<int> {};

// Every whole-line prefix of a valid trace is itself a valid trace: the
// format carries no cross-line state, so a reader catching a file mid-write
// (flush happened, run died) still gets everything up to the cut.
TEST_P(TraceReaderFuzz, WholeLinePrefixParsesExactly) {
  static const std::vector<std::string> lines =
      split_lines(golden_trace_text());
  ASSERT_FALSE(lines.empty());
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 101u);
  const auto keep = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(lines.size())));
  std::string text;
  for (std::size_t i = 0; i < keep; ++i) text += lines[i] + '\n';
  std::istringstream is(text);
  EXPECT_EQ(parse_text(is).size(), keep);
}

// Two writers' lines merged in arbitrary order (each stream's own order
// preserved) still parse completely — again because lines are independent.
TEST_P(TraceReaderFuzz, InterleavedLineStreamsParseCompletely) {
  static const std::vector<std::string> lines =
      split_lines(golden_trace_text());
  std::vector<std::string> even, odd;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    (i % 2 == 0 ? even : odd).push_back(lines[i]);
  }
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 211u);
  std::string text;
  std::size_t i = 0, j = 0;
  while (i < even.size() || j < odd.size()) {
    const bool take_even =
        j >= odd.size() || (i < even.size() && rng.chance(0.5));
    text += (take_even ? even[i++] : odd[j++]) + '\n';
  }
  std::istringstream is(text);
  EXPECT_EQ(parse_text(is).size(), lines.size());
}

// Arbitrary corruption — byte-level truncation (usually mid-line), random
// byte flips, and both at once — must always land in parse-or-reject.
TEST_P(TraceReaderFuzz, ArbitraryCorruptionParsesOrRejects) {
  static const std::string base = golden_trace_text();
  ASSERT_FALSE(base.empty());
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 307u);
  std::string text;
  switch (GetParam() % 3) {
    case 0:
      text = truncate_random(base, rng);
      break;
    case 1:
      text = flip_random_bytes(base, rng);
      break;
    default:
      text = flip_random_bytes(truncate_random(base, rng), rng);
      break;
  }
  (void)parses_cleanly(text);  // either outcome is fine; escapes are not
}

INSTANTIATE_TEST_SUITE_P(SeededCorruptions, TraceReaderFuzz,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace autopipe::analysis
