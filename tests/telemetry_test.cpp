// Telemetry tier (ctest labels `telemetry` + `parity`): the metric
// time-series sampler, the autopipe-ts-v1 reader/analyzer behind
// `autopipe_trace timeseries`, the host self-profiler and its report
// builder behind `autopipe_trace profile`, the figure benches' --metrics
// export, and the determinism contract — the sampled series is a pure
// function of the event sequence, so it must be byte-identical across
// sweep --jobs values (the queue-kind half of the contract lives in
// parity_test via parity::ScenarioResult).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "analysis/profile_report.hpp"
#include "analysis/timeseries_reader.hpp"
#include "bench_common.hpp"
#include "common/metrics.hpp"
#include "common/profile.hpp"
#include "common/timeseries.hpp"
#include "models/zoo.hpp"
#include "sim/simulator.hpp"
#include "sweep/engine.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace autopipe {
namespace {

using analysis::ProfileReport;
using analysis::TimeSeries;
using analysis::TimeSeriesReport;
using trace::MetricsRegistry;
using trace::TimeSeriesSampler;

// ---------------------------------------------------------------------------
// TimeSeriesSampler: sample-at-boundary semantics
// ---------------------------------------------------------------------------

TEST(TimeSeriesSampler, RowAtBoundaryReflectsEventsStrictlyBefore) {
  MetricsRegistry metrics;
  TimeSeriesSampler sampler;
  sampler.configure(1.0);

  // First advance emits the t=0 row before anything happened.
  sampler.advance_to(0.0, metrics);
  ASSERT_EQ(sampler.size(), 1u);
  EXPECT_EQ(sampler.samples()[0].time, 0.0);
  EXPECT_EQ(sampler.samples()[0].values.count("x"), 0u);

  // An event at t=2.5 first drains boundaries 1.0 and 2.0 — both see the
  // state *before* that event executes.
  metrics.add("x", 1.0);
  sampler.advance_to(2.5, metrics);
  ASSERT_EQ(sampler.size(), 3u);
  EXPECT_EQ(sampler.samples()[1].time, 1.0);
  EXPECT_EQ(sampler.samples()[2].time, 2.0);
  EXPECT_EQ(sampler.samples()[2].values.at("x"), 1.0);

  // finalize() past the last boundary appends one closing row at `now`
  // with the complete end-of-run state.
  metrics.add("x", 1.0);
  sampler.finalize(2.7, metrics);
  ASSERT_EQ(sampler.size(), 4u);
  EXPECT_EQ(sampler.samples()[3].time, 2.7);
  EXPECT_EQ(sampler.samples()[3].values.at("x"), 2.0);
}

TEST(TimeSeriesSampler, BoundariesComeFromMultiplicationNotAccumulation) {
  // 0.1 is not representable in binary; index*interval keeps the grid
  // consistent no matter how advance_to calls interleave.
  MetricsRegistry metrics;
  TimeSeriesSampler incremental;
  incremental.configure(0.1);
  for (int i = 0; i <= 100; ++i)
    incremental.advance_to(static_cast<double>(i) * 0.01, metrics);

  TimeSeriesSampler one_shot;
  one_shot.configure(0.1);
  one_shot.advance_to(1.0, metrics);

  ASSERT_EQ(incremental.size(), one_shot.size());
  for (std::size_t i = 0; i < one_shot.size(); ++i)
    EXPECT_EQ(incremental.samples()[i].time, one_shot.samples()[i].time);
}

TEST(TimeSeriesSampler, FinalizeOnExactBoundaryAddsNoDuplicateRow) {
  MetricsRegistry metrics;
  TimeSeriesSampler sampler;
  sampler.configure(0.5);
  sampler.advance_to(1.0, metrics);  // rows at 0, 0.5, 1.0
  ASSERT_EQ(sampler.size(), 3u);
  sampler.finalize(1.0, metrics);
  EXPECT_EQ(sampler.size(), 3u);
  // finalize is one-shot: later calls must not extend the series.
  sampler.finalize(9.0, metrics);
  EXPECT_EQ(sampler.size(), 3u);
}

TEST(TimeSeriesSampler, ConfigureRearmsAndClears) {
  MetricsRegistry metrics;
  TimeSeriesSampler sampler;
  EXPECT_FALSE(sampler.enabled());
  sampler.advance_to(5.0, metrics);  // disabled: no-op, no rows
  EXPECT_EQ(sampler.size(), 0u);

  sampler.configure(1.0);
  sampler.finalize(2.0, metrics);
  EXPECT_EQ(sampler.size(), 3u);

  sampler.configure(2.0);
  EXPECT_TRUE(sampler.enabled());
  EXPECT_EQ(sampler.size(), 0u);
  sampler.finalize(2.0, metrics);  // re-armed after an earlier finalize
  EXPECT_EQ(sampler.size(), 2u);
}

// ---------------------------------------------------------------------------
// autopipe-ts-v1: writer -> reader round trip
// ---------------------------------------------------------------------------

TEST(TimeSeriesFormat, WriteReadRoundTripWithLateColumnsBackfilledZero) {
  MetricsRegistry metrics;
  TimeSeriesSampler sampler;
  sampler.configure(1.0);
  metrics.set("alpha", 2.5);
  sampler.advance_to(0.0, metrics);
  metrics.add("beta", 7.0);  // appears only after the first row
  metrics.observe("err", 4.0);
  sampler.finalize(1.5, metrics);

  std::ostringstream os;
  sampler.write_text(os);
  std::istringstream is(os.str());
  const TimeSeries ts = analysis::read_timeseries(is);

  EXPECT_EQ(ts.interval, 1.0);
  ASSERT_EQ(ts.rows.size(), 3u);
  ASSERT_FALSE(ts.columns.empty());
  EXPECT_EQ(ts.columns[0], "time");
  // Sorted union of every key that ever appeared: the rolling series
  // expands to .count/.ema/.mean like the flattened registry export.
  const std::size_t alpha = ts.column_index("alpha");
  const std::size_t beta = ts.column_index("beta");
  ASSERT_LT(alpha, ts.columns.size());
  ASSERT_LT(beta, ts.columns.size());
  ASSERT_LT(ts.column_index("err.mean"), ts.columns.size());
  EXPECT_EQ(ts.rows[0][beta], 0.0);  // absent at t=0 -> backfilled 0
  EXPECT_EQ(ts.rows[2][beta], 7.0);
  EXPECT_EQ(ts.rows[2][alpha], 2.5);
  EXPECT_EQ(ts.rows[2][0], 1.5);  // closing row at `now`
}

TEST(TimeSeriesFormat, ReaderRejectsMalformedInput) {
  const auto read = [](const std::string& text) {
    std::istringstream is(text);
    return analysis::read_timeseries(is);
  };
  EXPECT_THROW(read("not-a-timeseries\n"), std::runtime_error);
  EXPECT_THROW(read("autopipe-ts-v1 interval=1 rows=1 columns=2\n"
                    "col time\ncol x\n"
                    "0 1\n"
                    "col y\n"),
               std::runtime_error);  // column declared after data
  EXPECT_THROW(read("autopipe-ts-v1 interval=1 rows=1 columns=2\n"
                    "col time\ncol x\n"
                    "0 1 2\n"),
               std::runtime_error);  // row width mismatch
  EXPECT_THROW(read("autopipe-ts-v1 interval=1 rows=3 columns=2\n"
                    "col time\ncol x\n"
                    "0 1\n"),
               std::runtime_error);  // truncated: fewer rows than declared
  EXPECT_THROW(read("autopipe-ts-v1 interval=1 rows=1 columns=1\n"
                    "col x\n"
                    "0\n"),
               std::runtime_error);  // missing leading time column
}

// ---------------------------------------------------------------------------
// analyze_timeseries: stats, dropped-sample surfacing, anomaly scan
// ---------------------------------------------------------------------------

TimeSeries churny_series() {
  TimeSeries ts;
  ts.interval = 1.0;
  ts.columns = {"time", "arbiter.accepted", "executor.throughput.mean",
                "metrics.dropped_samples"};
  ts.rows = {
      {0.0, 0.0, 100.0, 0.0},
      {1.0, 0.0, 50.0, 0.0},  // 50% drop, no decision activity
      {2.0, 1.0, 20.0, 2.0},  // 60% drop, but the arbiter acted
  };
  return ts;
}

TEST(AnalyzeTimeseries, FlagsSpeedDropsAndChecksDecisionActivity) {
  const TimeSeriesReport report =
      analysis::analyze_timeseries(churny_series(), 0.2);
  EXPECT_EQ(report.rows, 3u);
  EXPECT_EQ(report.duration, 2.0);
  EXPECT_EQ(report.dropped_samples, 2.0);

  ASSERT_EQ(report.anomalies.size(), 2u);
  EXPECT_EQ(report.anomalies[0].time, 1.0);
  EXPECT_EQ(report.anomalies[0].column, "executor.throughput.mean");
  EXPECT_NEAR(report.anomalies[0].drop_frac, 0.5, 1e-12);
  EXPECT_TRUE(report.anomalies[0].no_decision);
  EXPECT_NEAR(report.anomalies[1].drop_frac, 0.6, 1e-12);
  EXPECT_FALSE(report.anomalies[1].no_decision);

  // Raising the threshold above both drops silences the scan.
  EXPECT_TRUE(
      analysis::analyze_timeseries(churny_series(), 0.7).anomalies.empty());
}

TEST(AnalyzeTimeseries, ColumnStatsAndEmaFallback) {
  TimeSeries ts = churny_series();
  ts.columns[2] = "executor.throughput.ema";  // only the EMA form present
  const TimeSeriesReport report = analysis::analyze_timeseries(ts, 0.2);
  ASSERT_EQ(report.anomalies.size(), 2u);
  EXPECT_EQ(report.anomalies[0].column, "executor.throughput.ema");

  ASSERT_EQ(report.columns.size(), 3u);  // "time" excluded
  const auto& thr = report.columns[1];
  EXPECT_EQ(thr.name, "executor.throughput.ema");
  EXPECT_EQ(thr.min, 20.0);
  EXPECT_EQ(thr.max, 100.0);
  EXPECT_NEAR(thr.mean, 170.0 / 3.0, 1e-12);
  EXPECT_EQ(thr.last, 20.0);
}

TEST(AnalyzeTimeseries, FlagsAbortStormsWithoutCommits) {
  TimeSeries ts;
  ts.interval = 1.0;
  ts.columns = {"time", "switch.aborted.transfer", "switch.aborted.prepare",
                "switch.committed"};
  ts.rows = {
      {0.0, 0.0, 0.0, 0.0},
      {1.0, 1.0, 0.0, 0.0},
      {2.0, 2.0, 0.0, 0.0},
      {3.0, 2.0, 1.0, 0.0},  // third abort, still no commit -> storm
      {4.0, 3.0, 1.0, 0.0},  // storm continues but is flagged only once
      {5.0, 3.0, 1.0, 1.0},  // a commit lands; the baseline resets
      {6.0, 4.0, 2.0, 1.0},  // two fresh aborts: below the bar, no flag
  };
  const TimeSeriesReport report = analysis::analyze_timeseries(ts, 0.2);
  ASSERT_EQ(report.anomalies.size(), 1u);
  EXPECT_EQ(report.anomalies[0].kind, "abort_storm");
  EXPECT_EQ(report.anomalies[0].time, 3.0);
  EXPECT_EQ(report.anomalies[0].column, "switch.aborted.*");
  EXPECT_EQ(report.anomalies[0].drop_frac, 3.0);

  const std::string text = analysis::render_timeseries(ts, report, 40);
  EXPECT_NE(text.find("ABORT STORM: 3 switch aborts with no commit"),
            std::string::npos);
  std::ostringstream os;
  analysis::write_timeseries_json(report, os);
  EXPECT_NE(os.str().find("\"kind\": \"abort_storm\""), std::string::npos);

  // Interleaved commits keep resetting the window: no storm.
  ts.rows = {
      {0.0, 0.0, 0.0, 0.0},
      {1.0, 2.0, 0.0, 1.0},
      {2.0, 4.0, 0.0, 2.0},
      {3.0, 6.0, 0.0, 3.0},
  };
  EXPECT_TRUE(analysis::analyze_timeseries(ts, 0.2).anomalies.empty());
}

TEST(AnalyzeTimeseries, RenderAndJsonSurfaceAnomaliesAndDrops) {
  const TimeSeries ts = churny_series();
  const TimeSeriesReport report = analysis::analyze_timeseries(ts, 0.2);
  const std::string text = analysis::render_timeseries(ts, report, 40);
  EXPECT_NE(text.find("WARNING: 2 non-finite"), std::string::npos);
  EXPECT_NE(text.find("NO decision activity"), std::string::npos);
  EXPECT_NE(text.find("decision activity present"), std::string::npos);

  std::ostringstream os;
  analysis::write_timeseries_json(report, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"autopipe-timeseries-report-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"no_decision\": true"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_samples\": 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Host self-profiler: record, collect, serialize
// ---------------------------------------------------------------------------

std::size_t total_spans(const std::vector<prof::ThreadProfile>& profiles) {
  std::size_t n = 0;
  for (const auto& tp : profiles) n += tp.spans.size() + tp.aggregates.size();
  return n;
}

TEST(Profiler, DisabledRecordsNothing) {
  prof::reset();
  prof::set_enabled(false);
  for (int i = 0; i < 100; ++i) {
    PROF_SPAN("test/disabled");
    PROF_SPAN_AGG("test/disabled_agg");
  }
  EXPECT_EQ(total_spans(prof::collect()), 0u);
}

TEST(Profiler, RecordsNestedSpansAndAggregates) {
  prof::reset();
  prof::set_enabled(true);
  {
    PROF_SPAN("outer/solve");
    { PROF_SPAN("inner/step"); }
    { PROF_SPAN_AGG("agg/tick"); }
    { PROF_SPAN_AGG("agg/tick"); }
  }
  prof::set_enabled(false);

  const auto profiles = prof::collect();
  const prof::ThreadProfile* mine = nullptr;
  for (const auto& tp : profiles)
    if (!tp.spans.empty()) mine = &tp;
  ASSERT_NE(mine, nullptr);
  ASSERT_EQ(mine->spans.size(), 2u);

  // Destructor order: the inner span completes (and records) first.
  const prof::Span& inner = mine->spans[0];
  const prof::Span& outer = mine->spans[1];
  EXPECT_EQ(inner.name, "inner/step");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(outer.name, "outer/solve");
  EXPECT_EQ(outer.depth, 0u);
  // collect() rebases: the earliest span starts at 0 and nesting holds.
  EXPECT_EQ(outer.start_ns, 0u);
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);

  ASSERT_EQ(mine->aggregates.size(), 1u);
  EXPECT_EQ(mine->aggregates[0].name, "agg/tick");
  EXPECT_EQ(mine->aggregates[0].count, 2u);
}

TEST(Profiler, TextRoundTripIsByteStable) {
  prof::reset();
  prof::set_enabled(true);
  {
    PROF_SPAN("planner/decide_round");
    PROF_SPAN_AGG("predictor/infer");
  }
  prof::set_enabled(false);

  std::ostringstream first;
  prof::write_text(prof::collect(), first);
  std::istringstream is(first.str());
  const auto parsed = prof::read_text(is);
  std::ostringstream second;
  prof::write_text(parsed, second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("autopipe-prof-v1"), std::string::npos);
  EXPECT_NE(first.str().find("span planner/decide_round"),
            std::string::npos);
  EXPECT_NE(first.str().find("agg predictor/infer"), std::string::npos);
}

TEST(Profiler, ReadTextRejectsBadInput) {
  std::istringstream bad_header("nope\n");
  EXPECT_THROW(prof::read_text(bad_header), std::runtime_error);
  std::istringstream short_line("autopipe-prof-v1\nthread 0\nspan x 1\n");
  EXPECT_THROW(prof::read_text(short_line), std::runtime_error);
}

TEST(Profiler, ResetDropsRecordedSpans) {
  prof::reset();
  prof::set_enabled(true);
  { PROF_SPAN("test/span"); }
  prof::set_enabled(false);
  EXPECT_GT(total_spans(prof::collect()), 0u);
  prof::reset();
  EXPECT_EQ(total_spans(prof::collect()), 0u);
}

// ---------------------------------------------------------------------------
// Profile report: exclusive time, categories, flamegraph folding
// ---------------------------------------------------------------------------

prof::ThreadProfile nested_profile() {
  prof::ThreadProfile tp;
  // cat/root [0,100) containing cat/child [10,40) and other/leaf [50,70).
  tp.spans.push_back({"cat/root", 0, 100, 0});
  tp.spans.push_back({"cat/child", 10, 30, 1});
  tp.spans.push_back({"other/leaf", 50, 20, 1});
  return tp;
}

TEST(ProfileReport, ExclusiveTimeSubtractsNestedSpans) {
  const ProfileReport report =
      analysis::build_profile_report({nested_profile()});
  EXPECT_EQ(report.threads, 1u);
  EXPECT_EQ(report.total_ns, 100u);  // only the depth-0 span

  ASSERT_EQ(report.spans.size(), 3u);  // inclusive desc
  EXPECT_EQ(report.spans[0].name, "cat/root");
  EXPECT_EQ(report.spans[0].inclusive_ns, 100u);
  EXPECT_EQ(report.spans[0].exclusive_ns, 50u);  // 100 - 30 - 20
  EXPECT_EQ(report.spans[1].name, "cat/child");
  EXPECT_EQ(report.spans[1].exclusive_ns, 30u);
  EXPECT_EQ(report.spans[2].name, "other/leaf");
  EXPECT_EQ(report.spans[2].exclusive_ns, 20u);

  // Category inclusive counts only category roots: cat/child sits under
  // cat/root, so "cat" is 100 inclusive (not 130), 80 exclusive.
  ASSERT_EQ(report.categories.size(), 2u);  // exclusive desc
  EXPECT_EQ(report.categories[0].name, "cat");
  EXPECT_EQ(report.categories[0].inclusive_ns, 100u);
  EXPECT_EQ(report.categories[0].exclusive_ns, 80u);
  EXPECT_EQ(report.categories[1].name, "other");
  EXPECT_EQ(report.categories[1].inclusive_ns, 20u);
  EXPECT_EQ(report.categories[1].exclusive_ns, 20u);
}

TEST(ProfileReport, AggregatesCountTowardTotalsAndNsPerCall) {
  prof::ThreadProfile tp;
  tp.aggregates.push_back({"sim/queue_pop", 40, 4});
  const ProfileReport report = analysis::build_profile_report({tp});
  ASSERT_EQ(report.spans.size(), 1u);
  EXPECT_TRUE(report.spans[0].aggregate_only);
  EXPECT_EQ(report.spans[0].count, 4u);
  EXPECT_EQ(report.spans[0].inclusive_ns, 40u);
  EXPECT_EQ(report.total_ns, 40u);
  EXPECT_EQ(analysis::span_ns_per_call(report, "sim/queue_pop"), 10.0);
  EXPECT_EQ(analysis::span_ns_per_call(report, "absent/name"), 0.0);
}

TEST(ProfileReport, CollapsedStacksFoldExclusiveTimeAlongThePath) {
  std::ostringstream os;
  analysis::write_collapsed_stacks({nested_profile()}, os);
  EXPECT_EQ(os.str(),
            "cat/root 50\n"
            "cat/root;cat/child 30\n"
            "cat/root;other/leaf 20\n");
}

TEST(ProfileReport, RenderAndJsonCarrySchemaAndTables) {
  const ProfileReport report =
      analysis::build_profile_report({nested_profile()});
  std::ostringstream json;
  analysis::write_profile_json(report, json);
  EXPECT_NE(json.str().find("\"schema\": \"autopipe-profile-report-v1\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"name\": \"cat/root\""), std::string::npos);

  std::ostringstream text;
  analysis::render_profile(report, {nested_profile()}, 2, text);
  EXPECT_NE(text.str().find("host profile: 1 thread(s)"), std::string::npos);
  EXPECT_NE(text.str().find("cat/root"), std::string::npos);
  EXPECT_NE(text.str().find("top 2 individual spans"), std::string::npos);
}

TEST(ProfileReport, TopSpansOrdersByDuration) {
  const auto top = analysis::top_spans({nested_profile()}, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].name, "cat/root");
  EXPECT_EQ(top[1].name, "cat/child");
}

// ---------------------------------------------------------------------------
// Simulator integration: sampling is pure observation
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// The figure benches' --metrics export
// ---------------------------------------------------------------------------

TEST(BenchMetrics, FileCarriesTheRollingSeries) {
  const std::string path = ::testing::TempDir() + "bench_metrics.json";
  const std::string flag = "--metrics=" + path;
  const char* with_metrics[] = {"bench", flag.c_str()};
  bench::parse_common_flags(2, with_metrics);
  bench::Testbed testbed = bench::make_testbed(25.0);
  const models::ModelSpec model = models::alexnet();
  bench::RunOptions options;
  options.iterations = 8;
  options.warmup = 2;
  options.scenario = "alexnet";
  const auto plan = bench::plan_pipedream(testbed, model,
                                          options.executor.framework,
                                          options.executor.sync_scheme);
  bench::run_pipeline(testbed, model, plan.partition, options);
  const char* without_metrics[] = {"bench", "--metrics="};
  bench::parse_common_flags(2, without_metrics);

  std::ifstream in(::testing::TempDir() + "bench_metrics.alexnet.json");
  std::stringstream text;
  text << in.rdbuf();
  // The same flattened form autopipe_sim and the sweep write.
  for (const char* key :
       {"\"executor.throughput.ema\"", "\"executor.throughput.count\"",
        "\"executor.iteration_period.mean\""})
    EXPECT_NE(text.str().find(key), std::string::npos) << key << " in\n"
                                                        << text.str();
}

// ---------------------------------------------------------------------------
// The figure benches' one run path and the drivers Figs 3-6 and 9-10 share
// ---------------------------------------------------------------------------

TEST(BenchRun, RejectsAnUnlabelledOrRepeatedLabel) {
  const char* argv[] = {"bench"};
  bench::parse_common_flags(1, argv);
  bench::Testbed testbed = bench::make_testbed(25.0);
  const models::ModelSpec model = models::alexnet();
  const auto plan = bench::plan_pipedream(
      testbed, model, comm::pytorch_profile(), comm::SyncScheme::kRing);
  bench::RunOptions options;
  options.iterations = 4;
  options.warmup = 1;
  // Two unlabelled runs would write, and overwrite, the same files.
  EXPECT_THROW(bench::run_pipeline(testbed, model, plan.partition, options),
               contract_error);
  bench::Testbed baseline = bench::make_testbed(25.0);
  EXPECT_THROW(bench::run_baseline(baseline, model, options), contract_error);
  EXPECT_THROW(bench::write_outputs(testbed, ""), contract_error);
  // So would two runs under one label.
  bench::write_outputs(testbed, "once");
  EXPECT_THROW(bench::write_outputs(testbed, "once"), contract_error);
  bench::parse_common_flags(1, argv);
  bench::write_outputs(testbed, "once");
}

TEST(BenchRun, FigureControllerDetectsABandwidthDrop) {
  const char* argv[] = {"bench"};
  bench::parse_common_flags(1, argv);
  bench::Testbed testbed = bench::make_testbed(25.0);
  const models::ModelSpec model = models::vgg16();
  const auto plan = bench::plan_pipedream(
      testbed, model, comm::pytorch_profile(), comm::SyncScheme::kRing);
  sim::ResourceTrace drop;
  drop.at_iteration(12, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  bench::RunOptions options;
  options.controller = bench::autopipe_controller();
  options.trace = &drop;
  options.iterations = 30;
  options.warmup = 5;
  options.scenario = "drop";
  bench::run_pipeline(testbed, model, plan.partition, options);
  EXPECT_EQ(testbed.cluster->nic_bandwidth(0), gbps(10));
  EXPECT_GE(testbed.simulator->metrics().value("controller.changes"), 1.0);
}

TEST(BenchRun, DegradationPanelsMeasureEachCellOnce) {
  std::vector<std::string> measured;
  const auto fake = [&](const models::ModelSpec&, double,
                        const std::string& label) {
    measured.push_back(label);
    if (label == "alexnet_25gbps") throw std::runtime_error("cell failed");
    return bench::Degradation{.actual = 40.0, .optimal = 30.0};
  };
  std::ostringstream out;
  bench::degradation_panels(out, "panel a", "panel b", models::resnet50(),
                            "gap", fake);
  // Three models, then four bandwidths less the 25 Gbps cell panel a ran.
  EXPECT_EQ(measured,
            (std::vector<std::string>{"resnet50_25gbps", "vgg16_25gbps",
                                      "alexnet_25gbps", "resnet50_10gbps",
                                      "resnet50_40gbps", "resnet50_100gbps"}));
  const std::string text = out.str();
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
      ++n;
    return n;
  };
  // The optimal column is max(optimal, actual), never the worse plan, so
  // every row shows a 0% gap. The failed cell has no row in either panel.
  EXPECT_EQ(count("30.0"), 0u) << text;
  EXPECT_EQ(count(" 0.0%"), 2u + 4u) << text;
  EXPECT_EQ(count("alexnet"), 0u) << text;
}

TEST(BenchRun, WindowMeanIsSamplesOverElapsedSimulatedTime) {
  pipeline::ExecutionReport report;
  report.batch_size = 10;
  report.iteration_end_times = {1.0, 2.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(bench::window_mean(report, 0, 2), 20.0 / 2.0);
  EXPECT_DOUBLE_EQ(bench::window_mean(report, 2, 4), 20.0 / 3.0);
  EXPECT_DOUBLE_EQ(bench::window_mean(report, 1, 2), 10.0 / 1.0);
  EXPECT_THROW(bench::window_mean(report, 2, 2), contract_error);
  EXPECT_THROW(bench::window_mean(report, 3, 5), contract_error);
}

TEST(SimulatorTimeseries, SamplingNeverPerturbsTheEventSequence) {
  const auto run = [](bool sample) {
    sim::Simulator simulator;
    if (sample) simulator.timeseries().configure(0.1);
    for (int i = 1; i <= 7; ++i) {
      simulator.at(0.07 * i, [&simulator, i] {
        simulator.metrics().add("test.events");
        simulator.metrics().set("test.last", static_cast<double>(i));
      });
    }
    simulator.run();
    return std::pair<std::uint64_t, std::uint64_t>(
        simulator.events_processed(), simulator.events_scheduled());
  };
  EXPECT_EQ(run(false), run(true));

  sim::Simulator simulator;
  simulator.timeseries().configure(0.1);
  simulator.at(0.05, [&simulator] { simulator.metrics().add("test.events"); });
  simulator.at(0.25, [&simulator] { simulator.metrics().add("test.events"); });
  simulator.run_until(0.4);
  simulator.timeseries().finalize(simulator.now(), simulator.metrics());

  const auto& samples = simulator.timeseries().samples();
  ASSERT_EQ(samples.size(), 5u);  // 0, 0.1, 0.2, 0.3, 0.4
  EXPECT_EQ(samples[0].values.count("test.events"), 0u);
  EXPECT_EQ(samples[1].values.at("test.events"), 1.0);  // t=0.1 saw t=0.05
  EXPECT_EQ(samples[2].values.at("test.events"), 1.0);
  EXPECT_EQ(samples[3].values.at("test.events"), 2.0);  // t=0.3 saw t=0.25
  EXPECT_EQ(samples.back().time, 0.4);
}

// ---------------------------------------------------------------------------
// Determinism across --jobs: the sweep half of the parity contract
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing artifact " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> timeseries_at_jobs(
    const std::vector<sweep::ScenarioSpec>& scenarios, std::size_t jobs,
    const std::string& directory) {
  ::mkdir(directory.c_str(), 0755);
  sweep::ArtifactOptions artifacts;
  artifacts.directory = directory;
  artifacts.timeseries_interval = 0.05;
  std::vector<sweep::ScenarioResult> results(scenarios.size());
  sweep::run_indexed(scenarios.size(), jobs, [&](std::size_t i) {
    results[i] = sweep::run_scenario(scenarios[i], artifacts);
  });
  std::vector<std::string> series;
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.timeseries_file.empty());
    series.push_back(slurp(r.timeseries_file));
  }
  return series;
}

TEST(TelemetryParity, TimeseriesBytesIdenticalAcrossThreadCounts) {
  // Churny autopipe scenarios at a fine cadence: any cross-thread leak into
  // the metrics registry or the sampler would shift a row. The heap/wheel
  // half of this contract runs in parity_test (50 seeds, timeseries_text
  // is part of parity::ScenarioResult).
  const sweep::SweepSpec spec = sweep::parse_sweep_spec(
      "model = alexnet; servers = 3; gpus-per-server = 1; churn = true;"
      "seed = 1..6; iterations = 12; warmup = 3");
  const std::vector<sweep::ScenarioSpec> scenarios = spec.expand();
  ASSERT_EQ(scenarios.size(), 6u);

  const std::string base = ::testing::TempDir() + "telemetry_parity";
  const auto serial = timeseries_at_jobs(scenarios, 1, base + ".j1");
  const auto threaded = timeseries_at_jobs(scenarios, 8, base + ".j8");
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].empty());
    EXPECT_NE(serial[i].find("autopipe-ts-v1"), std::string::npos);
    EXPECT_EQ(serial[i], threaded[i])
        << scenarios[i].label << " time-series diverged across --jobs";
  }
}

}  // namespace
}  // namespace autopipe
