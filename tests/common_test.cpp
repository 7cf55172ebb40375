// Unit tests for the common substrate: RNG determinism, statistics,
// contract macros, units and the table printer.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <vector>

#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace autopipe {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 10 && !differ; ++i)
    differ = a.uniform(0, 1) != b.uniform(0, 1);
  EXPECT_TRUE(differ);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(99);
  Rng child = parent.fork();
  // Child stream should not replay the parent's next draws.
  Rng parent_copy(99);
  (void)parent_copy.fork();
  EXPECT_DOUBLE_EQ(parent.uniform(0, 1), parent_copy.uniform(0, 1));
  (void)child;
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(3);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.weighted_index(w), 1u);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs = {3, -1, 7};
  EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 7.0);
}

TEST(Stats, EmptyInputsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), contract_error);
  EXPECT_THROW(percentile(empty, 50), contract_error);
}

TEST(Histogram, EmptyPercentilesAreZeroLikeSummary) {
  // The digest convention: an empty accumulator reads all-zero rather than
  // tripping a contract error — call sites digest whatever a run produced,
  // which may be nothing.
  const Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.p95(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.0);
  const Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(Histogram, SingleSampleIsEveryPercentile) {
  Histogram h;
  h.add(3.25);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.25);
  EXPECT_DOUBLE_EQ(h.p50(), 3.25);
  EXPECT_DOUBLE_EQ(h.p99(), 3.25);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 3.25);
  const Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 3.25);
  EXPECT_DOUBLE_EQ(s.max, 3.25);
  EXPECT_DOUBLE_EQ(s.p95, 3.25);
}

TEST(Histogram, PercentileInterpolatesAndTracksEdges) {
  Histogram h;
  for (double v : {4.0, 1.0, 3.0, 2.0}) h.add(v);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 4.0);
  EXPECT_DOUBLE_EQ(h.p50(), 2.5);
  EXPECT_DOUBLE_EQ(h.percentile(25.0), 1.75);
  EXPECT_THROW(h.percentile(-1.0), contract_error);
  EXPECT_THROW(h.percentile(100.5), contract_error);
}

TEST(Histogram, ResetRestoresEmptyConventions) {
  Histogram h;
  h.add(1.0);
  h.add(2.0);
  h.reset();
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Ema, FirstSampleWins) {
  Ema ema(0.5);
  EXPECT_TRUE(ema.empty());
  ema.add(10.0);
  EXPECT_DOUBLE_EQ(ema.value(), 10.0);
}

TEST(Ema, Smooths) {
  Ema ema(0.5);
  ema.add(10.0);
  ema.add(20.0);
  EXPECT_DOUBLE_EQ(ema.value(), 15.0);
  ema.reset();
  EXPECT_TRUE(ema.empty());
}

TEST(Ema, AlphaOneTracksLastSample) {
  Ema ema(1.0);
  ema.add(3.0);
  ema.add(8.0);
  EXPECT_DOUBLE_EQ(ema.value(), 8.0);
}

TEST(MetricsRolling, EmaSeedsWithFirstSampleThenSmooths) {
  trace::MetricsRegistry metrics;
  trace::RollingConfig config;
  config.ema_alpha = 0.5;
  metrics.set_rolling_config(config);
  EXPECT_DOUBLE_EQ(metrics.ema("err"), 0.0);  // untouched series reads 0
  metrics.observe("err", 10.0);
  EXPECT_DOUBLE_EQ(metrics.ema("err"), 10.0);
  metrics.observe("err", 20.0);
  EXPECT_DOUBLE_EQ(metrics.ema("err"), 15.0);
  metrics.observe("err", 5.0);
  EXPECT_DOUBLE_EQ(metrics.ema("err"), 10.0);
}

TEST(MetricsRolling, WindowMeanEvictsOldestBeyondLimit) {
  trace::MetricsRegistry metrics;
  trace::RollingConfig config;
  config.window = 3;
  metrics.set_rolling_config(config);
  metrics.observe("p", 1.0);
  metrics.observe("p", 2.0);
  EXPECT_DOUBLE_EQ(metrics.window_mean("p"), 1.5);
  metrics.observe("p", 3.0);
  EXPECT_DOUBLE_EQ(metrics.window_mean("p"), 2.0);
  metrics.observe("p", 10.0);  // evicts the 1.0
  EXPECT_DOUBLE_EQ(metrics.window_mean("p"), 5.0);
  EXPECT_EQ(metrics.observations("p"), 4u);  // lifetime count keeps evicted
}

TEST(MetricsRolling, ConfigAppliesToStreamsCreatedAfterChange) {
  trace::MetricsRegistry metrics;
  metrics.observe("before", 1.0);
  trace::RollingConfig config;
  config.window = 1;
  metrics.set_rolling_config(config);
  metrics.observe("before", 3.0);  // existing stream keeps its window
  metrics.observe("after", 1.0);
  metrics.observe("after", 3.0);
  EXPECT_DOUBLE_EQ(metrics.window_mean("before"), 2.0);
  EXPECT_DOUBLE_EQ(metrics.window_mean("after"), 3.0);
}

TEST(MetricsRolling, FlattenedMergesScalarsAndSeries) {
  trace::MetricsRegistry metrics;
  metrics.add("switch.count", 2.0);
  metrics.observe("calibration.ape", 0.5);
  metrics.observe("calibration.ape", 0.3);
  const auto flat = metrics.flattened();
  EXPECT_DOUBLE_EQ(flat.at("switch.count"), 2.0);
  EXPECT_DOUBLE_EQ(flat.at("calibration.ape.mean"), 0.4);
  EXPECT_DOUBLE_EQ(flat.at("calibration.ape.count"), 2.0);
  EXPECT_GT(flat.at("calibration.ape.ema"), 0.0);
  EXPECT_FALSE(metrics.empty());
  metrics.clear();
  EXPECT_TRUE(metrics.empty());
  EXPECT_EQ(metrics.observations("calibration.ape"), 0u);
}

TEST(MetricsNonFinite, AddAndSetSkipAndCountDrops) {
  trace::MetricsRegistry metrics;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  metrics.add("flow.bytes", 100.0);
  metrics.add("flow.bytes", nan);   // skipped, counter untouched
  metrics.add("flow.bytes", inf);
  EXPECT_DOUBLE_EQ(metrics.value("flow.bytes"), 100.0);
  metrics.set("speed", 5.0);
  metrics.set("speed", -inf);       // gauge keeps its previous value
  EXPECT_DOUBLE_EQ(metrics.value("speed"), 5.0);
  EXPECT_DOUBLE_EQ(
      metrics.value(trace::MetricsRegistry::kDroppedSamplesKey), 3.0);
}

TEST(MetricsNonFinite, ObserveSkipsAndSeriesStaysClean) {
  trace::MetricsRegistry metrics;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  metrics.observe("err", 2.0);
  metrics.observe("err", nan);  // EMA, window and count all untouched
  metrics.observe("err", 4.0);
  EXPECT_EQ(metrics.observations("err"), 2u);
  EXPECT_DOUBLE_EQ(metrics.window_mean("err"), 3.0);
  const auto flat = metrics.flattened();
  EXPECT_DOUBLE_EQ(flat.at("err.count"), 2.0);
  EXPECT_DOUBLE_EQ(
      flat.at(trace::MetricsRegistry::kDroppedSamplesKey), 1.0);
}

TEST(MetricsNonFinite, DroppedCounterVisibleInAllAndFlattened) {
  trace::MetricsRegistry metrics;
  EXPECT_FALSE(metrics.has(trace::MetricsRegistry::kDroppedSamplesKey));
  metrics.set("g", std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(metrics.has(trace::MetricsRegistry::kDroppedSamplesKey));
  EXPECT_DOUBLE_EQ(
      metrics.all().at(trace::MetricsRegistry::kDroppedSamplesKey), 1.0);
}

TEST(RunningStats, MatchesBatch) {
  RunningStats rs;
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
}

TEST(Expect, ThrowsWithMessage) {
  try {
    AUTOPIPE_EXPECT_MSG(false, "value=" << 42);
    FAIL() << "should have thrown";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("value=42"), std::string::npos);
  }
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(gbps(8), 1e9);           // 8 gigabits = 1 GB/s
  EXPECT_DOUBLE_EQ(kib(1), 1024.0);
  EXPECT_DOUBLE_EQ(mib(1), 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(gflop(1), 1e9);
  EXPECT_DOUBLE_EQ(tflops(1), 1e12);
  EXPECT_DOUBLE_EQ(millis(1500), 1.5);
}

TEST(TextTable, RendersAlignedRows) {
  TextTable t({"model", "speed"});
  t.add_row({"vgg16", TextTable::num(12.345, 1)});
  const std::string s = t.render("demo");
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("vgg16"), std::string::npos);
  EXPECT_NE(s.find("12.3"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(TextTable, RejectsWrongWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), contract_error);
}


TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"tool", "--alpha=3.5", "--name", "vgg16",
                        "--verbose"};
  Flags flags(5, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0), 3.5);
  EXPECT_EQ(flags.get("name", ""), "vgg16");
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_int("missing", 7), 7);
  EXPECT_TRUE(flags.has("alpha"));
  EXPECT_FALSE(flags.has("beta"));
}

TEST(Flags, RejectsMalformedInput) {
  const char* bad[] = {"tool", "positional"};
  EXPECT_THROW(Flags(2, bad), contract_error);
  const char* nonnum[] = {"tool", "--x=abc"};
  Flags flags(2, nonnum);
  EXPECT_THROW(flags.get_double("x", 0), contract_error);
  EXPECT_THROW(flags.get_int("x", 0), contract_error);
  EXPECT_THROW(flags.get_count("x", 0), contract_error);
  const char* negative[] = {"tool", "--servers=-1"};
  const Flags counts(2, negative);
  EXPECT_EQ(counts.get_int("servers", 0), -1);
  try {
    counts.get_count("servers", 5);
    FAIL() << "negative count accepted";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("--servers expects a non-negative "
                                         "integer, got -1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(counts.get_count("missing", 5), 5u);
  // An empty value is not 0, and a non-finite number is not a number; the
  // message names the flag.
  const char* empty_or_nonfinite[] = {"tool", "--warmup=", "--drop=nan",
                                      "--rate=inf", "--iters=1.2e1"};
  const Flags odd(5, empty_or_nonfinite);
  for (const char* name : {"warmup", "drop", "rate", "iters"})
    EXPECT_THROW(odd.get_int(name, 3), contract_error) << name;
  for (const char* name : {"warmup", "drop", "rate"}) {
    try {
      odd.get_double(name, 3.0);
      FAIL() << "--" << name << " accepted";
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + name),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(odd.get_double("iters", 0.0), 12.0);
  EXPECT_THROW(odd.get_count("warmup", 3), contract_error);
}

TEST(Flags, TracksUnusedFlags) {
  const char* argv[] = {"tool", "--used=1", "--typo=2"};
  Flags flags(3, argv);
  (void)flags.get_int("used", 0);
  const auto unused = flags.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

}  // namespace
}  // namespace autopipe
