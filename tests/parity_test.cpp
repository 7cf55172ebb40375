// Differential parity tier (ctest label `parity`): the timing-wheel event
// queue must be *observationally identical* to the reference binary heap.
// Full AutoPipe scenarios — executor + controller + seeded random fault
// plans + background-tenant churn — run once per queue kind and every
// artifact is compared byte-for-byte: trace text, decision ledger, metrics,
// iteration end times (bit-exact doubles) and the push/pop counters.
//
// 50 seeds × (faults + churn) is the acceptance bar for the core rewrite;
// a handful of structural cases (fault-free, churn-free, golden scenario)
// pin down the axes separately.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "golden_scenario.hpp"
#include "parity/differential.hpp"

namespace autopipe {
namespace {

using parity::Divergence;
using parity::ScenarioConfig;
using parity::ScenarioResult;

// ---------------------------------------------------------------------------
// Seeded differential sweep: the acceptance bar
// ---------------------------------------------------------------------------

class ParitySeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParitySeeds, HeapAndWheelAreByteIdentical) {
  ScenarioConfig config;
  config.seed = GetParam();
  config.inject_faults = true;
  config.background_churn = true;
  const Divergence d = parity::run_differential(config);
  EXPECT_TRUE(d.identical) << d.report;
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, ParitySeeds,
                         ::testing::Range<std::uint64_t>(1, 51));

// Mid-switch fault split: the seed picks the protocol phase, fault kind and
// switch mode of a crash point armed against a deterministic mid-run switch,
// so aborted, rolled-back, retried and abandoned switches are all inside the
// byte-for-byte heap-vs-wheel contract.
class ParityMidSwitchSeeds : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ParityMidSwitchSeeds, AbortedSwitchRunsAreByteIdentical) {
  ScenarioConfig config;
  config.seed = GetParam();
  config.inject_faults = false;  // the crash point is the only fault source
  config.background_churn = true;
  config.mid_switch_faults = true;
  const Divergence d = parity::run_differential(config);
  EXPECT_TRUE(d.identical) << d.report;
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, ParityMidSwitchSeeds,
                         ::testing::Range<std::uint64_t>(1, 51));

// The 50-seed sweeps above diff causal edges through compare(); this pins
// the artifact itself — a regression that stops stamping eids would make
// causal_text empty-vs-empty "identical" while gutting the contract.
TEST_P(ParitySeeds, CausalEdgesAreByteIdenticalAndPresent) {
  ScenarioConfig config;
  config.seed = GetParam();
  config.inject_faults = true;
  config.background_churn = true;
  const ScenarioResult heap =
      parity::run_scenario(config, sim::EventQueueKind::kHeap);
  const ScenarioResult wheel =
      parity::run_scenario(config, sim::EventQueueKind::kWheel);
  ASSERT_FALSE(heap.causal_text.empty());
  EXPECT_EQ(heap.causal_text, wheel.causal_text);
}

// ---------------------------------------------------------------------------
// Co-tenant fleet split: N jobs under the greedy-arbiter JobManager on one
// fabric, with chaos faults and churn on top. Arbitration rides the event
// queue (claim windows, deny-then-abort follow-ups), so a queue that
// reorders same-time events would flip winners and diverge loudly here.
// ---------------------------------------------------------------------------

class ParityFleetSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParityFleetSeeds, TwoJobFleetIsByteIdentical) {
  ScenarioConfig config;
  config.seed = GetParam();
  config.inject_faults = true;
  config.background_churn = true;
  config.fleet_jobs = 2;
  const Divergence d = parity::run_differential(config);
  EXPECT_TRUE(d.identical) << d.report;
}

TEST_P(ParityFleetSeeds, EightJobFleetIsByteIdentical) {
  ScenarioConfig config;
  config.seed = GetParam();
  config.inject_faults = true;
  config.background_churn = true;
  config.fleet_jobs = 8;
  const Divergence d = parity::run_differential(config);
  EXPECT_TRUE(d.identical) << d.report;
}

INSTANTIATE_TEST_SUITE_P(FleetSeeds, ParityFleetSeeds,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Structural cases: each chaos axis alone
// ---------------------------------------------------------------------------

TEST(Parity, FaultFreeScenarioIsByteIdentical) {
  ScenarioConfig config;
  config.seed = 7;
  config.inject_faults = false;
  config.background_churn = false;
  const Divergence d = parity::run_differential(config);
  EXPECT_TRUE(d.identical) << d.report;
}

TEST(Parity, FaultsOnlyScenarioIsByteIdentical) {
  ScenarioConfig config;
  config.seed = 11;
  config.inject_faults = true;
  config.background_churn = false;
  const Divergence d = parity::run_differential(config);
  EXPECT_TRUE(d.identical) << d.report;
}

TEST(Parity, ChurnOnlyScenarioIsByteIdentical) {
  ScenarioConfig config;
  config.seed = 13;
  config.inject_faults = false;
  config.background_churn = true;
  const Divergence d = parity::run_differential(config);
  EXPECT_TRUE(d.identical) << d.report;
}

TEST(Parity, SameSeedReplaysByteIdenticalPerQueue) {
  // Determinism within one queue kind is a precondition for the
  // cross-queue comparison to mean anything.
  ScenarioConfig config;
  config.seed = 17;
  for (const auto kind :
       {sim::EventQueueKind::kHeap, sim::EventQueueKind::kWheel}) {
    const ScenarioResult a = parity::run_scenario(config, kind);
    const ScenarioResult b = parity::run_scenario(config, kind);
    const Divergence d = parity::compare(a, b);
    EXPECT_TRUE(d.identical) << a.queue_name << " replay diverged:\n"
                             << d.report;
  }
}

TEST(Parity, DivergenceReportNamesFirstDifference) {
  ScenarioResult a;
  a.trace_text = "line one\nline two\n";
  a.metrics_text = "m=1\n";
  ScenarioResult b = a;
  b.trace_text = "line one\nline 2\n";
  const Divergence d = parity::compare(a, b);
  ASSERT_FALSE(d.identical);
  EXPECT_NE(d.report.find("trace: first divergence at line 2"),
            std::string::npos);
  EXPECT_NE(d.report.find("line two"), std::string::npos);
  EXPECT_NE(d.report.find("line 2"), std::string::npos);
}

TEST(Parity, DivergenceDumpHoldsEveryComparedTextAndTheReport) {
  ScenarioResult heap;
  heap.trace_text = "trace\n";
  heap.ledger_text = "ledger\n";
  heap.metrics_text = "m=1\n";
  heap.timeseries_text = "series\n";
  heap.causal_text = "1<-0 mark:a\n";
  ScenarioResult wheel = heap;
  wheel.causal_text = "1<-0 mark:b\n";
  const Divergence d = parity::compare(heap, wheel);
  ASSERT_FALSE(d.identical);

  const std::string dir = ::testing::TempDir() + "parity_dump/nested";
  parity::write_divergence(dir, "seed7", heap, wheel, d.report);
  const auto slurp = [&dir](const std::string& name) {
    std::ifstream in(dir + "/seed7." + name);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  };
  EXPECT_EQ(slurp("report.txt"), d.report);
  for (const auto& [queue, run] :
       {std::pair<std::string, const ScenarioResult*>{"heap", &heap},
        std::pair<std::string, const ScenarioResult*>{"wheel", &wheel}}) {
    EXPECT_EQ(slurp(queue + ".trace"), run->trace_text);
    EXPECT_EQ(slurp(queue + ".ledger"), run->ledger_text);
    EXPECT_EQ(slurp(queue + ".metrics"), run->metrics_text);
    EXPECT_EQ(slurp(queue + ".timeseries"), run->timeseries_text);
    EXPECT_EQ(slurp(queue + ".causal"), run->causal_text);
  }
}

// ---------------------------------------------------------------------------
// The committed golden under both queues
// ---------------------------------------------------------------------------

TEST(Parity, GoldenScenarioIdenticalUnderBothQueues) {
  const auto heap =
      test_scenarios::run_golden_scenario(sim::EventQueueKind::kHeap);
  const auto wheel =
      test_scenarios::run_golden_scenario(sim::EventQueueKind::kWheel);
  EXPECT_FALSE(heap.text.empty());
  EXPECT_EQ(heap.text, wheel.text);
}

TEST(Parity, GoldenScenarioWheelMatchesCheckedInGolden) {
  // The committed golden predates the timing wheel; matching it under the
  // wheel is the semantic-preservation proof for the core rewrite. This
  // test never regenerates — a mismatch means the rewrite changed
  // semantics and must be investigated, not re-recorded.
  const std::string path =
      std::string(AUTOPIPE_GOLDEN_DIR) + "/bandwidth_drop.trace";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  const auto wheel =
      test_scenarios::run_golden_scenario(sim::EventQueueKind::kWheel);
  EXPECT_EQ(wheel.text, golden.str());
}

}  // namespace
}  // namespace autopipe
