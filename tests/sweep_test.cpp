// Sweep tier (ctest label `sweep`): spec parsing and grid expansion, the
// fan-out engine's index/exception contract, the gate (analysis/gate.hpp)
// over sweep and profile reports and every committed bench/baselines file,
// and the headline determinism guarantee — the same spec produces
// byte-identical BENCH_sweep.json at every thread count, checked over a
// 50-seed grid.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/gate.hpp"
#include "analysis/profile_report.hpp"
#include "common/expect.hpp"
#include "sweep/engine.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace autopipe::sweep {
namespace {

// ---------------------------------------------------------------------------
// Spec parsing and expansion
// ---------------------------------------------------------------------------

TEST(SweepSpec, EmptyTextExpandsToSingleDefaultScenario) {
  const SweepSpec spec = parse_sweep_spec("");
  EXPECT_EQ(spec.scenario_count(), 1u);
  const std::vector<ScenarioSpec> scenarios = spec.expand();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].model, "resnet50");
  EXPECT_EQ(scenarios[0].system, "autopipe");
  EXPECT_EQ(scenarios[0].label, "resnet50.autopipe.s5x2.bw25.j0.c0.f0.seed1");
}

TEST(SweepSpec, ParsesListsRangesCommentsAndSemicolons) {
  const SweepSpec spec = parse_sweep_spec(
      "# a comment line; with a semicolon that must not start a statement\n"
      "model = alexnet, vgg16  # trailing comments work too\n"
      "system = autopipe, even; servers = 3\n"
      "seed = 1..3, 10\n"
      "iterations = 20; warmup = 5\n");
  EXPECT_EQ(spec.models, (std::vector<std::string>{"alexnet", "vgg16"}));
  EXPECT_EQ(spec.systems, (std::vector<std::string>{"autopipe", "even"}));
  EXPECT_EQ(spec.servers, (std::vector<std::size_t>{3}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2, 3, 10}));
  EXPECT_EQ(spec.iterations, 20u);
  EXPECT_EQ(spec.warmup, 5u);
  EXPECT_EQ(spec.scenario_count(), 2u * 2u * 4u);
}

TEST(SweepSpec, ExpansionNestsAxesInDocumentedOrder) {
  const SweepSpec spec = parse_sweep_spec(
      "model = alexnet, vgg16; servers = 2, 3; seed = 1..2;"
      "gpus-per-server = 1");
  const std::vector<ScenarioSpec> scenarios = spec.expand();
  ASSERT_EQ(scenarios.size(), 8u);
  // model outermost, then servers, seed innermost.
  EXPECT_EQ(scenarios[0].label, "alexnet.autopipe.s2x1.bw25.j0.c0.f0.seed1");
  EXPECT_EQ(scenarios[1].label, "alexnet.autopipe.s2x1.bw25.j0.c0.f0.seed2");
  EXPECT_EQ(scenarios[2].label, "alexnet.autopipe.s3x1.bw25.j0.c0.f0.seed1");
  EXPECT_EQ(scenarios[4].label, "vgg16.autopipe.s2x1.bw25.j0.c0.f0.seed1");
  EXPECT_EQ(scenarios[7].label, "vgg16.autopipe.s3x1.bw25.j0.c0.f0.seed2");
  // Labels are unique — they key the baseline map.
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    for (std::size_t j = i + 1; j < scenarios.size(); ++j)
      EXPECT_NE(scenarios[i].label, scenarios[j].label);
}

TEST(SweepSpec, ScheduleTakesExactlyThePipelineNames) {
  for (const char* name : {"1f1b", "gpipe", "dapple", "chimera", "2bw"})
    EXPECT_EQ(parse_sweep_spec(std::string("schedule = ") + name).schedule,
              name);
  EXPECT_THROW(parse_sweep_spec("schedule = foo"), contract_error);
}

TEST(SweepSpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_sweep_spec("modle = resnet50"), contract_error);
  EXPECT_THROW(parse_sweep_spec("model = not-a-model"), contract_error);
  EXPECT_THROW(parse_sweep_spec("system = magic"), contract_error);
  EXPECT_THROW(parse_sweep_spec("schedule = lifo"), contract_error);
  EXPECT_THROW(parse_sweep_spec("seed = 9..3"), contract_error);
  EXPECT_THROW(parse_sweep_spec("seed = 1..9999999"), contract_error);
  EXPECT_THROW(parse_sweep_spec("servers ="), contract_error);
  EXPECT_THROW(parse_sweep_spec("servers = two"), contract_error);
  EXPECT_THROW(parse_sweep_spec("iterations = 10; warmup = 10"),
               contract_error);
}

TEST(SweepSpec, DuplicateAxisKeyNamesBothLines) {
  // Regression: a repeated axis key used to silently overwrite the earlier
  // value list. The diagnostic must name the key and both source lines so a
  // grid author can find the clash in a long spec file.
  try {
    parse_sweep_spec("model = alexnet\nseed = 1\nmodel = vgg16");
    FAIL() << "duplicate axis key accepted";
  } catch (const contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate key 'model'"), std::string::npos) << what;
    EXPECT_NE(what.find("lines 1 and 3"), std::string::npos) << what;
    EXPECT_NE(what.find("merge the value lists"), std::string::npos) << what;
  }
  // ';' statements on one physical line clash under that line's number.
  EXPECT_THROW(parse_sweep_spec("seed = 1; seed = 2"), contract_error);
  // The same key spread across a comment-bearing line still reports the
  // pre-comment line number.
  try {
    parse_sweep_spec("arbiter = greedy  # policy\njobs = 2\narbiter = auction");
    FAIL() << "duplicate axis key accepted";
  } catch (const contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate key 'arbiter'"), std::string::npos) << what;
    EXPECT_NE(what.find("lines 1 and 3"), std::string::npos) << what;
  }
}

TEST(SweepSpec, LoadResolvesInlineTextAndFiles) {
  EXPECT_EQ(load_sweep_spec("seed = 1..4").seeds.size(), 4u);

  const std::string path = ::testing::TempDir() + "sweep_spec_test.sweep";
  {
    std::ofstream out(path);
    out << "model = alexnet\nseed = 1..2\n";
  }
  const SweepSpec spec = load_sweep_spec("@" + path);
  EXPECT_EQ(spec.models, (std::vector<std::string>{"alexnet"}));
  EXPECT_EQ(spec.seeds.size(), 2u);

  EXPECT_THROW(load_sweep_spec("@/nonexistent/grid.sweep"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Fan-out engine
// ---------------------------------------------------------------------------

TEST(RunIndexed, ResolvesJobCounts) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), 7u);
}

TEST(RunIndexed, CoversEveryIndexExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    const std::size_t count = 257;
    std::vector<std::atomic<int>> hits(count);
    run_indexed(count, jobs, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
  }
}

TEST(RunIndexed, ZeroCountIsANoOp) {
  run_indexed(0, 8, [&](std::size_t) { FAIL() << "body ran"; });
}

TEST(RunIndexed, LowestFailingIndexIsRethrownAfterAllIndicesRun) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    const std::size_t count = 64;
    std::vector<std::atomic<int>> hits(count);
    try {
      run_indexed(count, jobs, [&](std::size_t i) {
        ++hits[i];
        if (i == 3 || i == 10 || i == 57)
          throw std::runtime_error("boom at index " + std::to_string(i));
      });
      FAIL() << "run_indexed swallowed the failure (jobs " << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at index 3") << "jobs " << jobs;
    }
    // Later indices still ran — a failure does not cancel the sweep.
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
  }
}

// ---------------------------------------------------------------------------
// Report round trip and the gate
// ---------------------------------------------------------------------------

ScenarioResult ok_result(const std::string& label, double throughput) {
  ScenarioResult r;
  r.spec.label = label;
  r.ok = true;
  r.throughput = throughput;
  r.utilization = 0.5;
  r.batch = 32;
  return r;
}

ScenarioResult failed_result(const std::string& label) {
  ScenarioResult r;
  r.spec.label = label;
  r.ok = false;
  r.error = "executor exploded";
  return r;
}

/// A sweep as `autopipe_trace gate` sees it: its BENCH_sweep.json, read back.
analysis::GateValues gate_values(const SweepResult& sweep) {
  std::ostringstream os;
  write_bench_json(sweep, os, /*include_timing=*/false);
  std::istringstream in(os.str());
  return analysis::read_gate_values(in);
}

analysis::GateValues sweep_baseline(
    std::map<std::string, std::optional<double>> values) {
  return {&analysis::gate_policy("autopipe-sweep-v1"), std::move(values)};
}

std::map<std::string, std::string> verdicts(
    const analysis::GateResult& result) {
  std::map<std::string, std::string> out;
  for (const analysis::GateRow& row : result.rows) out[row.id] = row.verdict;
  return out;
}

TEST(BenchJson, BaselineThroughputRoundTrips) {
  SweepResult sweep;
  sweep.scenarios.push_back(ok_result("grid.a", 123.5));
  sweep.scenarios.push_back(failed_result("grid.broken"));
  sweep.scenarios.push_back(ok_result("grid.b", 77.25));

  std::ostringstream os;
  write_bench_json(sweep, os, /*include_timing=*/false);
  EXPECT_EQ(os.str().find("\"timing\""), std::string::npos);

  const analysis::GateValues values = gate_values(sweep);
  EXPECT_EQ(values.policy->value_key, "throughput");
  ASSERT_EQ(values.values.size(), 3u);
  EXPECT_DOUBLE_EQ(values.values.at("grid.a").value(), 123.5);
  EXPECT_DOUBLE_EQ(values.values.at("grid.b").value(), 77.25);
  // The failed scenario is listed but has no throughput.
  EXPECT_FALSE(values.values.at("grid.broken").has_value());
}

TEST(BenchJson, BaselineReaderRejectsNonSweepInput) {
  const auto rejects = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW(analysis::read_gate_values(in), std::runtime_error) << text;
  };
  rejects("");
  rejects("{\n  \"schema\": \"something-else\"\n}\n");
  rejects("{\n  \"schema\": \"autopipe-sweep-v1\"\n}\n");  // no entries
  // Not one member per line, as JsonWriter writes.
  rejects("{\"schema\": \"autopipe-sweep-v1\", \"scenarios\": []}\n");

  SweepResult sweep;
  sweep.scenarios.push_back(ok_result("grid.a", 123.5));
  std::ostringstream os;
  write_bench_json(sweep, os, /*include_timing=*/false);
  const std::string whole = os.str();
  rejects(whole.substr(0, whole.find("\"utilization\"")));  // truncated
  std::string bad_number = whole;
  bad_number.replace(bad_number.find("123.5"), 5, "12x");
  rejects(bad_number);
}

TEST(Gate, PassesWhenEveryScenarioIsWithinTolerance) {
  SweepResult sweep;
  sweep.scenarios.push_back(ok_result("a", 95.0));
  sweep.scenarios.push_back(ok_result("b", 200.0));
  const analysis::GateResult result = analysis::gate(
      gate_values(sweep), sweep_baseline({{"a", 100.0}, {"b", 180.0}}));
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.rows.size(), 2u);
}

TEST(Gate, FlagsRegressionsMissingScenariosAndFailures) {
  SweepResult sweep;
  sweep.scenarios.push_back(ok_result("slow", 80.0));  // below 90% of 100
  sweep.scenarios.push_back(failed_result("broken"));
  const analysis::GateResult result = analysis::gate(
      gate_values(sweep),
      sweep_baseline({{"slow", 100.0}, {"broken", 50.0}, {"gone", 10.0}}));
  EXPECT_FALSE(result.ok());
  const auto by_id = verdicts(result);
  ASSERT_EQ(by_id.size(), 3u);
  EXPECT_EQ(by_id.at("slow"), "regression");
  EXPECT_EQ(by_id.at("broken"), "no value");  // the scenario failed
  EXPECT_EQ(by_id.at("gone"), "missing");     // the sweep never ran it

  std::ostringstream os;
  analysis::write_gate_result(result, os);
  EXPECT_NE(os.str().find("FAILED"), std::string::npos);
}

TEST(Gate, ScenariosAbsentFromBaselinePassUnexamined) {
  SweepResult sweep;
  sweep.scenarios.push_back(ok_result("old", 100.0));
  sweep.scenarios.push_back(ok_result("brand-new", 0.001));
  const analysis::GateResult result =
      analysis::gate(gate_values(sweep), sweep_baseline({{"old", 100.0}}));
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.rows.size(), 1u);
}

TEST(Gate, ProfileNsPerCallFailsAboveItsCeiling) {
  // Lower is better: the bound is a ceiling at baseline * 1.15.
  analysis::ProfileReport profile;
  profile.spans.push_back({"planner/decide_round", 10, 11000, 11000, false});
  profile.spans.push_back({"planner/solve", 10, 12000, 12000, false});
  std::ostringstream os;
  analysis::write_profile_json(profile, os);
  std::istringstream in(os.str());
  const analysis::GateValues report = analysis::read_gate_values(in);
  const analysis::GatePolicy& policy =
      analysis::gate_policy("autopipe-profile-report-v1");
  EXPECT_FALSE(policy.higher_is_better);
  EXPECT_EQ(policy.id_key, "name");

  const auto result = analysis::gate(
      report, {&policy,
               {{"planner/decide_round", 1000.0}, {"planner/solve", 1000.0}}});
  const auto by_id = verdicts(result);
  EXPECT_EQ(by_id.at("planner/decide_round"), "ok");   // +10%
  EXPECT_EQ(by_id.at("planner/solve"), "regression");  // +20%
  EXPECT_DOUBLE_EQ(result.rows.front().limit, 1150.0);
}

TEST(Gate, SchemaMismatchIsAnError) {
  SweepResult sweep;
  sweep.scenarios.push_back(ok_result("J1.greedy", 100.0));
  const analysis::GateValues cotenancy{
      &analysis::gate_policy("autopipe-cotenancy-v1"), {{"J1.greedy", 100.0}}};
  EXPECT_THROW(analysis::gate(gate_values(sweep), cotenancy),
               std::runtime_error);
  EXPECT_THROW(analysis::gate_policy("autopipe-sweep-v2"), std::runtime_error);
}

/// Every committed baseline gates clean against itself and carries the
/// bound its CI job relies on; loosening a bound means editing this test.
TEST(CommittedBaselines, ParseGateCleanAndCarryTheirBounds) {
  const std::map<std::string, std::pair<std::string, double>> expected = {
      {"sweep_smoke_baseline.json", {"autopipe-sweep-v1", 0.10}},
      {"cotenancy_baseline.json", {"autopipe-cotenancy-v1", 0.10}},
      {"telemetry_planner_baseline.json",
       {"autopipe-profile-report-v1", 0.15}},
  };
  std::set<std::string> seen;
  for (const auto& entry :
       std::filesystem::directory_iterator(AUTOPIPE_BASELINE_DIR)) {
    if (entry.path().extension() != ".json") continue;
    const std::string name = entry.path().filename().string();
    SCOPED_TRACE(name);
    seen.insert(name);
    const analysis::GateValues baseline =
        analysis::read_gate_file(entry.path().string());
    const analysis::GateResult self = analysis::gate(baseline, baseline);
    EXPECT_TRUE(self.ok());
    EXPECT_FALSE(self.rows.empty());
    ASSERT_EQ(expected.count(name), 1u) << "no expected bound for " << name;
    EXPECT_EQ(baseline.policy->schema, expected.at(name).first);
    EXPECT_DOUBLE_EQ(baseline.policy->tolerance, expected.at(name).second);
  }
  EXPECT_EQ(seen.size(), expected.size());

  const analysis::GateValues sweep = analysis::read_gate_file(
      std::string(AUTOPIPE_BASELINE_DIR) + "/sweep_smoke_baseline.json");
  EXPECT_TRUE(sweep.policy->higher_is_better);
  EXPECT_EQ(sweep.policy->value_key, "throughput");
  const analysis::GateValues fleet = analysis::read_gate_file(
      std::string(AUTOPIPE_BASELINE_DIR) + "/cotenancy_baseline.json");
  EXPECT_TRUE(fleet.policy->higher_is_better);
  EXPECT_EQ(fleet.policy->value_key, "fleet_throughput");
  const analysis::GateValues planner = analysis::read_gate_file(
      std::string(AUTOPIPE_BASELINE_DIR) +
      "/telemetry_planner_baseline.json");
  EXPECT_FALSE(planner.policy->higher_is_better);
  ASSERT_EQ(planner.values.size(), 1u);
  EXPECT_EQ(planner.values.at("planner/decide_round"), 65000.0);
}

// ---------------------------------------------------------------------------
// The headline guarantee: thread count never changes the report
// ---------------------------------------------------------------------------

std::string bench_json_at_jobs(const std::vector<ScenarioSpec>& scenarios,
                               std::size_t jobs) {
  SweepResult sweep;
  sweep.scenarios.resize(scenarios.size());
  run_indexed(scenarios.size(), jobs, [&](std::size_t i) {
    sweep.scenarios[i] = run_scenario(scenarios[i]);
  });
  sweep.jobs = jobs;
  std::ostringstream os;
  write_bench_json(sweep, os, /*include_timing=*/false);
  return os.str();
}

TEST(SweepDeterminism, ByteIdenticalBenchJsonAcrossThreadCounts) {
  // 50 seeds of a churny autopipe run — enough scheduling freedom that any
  // cross-scenario leak (shared state, output racing) would show up as a
  // diff between thread counts.
  const SweepSpec spec = parse_sweep_spec(
      "model = alexnet; servers = 3; gpus-per-server = 1; churn = true;"
      "seed = 1..50; iterations = 12; warmup = 3");
  const std::vector<ScenarioSpec> scenarios = spec.expand();
  ASSERT_EQ(scenarios.size(), 50u);

  const std::string serial = bench_json_at_jobs(scenarios, 1);
  EXPECT_NE(serial.find("\"schema\": \"autopipe-sweep-v1\""),
            std::string::npos);
  EXPECT_EQ(serial, bench_json_at_jobs(scenarios, 2));
  EXPECT_EQ(serial, bench_json_at_jobs(scenarios, 8));
}

}  // namespace
}  // namespace autopipe::sweep
