// Sweep tier (ctest label `sweep`): spec parsing and grid expansion, the
// fan-out engine's index/exception contract, the gate (analysis/gate.hpp)
// over sweep and profile reports and every committed bench/baselines file,
// the run-output layer every driver writes its files through
// (sweep/outputs.hpp), the one scenario builder every run goes through
// (sweep/runner.hpp), and the headline determinism guarantee — the same
// spec produces byte-identical BENCH_sweep.json at every thread count,
// checked over a 50-seed grid and over faulted co-tenant fleets.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/gate.hpp"
#include "analysis/ledger_reader.hpp"
#include "analysis/profile_report.hpp"
#include "analysis/timeseries_reader.hpp"
#include "cluster/jobs_spec.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/profile.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"
#include "sweep/engine.hpp"
#include "sweep/outputs.hpp"
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

TEST(SweepSpec, JobsAxisExpandsToTheFleetAJobsSpecWrites) {
  const std::vector<ScenarioSpec> scenarios =
      parse_sweep_spec(
          "model = resnet50; jobs = 1, 3; job-models = alexnet+vgg16;"
          "arbiter = auction; iterations = 25; warmup = 4")
          .expand();
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].fleet, cluster::FleetSpec{});
  const cluster::FleetSpec& fleet = scenarios[1].fleet;
  ASSERT_EQ(fleet.jobs.size(), 3u);
  EXPECT_EQ(fleet.arbiter, "auction");
  EXPECT_EQ(fleet.jobs[0].model, "alexnet");
  EXPECT_EQ(fleet.jobs[1].model, "vgg16");
  EXPECT_EQ(fleet.jobs[2].model, "alexnet");
  EXPECT_EQ(fleet.jobs[2].iterations, 25u);
  EXPECT_EQ(fleet.jobs[2].warmup, 4u);
  EXPECT_EQ(fleet, cluster::parse_jobs_spec(
                       "arbiter = auction\n"
                       "job = model=alexnet iterations=25 warmup=4\n"
                       "job = model=vgg16 iterations=25 warmup=4\n"
                       "job = model=alexnet iterations=25 warmup=4\n"));
  // Without job-models every job trains the scenario's model.
  const std::vector<ScenarioSpec> plain =
      parse_sweep_spec("model = vgg16; jobs = 2").expand();
  ASSERT_EQ(plain[0].fleet.jobs.size(), 2u);
  for (const cluster::JobSpec& job : plain[0].fleet.jobs)
    EXPECT_EQ(job.model, "vgg16");
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
  // Numbers are finite and integers are whole decimal tokens.
  for (const char* bad :
       {"bandwidth = inf", "bandwidth = nan", "bandwidth = 1e999",
        "bandwidth = 25x", "iterations = 1.2e1", "iterations = 12.0",
        "servers = -2", "seed = 18446744073709551616"})
    EXPECT_THROW(parse_sweep_spec(bad), contract_error) << bad;
  // A seed past 2^53 keeps every digit instead of rounding through double.
  EXPECT_EQ(parse_sweep_spec("seed = 9007199254740993").seeds,
            (std::vector<std::uint64_t>{9007199254740993ull}));
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
// Run outputs: the files every driver names, enables and writes the same way
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "run_outputs_" + name;
}

bool is_json(const std::string& text) {
  return !text.empty() && (text[0] == '{' || text[0] == '[');
}

/// The message `action` throws std::runtime_error with; "" if it does not.
std::string error_of(const std::function<void()>& action) {
  try {
    action();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// Run `simulator` through one traced instant and one metric at t = 0.25.
void run_briefly(sim::Simulator& simulator) {
  simulator.at(0.25, [&simulator] {
    simulator.metrics().add("test.events");
    simulator.tracer().instant(trace::Category::kMark, "tick",
                               simulator.now(), 1001, 0);
  });
  simulator.run();
}

TEST(RunOutputs, IntervalSplitsOffOnlyAsAPositiveNumber) {
  using Split = std::pair<std::string, double>;
  EXPECT_EQ(split_interval("run.ts:0.5"), Split("run.ts", 0.5));
  EXPECT_EQ(split_interval("run.ts"), Split("run.ts", 1.0));
  // A colon in a directory name is not an interval.
  EXPECT_EQ(split_interval("out:dir/run.ts"), Split("out:dir/run.ts", 1.0));
  for (const char* spec : {"run.ts:0", "run.ts:-1", "run.ts:x", "run.ts:"})
    EXPECT_EQ(split_interval(spec), Split(spec, 1.0)) << spec;

  const char* argv[] = {"tool", "--timeseries=out:dir/run.ts:0.25",
                        "--trace", "run.json"};
  const RunOutputs outputs(Flags(4, argv));
  EXPECT_EQ(outputs.timeseries, "out:dir/run.ts");
  EXPECT_EQ(outputs.timeseries_interval, 0.25);
  EXPECT_EQ(outputs.trace, "run.json");
  EXPECT_TRUE(outputs.metrics.empty());
  EXPECT_TRUE(outputs.ledger.empty());
}

TEST(RunOutputs, LabelIsSplicedInBeforeTheExtension) {
  EXPECT_EQ(splice_label("fig3.trace", "vgg16_25gbps"),
            "fig3.vgg16_25gbps.trace");
  EXPECT_EQ(splice_label("out/fig3", "a"), "out/fig3.a");
  EXPECT_EQ(splice_label("out.d/fig3", "a"), "out.d/fig3.a");
  EXPECT_EQ(splice_label("out.d/fig3.json", "a"), "out.d/fig3.a.json");
  EXPECT_EQ(splice_label("fig3.trace", "a b/c:d"), "fig3.a_b_c_d.trace");
  EXPECT_EQ(splice_label("fig3.trace", "x.y-z_9"), "fig3.x.y-z_9.trace");
  EXPECT_EQ(splice_label("fig3.trace", ""), "fig3.trace");
}

TEST(RunOutputs, FileNamePicksTheTraceAndProfileFormat) {
  sim::Simulator simulator;
  RunOutputs traced;
  traced.trace = temp_path("enable.trace");
  traced.enable(simulator);
  run_briefly(simulator);
  const auto written_trace = [&simulator](const std::string& name) {
    RunOutputs outputs;
    outputs.trace = temp_path(name);
    outputs.write(simulator);
    return slurp(outputs.trace);
  };
  for (const char* name : {"t.trace", "t.txt"}) {
    const std::string text = written_trace(name);
    EXPECT_FALSE(is_json(text)) << name;
    EXPECT_NE(text.find(" mark i tick "), std::string::npos) << name;
  }
  for (const char* name : {"t.json", "t.trace.out", "t"})
    EXPECT_TRUE(is_json(written_trace(name))) << name;

  const auto written_profile = [](const std::string& name) {
    const std::string path = temp_path(name);
    start_profile(path);
    { PROF_SPAN("test/span"); }
    std::ostringstream log;
    EXPECT_FALSE(write_profile(path, log).empty()) << name;
    EXPECT_NE(log.str().find("-> " + path), std::string::npos) << log.str();
    return slurp(path);
  };
  EXPECT_TRUE(is_json(written_profile("p.json")));
  for (const char* name : {"p.prof", "p.txt", "p.trace"})
    EXPECT_EQ(written_profile(name).rfind("autopipe-prof-v1", 0), 0u) << name;
  std::ostringstream silent;
  EXPECT_TRUE(write_profile("", silent).empty());
  EXPECT_TRUE(silent.str().empty());
}

TEST(RunOutputs, LedgerAndTimeSeriesAreFinalizedBeforeTheyAreWritten) {
  RunOutputs outputs;
  outputs.ledger = temp_path("final.ledger");
  outputs.timeseries = temp_path("final.ts");
  outputs.timeseries_interval = 0.1;
  sim::Simulator simulator;
  outputs.enable(simulator);
  EXPECT_FALSE(simulator.tracer().enabled());
  ASSERT_TRUE(simulator.ledger().enabled());
  ASSERT_TRUE(simulator.timeseries().enabled());
  simulator.ledger().set_run_info(4, 2, "toy");
  trace::DecisionRecord pending;
  pending.kind = "neighborhood";
  pending.num_workers = 2;
  simulator.ledger().add(pending);
  run_briefly(simulator);  // ends between the 0.2 and 0.3 rows
  const std::string log = outputs.write(simulator);
  EXPECT_NE(log.find("ledger: 1 decisions -> " + outputs.ledger + "\n"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("timeseries: 4 samples every 0.100s -> " +
                     outputs.timeseries + "\n"),
            std::string::npos)
      << log;

  const trace::DecisionLedger ledger =
      analysis::read_ledger_file(outputs.ledger);
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_TRUE(ledger.all_resolved());
  EXPECT_EQ(ledger.records()[0].outcome.reason, "run_end");
  const analysis::TimeSeries series =
      analysis::read_timeseries_file(outputs.timeseries);
  ASSERT_FALSE(series.rows.empty());
  EXPECT_EQ(series.interval, 0.1);
  EXPECT_EQ(series.rows.back()[series.column_index("time")], 0.25);
  EXPECT_EQ(simulator.now(), 0.25);
}

TEST(RunOutputs, UnwritablePathThrowsAndNamesIt) {
  const std::string dir = ::testing::TempDir() + "run_outputs_missing_dir/";
  sim::Simulator simulator;
  for (std::string RunOutputs::*file :
       {&RunOutputs::trace, &RunOutputs::metrics, &RunOutputs::ledger,
        &RunOutputs::timeseries}) {
    RunOutputs outputs;
    outputs.*file = dir + "run.out";
    EXPECT_NE(error_of([&] { outputs.check_writable(); }).find(dir + "run.out"),
              std::string::npos);
    EXPECT_NE(error_of([&] { outputs.write(simulator, "a b"); })
                  .find(dir + "run.a_b.out"),
              std::string::npos);
  }
  EXPECT_NE(error_of([&] { start_profile(dir + "run.prof"); })
                .find(dir + "run.prof"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// The one scenario builder: the inputs only autopipe_sim sets
// ---------------------------------------------------------------------------

ScenarioSpec small_job(const std::string& system) {
  ScenarioSpec spec;
  spec.model = "alexnet";
  spec.system = system;
  spec.servers = 2;
  spec.gpus_per_server = 1;
  spec.iterations = 12;
  spec.warmup = 2;
  return spec;
}

TEST(Scenario, ResourceChangesLandAtTheirIterations) {
  ScenarioSpec spec = small_job("pipedream");
  spec.extra_jobs = 1;
  spec.bw_drop_iter = 5;
  spec.bw_drop_gbps = 2.0;
  spec.jobs_iter = 7;
  RunOutputs outputs;
  outputs.trace = temp_path("changes.trace");
  Scenario scenario(spec, outputs);
  sim::Cluster& cluster = scenario.cluster();
  for (std::size_t s = 0; s < spec.servers; ++s)
    EXPECT_EQ(cluster.nic_bandwidth(s), gbps(25.0));
  for (sim::WorkerId w = 0; w < cluster.num_workers(); ++w)
    EXPECT_EQ(cluster.gpu(w).tenant_count(), 2);

  const ScenarioResult result = scenario.run();
  EXPECT_GT(result.throughput, 0.0);
  for (std::size_t s = 0; s < spec.servers; ++s)
    EXPECT_EQ(cluster.nic_bandwidth(s), gbps(2.0));
  for (sim::WorkerId w = 0; w < cluster.num_workers(); ++w)
    EXPECT_EQ(cluster.gpu(w).tenant_count(), 3);
#if AUTOPIPE_TRACING
  // Each change is caused by the iteration mark it is anchored to.
  std::map<std::uint64_t, std::string> iteration_of;
  std::vector<std::string> anchors;
  for (const trace::Event& e : scenario.simulator().tracer().events()) {
    if (e.name == "iteration") iteration_of[e.eid] = *e.find_arg("n");
    if (e.name == "resource_event") anchors.push_back(iteration_of[e.cause]);
  }
  EXPECT_EQ(anchors, (std::vector<std::string>{"5", "7"}));
#endif
}

TEST(Scenario, RejectsABandwidthDropToZero) {
  // A NIC at 0 Gbps never finishes a transfer; the run used to spin forever.
  ScenarioSpec spec = small_job("pipedream");
  spec.bw_drop_iter = 5;
  for (double rate : {0.0, -1.0, std::nan("")}) {
    spec.bw_drop_gbps = rate;
    EXPECT_THROW(Scenario(spec, RunOutputs{}), contract_error) << rate;
  }
  spec.bw_drop_iter = 0;  // no drop: the rate is never installed
  EXPECT_NO_THROW(Scenario(spec, RunOutputs{}));
}

TEST(Scenario, FrameworkSchemeAndBatchReachTheExecutor) {
  ScenarioSpec spec = small_job("autopipe");
  spec.framework = "tensorflow";
  spec.scheme = "ps";
  spec.batch = 16;
  const Scenario scenario(spec, RunOutputs{});
  ASSERT_NE(scenario.executor(), nullptr);
  EXPECT_NE(scenario.controller(), nullptr);
  const pipeline::ExecutorConfig& config = scenario.executor()->config();
  EXPECT_EQ(config.sync_scheme, comm::SyncScheme::kParameterServer);
  EXPECT_EQ(config.framework.name, comm::tensorflow_profile().name);
  EXPECT_EQ(scenario.executor()->batch_size(), 16u);
  EXPECT_EQ(Scenario(small_job("autopipe"), RunOutputs{})
                .executor()
                ->config()
                .sync_scheme,
            comm::SyncScheme::kRing);
}

TEST(Scenario, BaselineRunsWithoutAnExecutorAndWritesItsTrace) {
  const ScenarioSpec spec = small_job("baseline");
  RunOutputs outputs;
  outputs.trace = temp_path("baseline.trace");
  outputs.metrics = temp_path("baseline.metrics.json");
  Scenario scenario(spec, outputs);
  EXPECT_EQ(scenario.executor(), nullptr);
  EXPECT_EQ(scenario.controller(), nullptr);
  const ScenarioResult result = scenario.run();
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_EQ(result.switches, 0u);
  EXPECT_EQ(scenario.report().iteration_end_times.size(), spec.iterations);
  const std::string log = outputs.write(scenario.simulator());
  EXPECT_NE(log.find("-> " + outputs.trace), std::string::npos) << log;
  EXPECT_TRUE(is_json(slurp(outputs.metrics)));
#if AUTOPIPE_TRACING
  EXPECT_NE(slurp(outputs.trace).find(" comm b flow "), std::string::npos);
#endif

  // The data-parallel baseline has no recovery path for a fault plan.
  ScenarioSpec faulted = spec;
  faulted.faults = "random:seed=3";
  EXPECT_THROW(Scenario(faulted, RunOutputs{}), contract_error);
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

  // Churny three-job fleets under a random fault plan: the JobManager, its
  // arbiter and the fault plan all run through the same builder.
  const std::vector<ScenarioSpec> fleets =
      parse_sweep_spec(
          "model = alexnet; servers = 3; jobs = 3; job-models = alexnet+vgg16;"
          "churn = true; faults = random:seed=4; seed = 1..4; iterations = 12;"
          "warmup = 3")
          .expand();
  ASSERT_EQ(fleets.size(), 4u);
  const std::string fleet_serial = bench_json_at_jobs(fleets, 1);
  EXPECT_NE(fleet_serial.find("\"fleet_jobs\": 3"), std::string::npos);
  EXPECT_EQ(fleet_serial.find("\"ok\": false"), std::string::npos)
      << fleet_serial;
  EXPECT_EQ(fleet_serial, bench_json_at_jobs(fleets, 4));
}

}  // namespace
}  // namespace autopipe::sweep
