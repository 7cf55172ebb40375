// Decision-ledger tests: the controller emits exactly one record per
// planning round and resolves every one of them, the text form is
// byte-deterministic and round-trips through the reader, and the
// calibration report's aggregates match hand-computed values on a
// synthetic ledger (plus a live switch-cost join against a real trace).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/calibration.hpp"
#include "analysis/gantt.hpp"
#include "analysis/ledger_reader.hpp"
#include "analysis/trace_view.hpp"
#include "autopipe/controller.hpp"
#include "common/ledger.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "faults/fault_plan.hpp"
#include "faults/switch_fault_plan.hpp"
#include "golden_file.hpp"
#include "models/zoo.hpp"
#include "partition/environment.hpp"
#include "partition/pipedream_planner.hpp"
#include "pipeline/executor.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"

namespace autopipe::core {
namespace {

using test_golden::expect_matches_golden;

models::ModelSpec toy_model(std::size_t layers = 6) {
  std::vector<models::LayerSpec> specs;
  for (std::size_t l = 0; l < layers; ++l) {
    models::LayerSpec s;
    s.name = "l" + std::to_string(l);
    s.fwd_flops_per_sample = 100.0 * static_cast<double>(1 + l % 2);
    s.bwd_flops_per_sample = 2.0 * s.fwd_flops_per_sample;
    s.activation_bytes_per_sample = 20.0;
    s.param_bytes = 400.0;
    specs.push_back(std::move(s));
  }
  return models::ModelSpec("toy", 4, std::move(specs));
}

struct Rig {
  explicit Rig(std::size_t servers = 3, double gpu_flops = 1e4,
               double nic = 1e5) {
    config.num_servers = servers;
    config.gpus_per_server = 1;
    config.gpu_specs = {sim::GpuSpec{"toy", gpu_flops, gib(16)}};
    config.nic_bandwidth = nic;
    cluster = std::make_unique<sim::Cluster>(sim, config);
  }
  sim::Simulator sim;
  sim::ClusterConfig config;
  std::unique_ptr<sim::Cluster> cluster;
};

pipeline::ExecutorConfig clean_config() {
  pipeline::ExecutorConfig c;
  c.framework.per_layer_overhead = 0.0;
  c.framework.comm_efficiency = 1.0;
  c.framework.compute_efficiency = 1.0;
  return c;
}

/// The skewed-start scenario from the controller tests: the threshold
/// arbiter rebalances it within a few decision rounds, so the ledger sees
/// both switch and hold verdicts. Returns the ledger's text form.
std::string run_skewed_scenario(Rig& rig, bool trace = false) {
  const auto model = toy_model(6);
  rig.sim.ledger().set_enabled(true);
  if (trace) rig.sim.tracer().set_enabled(true);
  partition::Partition skewed({{0, 3, {0}}, {4, 4, {1}}, {5, 5, {2}}},
                              model.num_layers());
  pipeline::PipelineExecutor executor(*rig.cluster, model, skewed,
                                      clean_config());
  ControllerConfig config;
  config.arbiter_mode = ControllerConfig::ArbiterMode::kThreshold;
  config.use_meta_network = false;
  config.decision_interval = 2;
  AutoPipeController controller(*rig.cluster, executor, config, nullptr,
                                nullptr);
  controller.attach();
  executor.run(40, 10);

  EXPECT_GT(controller.stats().decisions, 0u);
  EXPECT_EQ(rig.sim.ledger().size(), controller.stats().decisions);
  rig.sim.ledger().finalize("run_end");
  EXPECT_TRUE(rig.sim.ledger().all_resolved());

  std::ostringstream os;
  rig.sim.ledger().write_text(os);
  return os.str();
}

TEST(Ledger, DisabledByDefaultAndRecordsNothing) {
  Rig rig;
  const auto model = toy_model(6);
  partition::Partition skewed({{0, 3, {0}}, {4, 4, {1}}, {5, 5, {2}}},
                              model.num_layers());
  pipeline::PipelineExecutor executor(*rig.cluster, model, skewed,
                                      clean_config());
  ControllerConfig config;
  config.arbiter_mode = ControllerConfig::ArbiterMode::kThreshold;
  config.use_meta_network = false;
  config.decision_interval = 2;
  AutoPipeController controller(*rig.cluster, executor, config, nullptr,
                                nullptr);
  controller.attach();
  executor.run(30, 5);
  EXPECT_GT(controller.stats().decisions, 0u);
  EXPECT_FALSE(rig.sim.ledger().enabled());
  EXPECT_TRUE(rig.sim.ledger().empty());
}

TEST(Ledger, OneRecordPerDecisionAllResolved) {
  Rig rig;
  const std::string text = run_skewed_scenario(rig);
  EXPECT_NE(text.find("ledger v1 model=toy"), std::string::npos);
  // At least one adopted switch and at least one resolved outcome beyond
  // run_end: the scenario is built to rebalance.
  EXPECT_NE(text.find("action=switch"), std::string::npos);
}

TEST(Ledger, ByteDeterministicAcrossIdenticalRuns) {
  Rig rig_a;
  Rig rig_b;
  const std::string a = run_skewed_scenario(rig_a);
  const std::string b = run_skewed_scenario(rig_b);
  EXPECT_EQ(a, b);
}

TEST(Ledger, RoundTripsThroughReader) {
  Rig rig;
  const std::string text = run_skewed_scenario(rig);

  std::istringstream in(text);
  const trace::DecisionLedger parsed = analysis::read_ledger(in);
  EXPECT_EQ(parsed.size(), rig.sim.ledger().size());
  EXPECT_EQ(parsed.model(), "toy");
  EXPECT_EQ(parsed.run_workers(), 3);
  EXPECT_EQ(parsed.batches_per_iteration(), 4);

  std::ostringstream out;
  parsed.write_text(out);
  EXPECT_EQ(out.str(), text);
}

TEST(Ledger, ReaderRejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return analysis::read_ledger(in);
  };
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("not a ledger\n"), std::runtime_error);
  // Header promising more decisions than the body delivers.
  EXPECT_THROW(parse("ledger v1 model=toy batch=4 workers=3 decisions=1\n"),
               std::runtime_error);
  // A decision with no choice/outcome lines.
  EXPECT_THROW(
      parse("ledger v1 model=toy batch=4 workers=3 decisions=1\n"
            "decision id=0 t=1 iter=5 kind=neighborhood digest=00 workers=3 "
            "iter_time=0.1 current=L0-5@{0} current_pred=40\n"),
      std::runtime_error);
}

/// The bwdrop reference workload in miniature: vgg16 on 5x2 GPUs at
/// 25 Gbps from PipeDream's plan (two replicated stages, so re-home moves
/// are scored), every NIC dropping to 10 Gbps at iteration 30. With the
/// threshold arbiter over the analytic predictor the run holds a re-plan
/// round and reverted switches whose partitions later rounds list as
/// skip=1 candidates. `learned` swaps in a seeded meta-network predictor
/// and RL arbiter instead. Returns the finalized ledger's text form.
std::string run_golden_controller(bool learned, std::size_t iterations) {
  sim::Simulator sim;
  sim.ledger().set_enabled(true);
  sim::ClusterConfig cluster_config;
  cluster_config.num_servers = 5;
  cluster_config.gpus_per_server = 2;
  cluster_config.nic_bandwidth = gbps(25);
  sim::Cluster cluster(sim, cluster_config);
  const auto model = models::vgg16();
  const auto env = partition::EnvironmentView::from_cluster(
      cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
  partition::PipeDreamPlanner planner(model, env, model.default_batch_size());
  pipeline::PipelineExecutor executor(
      cluster, model, planner.plan(cluster.num_workers()).partition,
      pipeline::ExecutorConfig{});

  const FeatureEncoder encoder;
  MetaNetworkConfig mc;
  mc.dynamic_dim = encoder.dynamic_dim();
  mc.static_dim = encoder.static_dim();
  mc.partition_dim = encoder.partition_dim();
  MetaNetwork meta(mc, 41);
  rl::DqnConfig dc;
  dc.state_dim = encoder.arbiter_dim();
  rl::DqnAgent agent(dc, 43);
  ControllerConfig config;
  config.arbiter_mode = learned ? ControllerConfig::ArbiterMode::kRl
                                : ControllerConfig::ArbiterMode::kThreshold;
  config.use_meta_network = learned;
  AutoPipeController controller(cluster, executor, config,
                                learned ? &meta : nullptr,
                                learned ? &agent : nullptr);
  controller.attach();
  sim::ResourceTrace drop;
  drop.at_iteration(30, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  executor.set_iteration_callback([&](std::size_t iters) {
    drop.apply_iteration(iters, cluster);
    controller.on_iteration(iters);
  });
  executor.run(iterations, 5);
  sim.ledger().finalize("run_end");
  std::ostringstream os;
  sim.ledger().write_text(os);
  return os.str();
}

TEST(GoldenLedger, BandwidthDropMatchesCheckedInGolden) {
  const std::string text = run_golden_controller(false, 120);
  // The scenario must keep covering what the golden is there to pin.
  EXPECT_NE(text.find("kind=replan"), std::string::npos);
  EXPECT_NE(text.find("status=reverted"), std::string::npos);
  EXPECT_NE(text.find("skip=1"), std::string::npos);
  expect_matches_golden("controller_bwdrop.ledger", text);
}

/// The controller's fault paths in one small run: the skewed toy pipeline
/// from run_skewed_scenario. The first three switch attempts lose a link the
/// instant they reach Transfer, so the first decided switch is retried with
/// backoff and then abandoned as aborted_transfer. The next one commits, and
/// while it is being validated workers 1 and 2 are preempted, for 6 s and
/// 10 s. Their stages have no other holder, so the watchdog declares the
/// pipeline wedged and re-plans onto worker 0 alone (superseding the
/// validation as `fault`). Each return is folded back in by a readmission
/// switch, first over two reachable workers, then over all three.
struct FaultCapture {
  std::string ledger;
  std::string trace;
};

FaultCapture run_fault_scenario() {
  Rig rig;
  rig.sim.ledger().set_enabled(true);
  rig.sim.tracer().set_enabled(true);
  const auto model = toy_model(6);
  partition::Partition skewed({{0, 3, {0}}, {4, 4, {1}}, {5, 5, {2}}},
                              model.num_layers());
  pipeline::PipelineExecutor executor(*rig.cluster, model, skewed,
                                      clean_config());
  ControllerConfig config;
  config.arbiter_mode = ControllerConfig::ArbiterMode::kThreshold;
  config.use_meta_network = false;
  config.decision_interval = 2;
  AutoPipeController controller(*rig.cluster, executor, config, nullptr,
                                nullptr);
  controller.attach();

  faults::SwitchFaultPlan switch_faults(*rig.cluster, executor);
  faults::SwitchCrashPoint point;
  point.phase = pipeline::SwitchPhase::kTransfer;
  point.kind = faults::FaultEvent::Kind::kLinkDown;
  point.nth_attempt = 0;
  point.max_shots = 3;
  point.recover_after = 0.01;
  switch_faults.add(point);
  faults::FaultPlan plan;
  plan.preempt_gpu(1, 10.0, 6.0);
  plan.preempt_gpu(2, 10.0, 10.0);
  plan.install(rig.sim, *rig.cluster);

  executor.run(28, 5);
  rig.sim.ledger().finalize("run_end");
  FaultCapture capture;
  std::ostringstream ledger;
  rig.sim.ledger().write_text(ledger);
  capture.ledger = ledger.str();
  std::ostringstream trace;
  rig.sim.tracer().write_text(trace);
  capture.trace = trace.str();
  return capture;
}

TEST(GoldenLedger, FaultRecoveryMatchesCheckedInGolden) {
  const FaultCapture capture = run_fault_scenario();
  // The scenario must keep covering what the goldens are there to pin.
  EXPECT_NE(capture.ledger.find("status=aborted_"), std::string::npos);
  EXPECT_NE(capture.trace.find(" pipeline_wedged "), std::string::npos);
  EXPECT_NE(capture.trace.find(" worker_readmit "), std::string::npos);
  EXPECT_NE(capture.trace.find(" switch_retry "), std::string::npos);
  expect_matches_golden("controller_faults.ledger", capture.ledger);
  expect_matches_golden("controller_faults.trace", capture.trace);
}

TEST(GoldenLedger, SkewedStartMatchesCheckedInGolden) {
  // The toy model's candidates often tie on predicted speed, so this one
  // pins the first-max choice among equal predictions.
  Rig rig;
  expect_matches_golden("controller_skewed.ledger", run_skewed_scenario(rig));
}

TEST(GoldenLedger, LearnedPredictorAndArbiterMatchCheckedInGolden) {
  const std::string text = run_golden_controller(true, 60);
  EXPECT_NE(text.find("arbiter=rl"), std::string::npos);
  expect_matches_golden("controller_bwdrop_learned.ledger", text);
}

// Hand-checked calibration arithmetic on a synthetic three-decision ledger:
//   d0: switch, executed,  pred 100, realized 80,  best 110
//       -> ape 0.25, bias +0.25, regret (110-80)/80 = 0.375
//   d1: hold,   rejected,  pred 50,  realized 100, best 120
//       -> ape 0.50, bias -0.50, regret (120-100)/100 = 0.2
//   d2: switch, superseded, never measured -> excluded from the means
// Aggregates: accept rate 2/3, measured 2, MAPE 0.375, bias -0.125,
// mean regret 0.2875, max regret 0.375.
trace::DecisionLedger synthetic_ledger() {
  trace::DecisionLedger ledger;
  ledger.set_enabled(true);
  ledger.set_run_info(4, 2, "toy");

  trace::DecisionRecord d0;
  d0.time = 1.0;
  d0.iteration = 5;
  d0.kind = "neighborhood";
  d0.num_workers = 2;
  d0.action = trace::DecisionAction::kSwitch;
  d0.chosen_pred = 100.0;
  d0.best_pred = 110.0;
  d0.outcome = {trace::OutcomeStatus::kExecuted, 80.0, 4, "measured"};
  ledger.add(d0);

  trace::DecisionRecord d1;
  d1.time = 2.0;
  d1.iteration = 10;
  d1.kind = "neighborhood";
  d1.num_workers = 2;
  d1.action = trace::DecisionAction::kHold;
  d1.chosen_pred = 50.0;
  d1.best_pred = 120.0;
  d1.outcome = {trace::OutcomeStatus::kRejected, 100.0, 4, "measured"};
  ledger.add(d1);

  trace::DecisionRecord d2;
  d2.time = 3.0;
  d2.iteration = 15;
  d2.kind = "neighborhood";
  d2.num_workers = 2;
  d2.action = trace::DecisionAction::kSwitch;
  d2.chosen_pred = 90.0;
  d2.best_pred = 90.0;
  d2.arbiter = "rl";  // exercises the q-value list serialization
  d2.q_values = {0.125, -1.75};
  d2.explored = true;
  d2.outcome = {trace::OutcomeStatus::kSuperseded, -1.0, 0, "run_end"};
  ledger.add(d2);
  return ledger;
}

TEST(Calibration, HandCheckedAggregates) {
  const analysis::CalibrationReport report =
      analysis::calibrate(synthetic_ledger());

  EXPECT_EQ(report.decisions, 3u);
  EXPECT_EQ(report.switches, 2u);
  EXPECT_EQ(report.holds, 1u);
  EXPECT_NEAR(report.accept_rate, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(report.executed, 1u);
  EXPECT_EQ(report.rejected, 1u);
  EXPECT_EQ(report.superseded, 1u);
  EXPECT_EQ(report.reverted, 0u);

  EXPECT_EQ(report.measured, 2u);
  EXPECT_NEAR(report.speed_mape, 0.375, 1e-12);
  EXPECT_NEAR(report.speed_bias, -0.125, 1e-12);
  EXPECT_NEAR(report.mean_regret, 0.2875, 1e-12);
  EXPECT_NEAR(report.max_regret, 0.375, 1e-12);
  EXPECT_EQ(report.cost_joined, 0u);

  ASSERT_EQ(report.rows.size(), 3u);
  EXPECT_NEAR(report.rows[0].ape, 0.25, 1e-12);
  EXPECT_NEAR(report.rows[0].bias, 0.25, 1e-12);
  EXPECT_NEAR(report.rows[0].regret, 0.375, 1e-12);
  EXPECT_NEAR(report.rows[1].ape, 0.5, 1e-12);
  EXPECT_NEAR(report.rows[1].bias, -0.5, 1e-12);
  EXPECT_LT(report.rows[2].ape, 0.0);  // unmeasured stays -1
}

// A switch abandoned after fault aborts resolves to aborted_<phase>; the
// outcome counts must still cover every resolved record.
TEST(Calibration, AbortedOutcomesAreCounted) {
  trace::DecisionLedger ledger = synthetic_ledger();
  trace::DecisionRecord d3;
  d3.time = 4.0;
  d3.iteration = 20;
  d3.kind = "neighborhood";
  d3.num_workers = 2;
  d3.action = trace::DecisionAction::kSwitch;
  d3.chosen_pred = 95.0;
  d3.best_pred = 95.0;
  d3.outcome = {trace::OutcomeStatus::kAbortedTransfer, -1.0, 0, "abandoned"};
  ledger.add(d3);

  const analysis::CalibrationReport report = analysis::calibrate(ledger);
  EXPECT_EQ(report.aborted, 1u);
  EXPECT_EQ(report.executed + report.reverted + report.rejected +
                report.superseded + report.aborted,
            report.decisions);
  EXPECT_EQ(report.measured, 2u);  // never measured: outside the means

  std::ostringstream text;
  analysis::render_calibration(report, text);
  EXPECT_NE(text.str().find(", aborted 1\n"), std::string::npos);
  std::ostringstream json;
  analysis::write_calibration_json(report, json);
  EXPECT_NE(json.str().find("\"aborted\": 1"), std::string::npos);
}

TEST(Calibration, SyntheticLedgerRoundTripsAndRenders) {
  const trace::DecisionLedger ledger = synthetic_ledger();
  std::ostringstream os;
  ledger.write_text(os);
  std::istringstream in(os.str());
  const trace::DecisionLedger parsed = analysis::read_ledger(in);
  std::ostringstream re;
  parsed.write_text(re);
  EXPECT_EQ(re.str(), os.str());

  std::ostringstream rendered;
  analysis::render_calibration(analysis::calibrate(parsed), rendered);
  EXPECT_NE(rendered.str().find("MAPE 37.50%"), std::string::npos);

  std::ostringstream table;
  analysis::render_decisions(parsed, table);
  EXPECT_NE(table.str().find("superseded"), std::string::npos);
}

TEST(Calibration, SwitchCostJoinAgainstLiveTrace) {
  Rig rig;
  run_skewed_scenario(rig, /*trace=*/true);

  const std::vector<trace::Event> events = rig.sim.tracer().events();
  const analysis::TraceView view(events);
  const analysis::CalibrationReport report =
      analysis::calibrate(rig.sim.ledger(), view);

  // Every executed/reverted switch decision left a switch span in the trace
  // at the decision instant, so each must join to a post-mortem.
  std::size_t joinable = 0;
  for (const analysis::CalibrationRow& row : report.rows) {
    if (row.action == "switch" &&
        (row.status == "executed" || row.status == "reverted")) {
      ++joinable;
    }
  }
  EXPECT_GT(joinable, 0u);
  EXPECT_EQ(report.cost_joined, joinable);
  for (const analysis::CalibrationRow& row : report.rows) {
    if (row.cost_actual >= 0.0) {
      EXPECT_GE(row.cost_pred, 0.0);
    }
  }
}

TEST(Gantt, DecisionRowMarksLedgerRecords) {
  Rig rig;
  run_skewed_scenario(rig, /*trace=*/true);
  const std::vector<trace::Event> events = rig.sim.tracer().events();
  const analysis::TraceView view(events);
  const std::string plain = analysis::render_gantt(view, 80);
  const std::string marked =
      analysis::render_gantt(view, rig.sim.ledger(), 80);
  EXPECT_EQ(plain.find("decision row"), std::string::npos);
  EXPECT_NE(marked.find("decision row: ^ switch verdict  . hold"),
            std::string::npos);
  EXPECT_NE(marked.find('^'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fuzz-style reader robustness. read_ledger's contract is "parse or throw
// std::runtime_error" — the ledger format does carry cross-line state
// (decision records accumulate cand/choice/outcome lines), so unlike the
// trace reader most corruptions must be *rejected*, and none may crash,
// hang, or surface a foreign exception type (contract_error included).
// ---------------------------------------------------------------------------

std::string synthetic_ledger_text() {
  std::ostringstream os;
  synthetic_ledger().write_text(os);
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

/// True when read_ledger accepts the text, false when it rejects it with
/// std::runtime_error. Anything else propagates into gtest and fails.
bool ledger_parses_cleanly(const std::string& text) {
  std::istringstream is(text);
  try {
    (void)analysis::read_ledger(is);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

class LedgerReaderFuzz : public ::testing::TestWithParam<int> {};

// Cutting at a line boundary strictly inside the body loses decisions the
// header still promises (or leaves a record half-built): every proper
// whole-line prefix must be rejected; only the full text parses.
TEST_P(LedgerReaderFuzz, WholeLinePrefixIsRejectedUnlessComplete) {
  static const std::vector<std::string> lines =
      split_lines(synthetic_ledger_text());
  ASSERT_GT(lines.size(), 1u);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729u + 5u);
  const auto keep = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(lines.size())));
  std::string text;
  for (std::size_t i = 0; i < keep; ++i) text += lines[i] + '\n';
  EXPECT_EQ(ledger_parses_cleanly(text), keep == lines.size())
      << "prefix of " << keep << "/" << lines.size() << " lines";
}

// Byte-level truncation, random byte flips, and interleaving the lines of
// two ledgers (decision ids collide, records nest wrongly) must always land
// in parse-or-reject — never a crash or a non-runtime_error exception.
TEST_P(LedgerReaderFuzz, ArbitraryCorruptionParsesOrRejects) {
  static const std::string base = synthetic_ledger_text();
  ASSERT_FALSE(base.empty());
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729u + 19u);
  std::string text;
  switch (GetParam() % 3) {
    case 0: {  // truncate at an arbitrary byte, usually mid-line
      const auto cut = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(base.size())));
      text = base.substr(0, cut);
      break;
    }
    case 1: {  // flip a handful of bytes to arbitrary values
      text = base;
      const std::int64_t flips = rng.uniform_int(1, 16);
      for (std::int64_t f = 0; f < flips; ++f) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
        text[pos] = static_cast<char>(rng.uniform_int(0, 255));
      }
      break;
    }
    default: {  // interleave two copies' lines, each copy's order preserved
      const std::vector<std::string> lines = split_lines(base);
      std::size_t i = 0, j = 0;
      while (i < lines.size() || j < lines.size()) {
        const bool take_first =
            j >= lines.size() || (i < lines.size() && rng.chance(0.5));
        text += (take_first ? lines[i++] : lines[j++]) + '\n';
      }
      break;
    }
  }
  (void)ledger_parses_cleanly(text);  // either outcome is fine
}

INSTANTIATE_TEST_SUITE_P(SeededCorruptions, LedgerReaderFuzz,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace autopipe::core
