#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <thread>

#include "analysis/calibration.hpp"
#include "analysis/causal.hpp"
#include "analysis/ledger_reader.hpp"
#include "analysis/report.hpp"
#include "analysis/timeseries_reader.hpp"
#include "analysis/trace_reader.hpp"
#include "analysis/trace_view.hpp"
#include "autopipe/controller.hpp"
#include "cluster/job_manager.hpp"
#include "cluster/jobs_spec.hpp"
#include "common/profile.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "layers.hpp"
#include "models/zoo.hpp"
#include "partition/environment.hpp"
#include "partition/pipedream_planner.hpp"
#include "pipeline/executor.hpp"
#include "sim/background.hpp"
#include "sim/cluster.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sweep/engine.hpp"

namespace autopipe::e2e {

namespace {

using Clock = std::chrono::steady_clock;

// Run lengths at scale 1 (README.md describes each workload).
constexpr std::size_t kBwdropIterations = 10000;
constexpr std::size_t kArtifactIterations = 1000;
constexpr std::size_t kFleetsPerRound = 16;
/// A round of fleets lasts about two host seconds, longer than a vCPU stays
/// fast, so it picks its CPU again every this many fleets.
constexpr std::size_t kFleetsPerPin = 4;
constexpr std::size_t kFleetJobs = 8;
constexpr std::size_t kFleetIterations = 600;
constexpr std::size_t kGridIterations = 200;
/// Iterations per timed segment of a single-job run (~1.5 ms of host time
/// on bwdrop): short enough that some repetition of each segment runs while
/// other tenants leave the host alone.
constexpr std::size_t kSegmentIterations = 25;
/// Set-ups of the single scenario of bwdrop and bwdrop-artifacts per
/// untraced round: one takes well under a millisecond, so it is repeated
/// for more samples of its fastest time.
constexpr std::size_t kSetupRepeats = 16;
/// Simulated-time limit of one fleet; its churn schedule spans the same.
constexpr Seconds kFleetHorizon = 1200.0;
/// Simulated seconds per timed segment of a fleet's run.
constexpr Seconds kFleetMarkSeconds = 5.0;
constexpr double kTimeseriesInterval = 1.0;
constexpr double kMiB = 1024.0 * 1024.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t scaled(std::size_t n, double scale, std::size_t floor) {
  return std::max(
      floor, static_cast<std::size_t>(std::llround(static_cast<double>(n) *
                                                   scale)));
}

double file_mib(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / kMiB;
}

/// A file's output buffer that ends a timed segment at every MiB written:
/// one long artifact write splits into segments that produce the same bytes
/// in every round, so each can be timed at its fastest repetition like a
/// block of iterations. It hands the file the same BUFSIZ-sized writes a
/// std::ofstream would.
class SegmentedFile : public std::streambuf {
 public:
  SegmentedFile(const std::string& path, std::vector<double>& segments)
      : segments_(segments), buffer_(BUFSIZ) {
    if (!file_.open(path, std::ios::out | std::ios::trunc))
      throw std::runtime_error("cannot write " + path);
    setp(buffer_.data(), buffer_.data() + buffer_.size());
  }

  /// Flush and close the file; this ends the last segment.
  void close() {
    if (!drain() || !file_.close()) throw std::runtime_error("write failed");
    segments_.push_back(seconds_since(start_));
  }

 protected:
  int_type overflow(int_type ch) override {
    if (!drain()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override { return drain() && file_.pubsync() == 0 ? 0 : -1; }

 private:
  static constexpr std::size_t kSegmentBytes = 1 << 20;

  bool drain() {
    const std::streamsize n = pptr() - pbase();
    if (n > 0 && file_.sputn(pbase(), n) != n) return false;
    setp(buffer_.data(), buffer_.data() + buffer_.size());
    written_ += static_cast<std::size_t>(n);
    if (written_ >= next_segment_) {
      segments_.push_back(seconds_since(start_));
      start_ = Clock::now();
      next_segment_ = (written_ / kSegmentBytes + 1) * kSegmentBytes;
    }
    return true;
  }

  Clock::time_point start_ = Clock::now();
  std::vector<double>& segments_;
  std::vector<char> buffer_;
  std::filebuf file_;
  std::size_t written_ = 0;
  std::size_t next_segment_ = kSegmentBytes;
};

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<char> buffer(1 << 20);
  Digest digest;
  while (in.read(buffer.data(), static_cast<std::streamsize>(buffer.size())) ||
         in.gcount() > 0) {
    digest.add(std::string_view(buffer.data(),
                                static_cast<std::size_t>(in.gcount())));
  }
  return digest.value();
}

/// Raw per-round sums the per-layer ratios are computed from.
struct Sums {
  double iterations = 0.0;  ///< simulated iterations completed
  double run_host_s = 0.0;  ///< host seconds in run phases, summed over ops
  double flow_total = 0.0, flow_samples = 0.0;
  double idle_total = 0.0, executors = 0.0;
  double decisions = 0.0, candidates = 0.0;
  double decision_s = 0.0;  ///< host seconds in planning rounds
  double committed = 0.0, reverts = 0.0, requested = 0.0;
  double grants = 0.0, denials = 0.0, jain_total = 0.0, fleets = 0.0;
};

void finish_layer(RoundResult& round, const Sums& s) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  round.decisions = s.decisions;
  auto& layer = round.layer;
  layer["sim.events_per_s"] = ratio(layer["sim.events"], s.run_host_s);
  layer["sim.active_flows_mean"] = ratio(s.flow_total, s.flow_samples);
  layer["pipeline.host_us_per_iter"] = ratio(s.run_host_s, s.iterations) * 1e6;
  layer["pipeline.idle_frac"] = ratio(s.idle_total, s.executors);
  layer["autopipe.candidates_per_decision"] = ratio(s.candidates, s.decisions);
  layer["autopipe.ns_per_candidate"] =
      ratio(s.decision_s, s.candidates) * 1e9;
  layer["autopipe.switch_kept_frac"] =
      ratio(s.committed - s.reverts, s.requested);
  layer["cluster.grant_frac"] = ratio(s.grants, s.grants + s.denials);
  layer["cluster.jain"] = ratio(s.jain_total, s.fleets);
}

void count_simulator(const sim::Simulator& simulator,
                     const sim::Cluster& cluster, RoundResult& round,
                     Sums& sums) {
  const trace::MetricsRegistry& m = simulator.metrics();
  auto& layer = round.layer;
  layer["sim.events"] += static_cast<double>(simulator.events_processed());
  layer["sim.delivered_gb"] += cluster.network().total_bytes_delivered() / 1e9;
  layer["pipeline.rollback_mb"] += m.value("switch.rollback_bytes") / kMiB;
  layer["autopipe.reverts"] += m.value("controller.reverts");
  layer["partition.replans"] += m.value("controller.replans");
  layer["faults.worker_losses"] += m.value("executor.worker_losses");
  sums.committed += m.value("switch.committed");
  sums.reverts += m.value("controller.reverts");
  sums.requested += m.value("switch.requested");
}

void count_executor(const pipeline::PipelineExecutor& executor,
                    const pipeline::ExecutionReport& report,
                    RoundResult& round, Sums& sums) {
  const auto& faults = executor.fault_stats();
  auto& layer = round.layer;
  layer["pipeline.switch_stall_s"] += report.switch_stall;
  layer["pipeline.switch_aborts"] +=
      static_cast<double>(executor.switches_aborted());
  layer["pipeline.dropped_batches"] += static_cast<double>(faults.dropped);
  layer["pipeline.replayed_batches"] += static_cast<double>(faults.replayed);
  sums.iterations += static_cast<double>(executor.completed_iterations());
  sums.idle_total += 1.0 - report.worker_utilization;
  sums.executors += 1.0;
}

void count_controller(const core::AutoPipeController& controller,
                      RoundResult& round, Sums& sums) {
  const auto& stats = controller.stats();
  auto& layer = round.layer;
  layer["autopipe.decisions"] += static_cast<double>(stats.decisions);
  layer["autopipe.changes_detected"] +=
      static_cast<double>(stats.changes_detected);
  layer["autopipe.emergency_replans"] +=
      static_cast<double>(stats.emergency_replans);
  sums.decisions += static_cast<double>(stats.decisions);
  sums.candidates += static_cast<double>(stats.candidates_evaluated);
}

/// Output checks every executor must pass at the end of its run.
void check_executor(const pipeline::PipelineExecutor& executor,
                    const std::string& prefix,
                    std::vector<std::string>& failed) {
  const auto& f = executor.fault_stats();
  if (f.injected != f.completed + f.dropped + executor.active_batches())
    failed.push_back(prefix + "batch_conservation");
  if (!executor.weight_layout_consistent())
    failed.push_back(prefix + "weight_layout");
  // Every accepted switch attempt ended in one commit or one abort, except
  // one still in flight.
  if (executor.switch_attempts() !=
      executor.switches_performed() + executor.switches_aborted() +
          (executor.switch_in_progress() ? 1 : 0))
    failed.push_back(prefix + "switch_accounting");
}

/// The terminal phase of every switch attempt the observers saw, in order.
struct SwitchLog {
  Digest digest;
  std::size_t commits = 0;
  std::size_t aborts = 0;
};

void observe_switches(pipeline::PipelineExecutor& executor,
                      const sim::Simulator& simulator, SwitchLog& log,
                      std::uint64_t job) {
  executor.add_switch_observer(
      [&simulator, &log, job](
          const pipeline::PipelineExecutor::SwitchAttempt& a) {
        const bool commit = a.phase == pipeline::SwitchPhase::kCommit;
        if (!commit && a.phase != pipeline::SwitchPhase::kAborted) return;
        ++(commit ? log.commits : log.aborts);
        log.digest.add(simulator.now())
            .add(job)
            .add(static_cast<std::uint64_t>(a.phase))
            .add(a.abort_reason);
      });
}

/// The observers saw one terminal notification per commit and per abort
/// the executors counted.
void check_switch_log(const SwitchLog& log, std::size_t commits,
                      std::size_t aborts, std::vector<std::string>& failed) {
  if (log.commits != commits || log.aborts != aborts)
    failed.push_back("switch_notifications");
}

// --- single-job scenarios (bwdrop, bwdrop-artifacts, static-grid) --------

struct Scenario {
  std::string label;
  std::string model;
  std::size_t servers = 5;
  std::size_t gpus_per_server = 2;
  double gbps = 25.0;
  std::string system = "autopipe";  ///< autopipe | pipedream | even
  std::size_t iterations = 0;
  std::size_t warmup = 0;
  std::size_t drop_iteration = 0;  ///< 0: the bandwidth never changes
  double drop_gbps = 10.0;
  bool artifacts = false;  ///< record trace, ledger and time series
};

/// One training job on its own simulated cluster. The constructor is the
/// set-up phase (model, cluster, initial plan, executor, controller);
/// run() is the run phase.
class SingleRun {
 public:
  explicit SingleRun(Scenario s);
  SingleRun(const SingleRun&) = delete;
  SingleRun& operator=(const SingleRun&) = delete;

  void run();
  std::uint64_t digest() const;
  /// Simulated milliseconds of every iteration after the warm-up.
  std::vector<double> iteration_ms() const;
  void check(std::vector<std::string>& failed) const;
  void count(RoundResult& round, Sums& sums) const;

  const Scenario scenario;
  sim::ResourceTrace resources;
  pipeline::ExecutionReport report;
  /// Host seconds of the run phase, per segment of kSegmentIterations.
  std::vector<double> segment_s;
  /// Host seconds of each controller call that ran a planning round.
  std::vector<double> decision_round_s;
  double run_s = 0.0;
  double decision_s = 0.0;
  double flow_total = 0.0;
  double flow_samples = 0.0;
  SwitchLog switch_log;
  // Declared last so they are destroyed first: the executor and controller
  // hold references into the model, cluster and simulator.
  std::unique_ptr<models::ModelSpec> model;
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<pipeline::PipelineExecutor> executor;
  std::unique_ptr<core::AutoPipeController> controller;

 private:
  void on_iteration(std::size_t iterations);
  void end_segment();

  Clock::time_point segment_start_;
};

SingleRun::SingleRun(Scenario s) : scenario(std::move(s)) {
  {
    PROF_SPAN("models/build");
    model = std::make_unique<models::ModelSpec>(
        models::model_by_name(scenario.model));
  }
  {
    PROF_SPAN("sim/cluster_build");
    simulator = std::make_unique<sim::Simulator>();
    if (scenario.artifacts) {
      simulator->tracer().set_enabled(true);
      simulator->ledger().set_enabled(true);
      simulator->timeseries().configure(kTimeseriesInterval);
    }
    sim::ClusterConfig config;
    config.num_servers = scenario.servers;
    config.gpus_per_server = scenario.gpus_per_server;
    config.nic_bandwidth = gbps(scenario.gbps);
    cluster = std::make_unique<sim::Cluster>(*simulator, config);
  }
  std::vector<sim::WorkerId> workers(cluster->num_workers());
  std::iota(workers.begin(), workers.end(), sim::WorkerId{0});
  const auto initial = [&] {
    if (scenario.system == "even")
      return partition::Partition::even_split(model->num_layers(), workers);
    PROF_SPAN("partition/plan");
    const auto env = partition::EnvironmentView::from_cluster(
        *cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
    partition::PipeDreamPlanner planner(*model, env,
                                        model->default_batch_size());
    return planner.plan(cluster->num_workers()).partition;
  }();
  {
    PROF_SPAN("pipeline/build");
    executor = std::make_unique<pipeline::PipelineExecutor>(
        *cluster, *model, initial, pipeline::ExecutorConfig{});
  }
  if (scenario.system == "autopipe") {
    PROF_SPAN("autopipe/build");
    core::ControllerConfig cc;
    cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
    cc.use_meta_network = false;
    controller = std::make_unique<core::AutoPipeController>(
        *cluster, *executor, cc, nullptr, nullptr);
    controller->attach();
  }
  if (scenario.drop_iteration > 0) {
    resources.at_iteration(scenario.drop_iteration,
                           sim::ResourceTrace::set_all_nic_bandwidth(
                               gbps(scenario.drop_gbps)));
  }
  // Replaces the hook attach() installed, so the bandwidth drop, the flow
  // sampling and the timing of the controller ride the same notification.
  executor->set_iteration_callback(
      [this](std::size_t iterations) { on_iteration(iterations); });
  observe_switches(*executor, *simulator, switch_log, 0);
}

void SingleRun::on_iteration(std::size_t iterations) {
  resources.apply_iteration(iterations, *cluster);
  flow_total += static_cast<double>(cluster->network().active_flow_count());
  flow_samples += 1.0;
  if (controller) {
    PROF_SPAN("autopipe/on_iteration");
    const std::size_t rounds = controller->stats().decisions;
    const auto t0 = Clock::now();
    controller->on_iteration(iterations);
    if (controller->stats().decisions != rounds)
      decision_round_s.push_back(seconds_since(t0));
  }
  if (iterations % kSegmentIterations == 0) end_segment();
}

void SingleRun::end_segment() {
  segment_s.push_back(seconds_since(segment_start_));
  segment_start_ = Clock::now();
}

void SingleRun::run() {
  segment_start_ = Clock::now();
  {
    PROF_SPAN("pipeline/run");
    report = executor->run(scenario.iterations, scenario.warmup);
  }
  end_segment();  // the iterations after the last full segment
  run_s = std::accumulate(segment_s.begin(), segment_s.end(), 0.0);
  decision_s = std::accumulate(decision_round_s.begin(),
                               decision_round_s.end(), 0.0);
}

std::uint64_t SingleRun::digest() const {
  Digest d;
  for (const double t : report.iteration_end_times) d.add(t);
  d.add(report.throughput)
      .add(simulator->events_processed())
      .add(static_cast<std::uint64_t>(executor->switches_performed()))
      .add(static_cast<std::uint64_t>(executor->switches_aborted()))
      .add(executor->current_partition().to_string())
      .add(switch_log.digest.value());
  return d.value();
}

std::vector<double> SingleRun::iteration_ms() const {
  std::vector<double> out;
  const auto& ends = report.iteration_end_times;
  for (std::size_t i = scenario.warmup + 1; i < ends.size(); ++i)
    out.push_back((ends[i] - ends[i - 1]) * 1e3);
  return out;
}

void SingleRun::check(std::vector<std::string>& failed) const {
  check_executor(*executor, "", failed);
  check_switch_log(switch_log, executor->switches_performed(),
                   executor->switches_aborted(), failed);
}

void SingleRun::count(RoundResult& round, Sums& sums) const {
  count_simulator(*simulator, *cluster, round, sums);
  count_executor(*executor, report, round, sums);
  if (controller) count_controller(*controller, round, sums);
  if (scenario.system != "even") round.layer["partition.plans"] += 1.0;
  sums.flow_total += flow_total;
  sums.flow_samples += flow_samples;
  sums.run_host_s += run_s;
  sums.decision_s += decision_s;
}

// --- bwdrop and bwdrop-artifacts ------------------------------------------

/// vgg16 on 5x2 at 25 Gbps whose NICs drop to 10 Gbps halfway through. The
/// scenario is fixed: moving the drop by even a few iterations changes
/// which plans the controller lands on, and with them the throughput by up
/// to 10%, which would drown any change the benchmark is meant to show.
Scenario bwdrop_scenario(const Options& options, bool artifacts) {
  Scenario s;
  s.label = artifacts ? "vgg16.s5x2.bw25.drop10.artifacts"
                      : "vgg16.s5x2.bw25.drop10";
  s.model = "vgg16";
  s.iterations = artifacts ? scaled(kArtifactIterations, options.scale, 100)
                           : scaled(kBwdropIterations, options.scale, 100);
  s.warmup = s.iterations / 20;
  s.drop_iteration = s.iterations / 2;
  s.artifacts = artifacts;
  return s;
}

struct ArtifactFiles {
  std::string trace, ledger, timeseries;
};

/// What the analysis phase checks the read-back artifacts against, taken
/// before the run (and its in-memory trace) is dropped.
struct WrittenArtifacts {
  std::size_t trace_events = 0;
  std::string ledger_text;
  std::size_t timeseries_rows = 0;
  double drop_time = 0.0;
  double window_end = 0.0;
};

/// Write the trace, the ledger and the time series; returns the host
/// seconds of each MiB of each write (SegmentedFile).
std::vector<double> write_artifacts(sim::Simulator& simulator,
                                    const ArtifactFiles& files) {
  std::vector<double> segments;
  {
    PROF_SPAN("common/trace_write");
    SegmentedFile file(files.trace, segments);
    std::ostream out(&file);
    simulator.tracer().write_text(out);
    file.close();
  }
  {
    PROF_SPAN("common/ledger_write");
    SegmentedFile file(files.ledger, segments);
    simulator.ledger().finalize("run_end");
    std::ostream out(&file);
    simulator.ledger().write_text(out);
    file.close();
  }
  {
    PROF_SPAN("common/timeseries_write");
    SegmentedFile file(files.timeseries, segments);
    simulator.timeseries().finalize(simulator.now(), simulator.metrics());
    std::ostream out(&file);
    simulator.timeseries().write_text(out);
    file.close();
  }
  return segments;
}

/// Check the finalized ledger, count what was written, and keep what the
/// read-back must reproduce.
WrittenArtifacts record_artifacts(const SingleRun& run,
                                  const ArtifactFiles& files,
                                  RoundResult& round, OpResult& op) {
  const sim::Simulator& simulator = *run.simulator;
  // One record per planning round, each resolved with an outcome its action
  // allows: a hold is measured under the status quo (rejected) or
  // superseded; a switch is never rejected.
  const trace::DecisionLedger& ledger = simulator.ledger();
  bool consistent = ledger.size() == run.controller->stats().decisions;
  for (const trace::DecisionRecord& r : ledger.records()) {
    const trace::OutcomeStatus s = r.outcome.status;
    consistent = consistent &&
                 (r.action == trace::DecisionAction::kHold
                      ? s == trace::OutcomeStatus::kRejected ||
                            s == trace::OutcomeStatus::kSuperseded
                      : s != trace::OutcomeStatus::kRejected &&
                            s != trace::OutcomeStatus::kPending);
  }
  if (!consistent) op.failed_checks.push_back("ledger_records");

  WrittenArtifacts written;
  written.trace_events = simulator.tracer().size();
  std::ostringstream ledger_text;
  ledger.write_text(ledger_text);
  written.ledger_text = ledger_text.str();
  written.timeseries_rows = simulator.timeseries().size();
  // Blame looks at the 50 iterations after the bandwidth drop.
  const auto& ends = run.report.iteration_end_times;
  if (!ends.empty()) {
    const std::size_t drop =
        std::clamp<std::size_t>(run.scenario.drop_iteration, 1, ends.size());
    written.drop_time = ends[drop - 1];
    written.window_end = ends[std::min(drop + 49, ends.size() - 1)];
  }

  auto& layer = round.layer;
  layer["common.trace.events"] = static_cast<double>(written.trace_events);
  layer["common.trace.mb"] = file_mib(files.trace);
  layer["common.ledger.records"] = static_cast<double>(ledger.size());
  layer["common.ledger.mb"] = file_mib(files.ledger);
  layer["common.timeseries.rows"] =
      static_cast<double>(written.timeseries_rows);
  layer["common.timeseries.mb"] = file_mib(files.timeseries);
  layer["artifact_mb"] = layer["common.trace.mb"] + layer["common.ledger.mb"] +
                         layer["common.timeseries.mb"];
  return written;
}

/// Read the artifacts back and run the analyzers over them; returns host
/// seconds. With `phase_peak` the phase's own peak memory is recorded; it
/// resets the process high-water mark, so only traced runs, which do not
/// report the process peak, ask for it.
double analyze_artifacts(const ArtifactFiles& files,
                         const WrittenArtifacts& written, bool phase_peak,
                         RoundResult& round, OpResult& op) {
  const bool window_peak = phase_peak && reset_peak_rss();
  const auto t0 = Clock::now();
  analysis::ReadStats stats;
  std::vector<trace::Event> events;
  {
    PROF_SPAN("analysis/parse");
    events = analysis::parse_text_file(files.trace, &stats);
  }
  {
    std::optional<analysis::TraceView> view;
    {
      PROF_SPAN("analysis/view");
      view.emplace(events);  // a copy: the causal graph takes the original
    }
    PROF_SPAN("analysis/summary");
    analysis::analyze(*view);  // summary, bubbles and critical path
  }
  {
    PROF_SPAN("analysis/causal");
    const analysis::CausalGraph graph(std::move(events));
    analysis::blame_window(graph, written.drop_time, written.window_end);
  }
  trace::DecisionLedger ledger;
  {
    PROF_SPAN("analysis/ledger");
    ledger = analysis::read_ledger_file(files.ledger);
    const analysis::CalibrationReport calibration = analysis::calibrate(ledger);
    round.layer["autopipe.predictor_mape"] = calibration.speed_mape;
    round.layer["autopipe.predictor_bias"] = calibration.speed_bias;
  }
  analysis::TimeSeries series;
  {
    PROF_SPAN("analysis/timeseries");
    series = analysis::read_timeseries_file(files.timeseries);
    analysis::analyze_timeseries(series, 0.2);  // the CLI's default drop
  }
  const double analyze_s = seconds_since(t0);
  if (window_peak) round.layer["analysis.peak_rss_mb"] = hwm_rss_mib();

  if (stats.events != written.trace_events || !stats.clean())
    op.failed_checks.push_back("trace_readback");
  std::ostringstream again;
  ledger.write_text(again);
  if (again.str() != written.ledger_text)
    op.failed_checks.push_back("ledger_readback");
  if (series.rows.size() != written.timeseries_rows)
    op.failed_checks.push_back("timeseries_readback");
  return analyze_s;
}

RoundResult run_bwdrop(const Options& options, bool artifacts,
                       bool read_back) {
  RoundResult round;
  Sums sums;
  OpResult op;
  Scenario scenario = bwdrop_scenario(options, artifacts);
  op.scenario = scenario.label;
  const std::string base = options.workdir + "/" + options.workload;
  const ArtifactFiles files{base + ".trace", base + ".ledger", base + ".ts"};
  try {
    // Traced rounds set up once, so per-layer set-up times are per set-up.
    const std::size_t setups = prof::enabled() ? 1 : kSetupRepeats;
    std::unique_ptr<SingleRun> run;
    double setup_s = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < setups; ++k) {
      run.reset();
      const auto t0 = Clock::now();
      run = std::make_unique<SingleRun>(scenario);
      setup_s = std::min(setup_s, seconds_since(t0));
    }
    round.setup_s.push_back(setup_s);
    run->run();
    round.run_s = run->segment_s;
    round.decision_s = run->decision_round_s;
    std::optional<WrittenArtifacts> written;
    if (artifacts) {
      pin_to_fastest_cpus(1);  // the run took half of a second-long round
      for (const double write_s : write_artifacts(*run->simulator, files)) {
        round.run_s.push_back(write_s);
        sums.run_host_s += write_s;
      }
      written = record_artifacts(*run, files, round, op);
    }
    run->check(op.failed_checks);
    Digest digest;
    digest.add(run->digest());
    // Rounds that do not read the artifacts back must write the same bytes
    // as the first, which did.
    if (artifacts) {
      for (const std::string& path :
           {files.trace, files.ledger, files.timeseries})
        digest.add(file_digest(path));
    }
    op.digest = digest.value();
    run->count(round, sums);
    round.samples_per_s = run->report.throughput;
    round.iter_p99_ms = percentile(run->iteration_ms(), 99.0);
    if (written && read_back) {
      run.reset();  // the in-memory trace is not needed to analyse the files
      round.layer["analyze_s"] =
          analyze_artifacts(files, *written, options.trace, round, op);
    }
  } catch (const std::exception& e) {
    op.failed_checks.push_back(std::string("threw: ") + e.what());
  }
  if (artifacts) {
    for (const std::string& path :
         {files.trace, files.ledger, files.timeseries})
      std::filesystem::remove(path);
  }
  round.ops.push_back(std::move(op));
  finish_layer(round, sums);
  return round;
}

// --- fleet-faults ----------------------------------------------------------

cluster::FleetSpec fleet_spec(std::size_t iterations) {
  static constexpr const char* kModels[] = {"alexnet", "vgg16", "resnet50",
                                            "resnet18"};
  cluster::FleetSpec spec;
  spec.arbiter = "auction";
  for (std::size_t k = 0; k < kFleetJobs; ++k) {
    cluster::JobSpec job;
    job.model = kModels[k % 4];
    job.iterations = iterations;
    job.warmup = iterations / 10;
    job.priority = 1.0 + 0.5 * static_cast<double>((3 * k) % 8);  // 1..4.5
    spec.jobs.push_back(std::move(job));
  }
  return spec;
}

/// The `random:` fault plan of one fleet: GPU preemptions, a link flap and
/// stragglers, all cleared by t = 40 s.
faults::ChaosSpec fleet_faults(std::uint64_t seed) {
  faults::ChaosSpec chaos;
  chaos.seed = seed;
  chaos.start = 2.0;
  chaos.clear_by = 40.0;
  chaos.gpu_preemptions = 2;
  chaos.link_failures = 0;
  chaos.link_flaps = 1;
  chaos.stragglers = 2;
  chaos.profiler_drops = 0;
  return chaos;
}

/// Identifies a fleet's behaviour: its event count and its switch log.
using FleetSignature = std::pair<std::uint64_t, std::uint64_t>;

OpResult run_fleet_op(std::uint64_t seed, std::size_t iterations,
                      RoundResult& round, Sums& sums,
                      std::vector<double>& throughputs,
                      std::vector<double>& iteration_ms,
                      FleetSignature& signature) {
  OpResult op;
  op.scenario = "fleet.seed" + std::to_string(seed);
  std::vector<Clock::time_point> marks;  // outlives the marks' events
  const auto t0 = Clock::now();
  std::optional<sim::Simulator> simulator;
  std::optional<sim::Cluster> cluster;
  {
    PROF_SPAN("sim/cluster_build");
    simulator.emplace();
    sim::ClusterConfig config;
    config.nic_bandwidth = gbps(25.0);
    cluster.emplace(*simulator, config);
  }
  sim::BackgroundWorkloadConfig churn_config;
  churn_config.horizon = kFleetHorizon;
  sim::BackgroundWorkload churn(churn_config, Rng(seed));
  {
    PROF_SPAN("sim/churn_install");
    churn.install(*simulator, *cluster);
  }
  faults::FaultPlan plan;
  {
    PROF_SPAN("faults/install");
    plan = faults::random_plan(fleet_faults(seed), cluster->num_servers(),
                               cluster->config().gpus_per_server);
    plan.install(*simulator, *cluster);
  }
  cluster::FleetSpec spec = fleet_spec(iterations);
  cluster::assign_default_workers(spec, cluster->num_workers());
  SwitchLog switch_log;
  std::optional<cluster::JobManager> manager;
  {
    PROF_SPAN("cluster/build");
    manager.emplace(*simulator, *cluster, spec);
  }
  for (std::size_t i = 0; i < manager->num_jobs(); ++i) {
    const cluster::JobRuntime& job = manager->job(i);
    observe_switches(*job.executor, *simulator, switch_log, job.id);
  }
  round.setup_s.push_back(seconds_since(t0));
  // JobManager owns the jobs' iteration hooks, so events that only note the
  // host time, every kFleetMarkSeconds of simulated time, split the run into
  // segments of the same work in every round. They change no simulated
  // state, and sim.events leaves them out.
  for (Seconds t = kFleetMarkSeconds; t < kFleetHorizon;
       t += kFleetMarkSeconds) {
    simulator->at(t, [&marks] { marks.push_back(Clock::now()); }, "e2e/mark");
  }

  const auto t1 = Clock::now();
  cluster::FleetReport report;
  {
    PROF_SPAN("cluster/run");
    report = manager->run(kFleetHorizon);
  }
  marks.push_back(Clock::now());
  auto segment_start = t1;
  for (const Clock::time_point mark : marks) {
    round.run_s.push_back(
        std::chrono::duration<double>(mark - segment_start).count());
    segment_start = mark;
  }
  const double run_s = seconds_since(t1);
  sums.run_host_s += run_s;

  // No worker owned by two jobs, and every owned worker owned in the
  // manager's map by the job that lists it.
  std::vector<std::uint64_t> owner(cluster->num_workers(), 0);
  bool ownership_ok = true;
  std::size_t commits = 0, aborts = 0;
  double decision_s = 0.0;
  Digest digest;
  digest.add(simulator->events_processed()).add(switch_log.digest.value());
  for (std::size_t i = 0; i < manager->num_jobs(); ++i) {
    const cluster::JobRuntime& job = manager->job(i);
    check_executor(*job.executor, "job" + std::to_string(job.id) + ".",
                   op.failed_checks);
    commits += job.executor->switches_performed();
    aborts += job.executor->switches_aborted();
    for (const sim::WorkerId w : job.owned) {
      ownership_ok = ownership_ok && owner[w] == 0 &&
                     manager->owner_of(w) == job.id;
      owner[w] = job.id;
    }
    for (const double t : job.report.iteration_end_times) digest.add(t);
    digest.add(job.report.throughput);
    count_executor(*job.executor, job.report, round, sums);
    count_controller(*job.controller, round, sums);
    // JobManager calls the controllers itself, so a fleet's planning rounds
    // are timed by the controllers' own clock, which leaves out the rounds
    // that adopt a re-plan.
    decision_s += job.controller->stats().total_decision_wall_seconds;
    const auto& ends = job.report.iteration_end_times;
    for (std::size_t n = job.spec.warmup + 1; n < ends.size(); ++n)
      iteration_ms.push_back((ends[n] - ends[n - 1]) * 1e3);
  }
  round.decision_s.push_back(decision_s);
  sums.decision_s += decision_s;
  if (!ownership_ok) op.failed_checks.push_back("ownership");
  check_switch_log(switch_log, commits, aborts, op.failed_checks);
  op.digest = digest.value();
  signature = {simulator->events_processed(), switch_log.digest.value()};

  count_simulator(*simulator, *cluster, round, sums);
  auto& layer = round.layer;
  layer["sim.events"] -= static_cast<double>(marks.size() - 1);
  layer["cluster.claim_rounds"] += static_cast<double>(report.claim_rounds);
  layer["cluster.conflicts"] += static_cast<double>(report.conflicts);
  layer["cluster.grants"] += static_cast<double>(report.grants);
  layer["cluster.denials"] += static_cast<double>(report.denials);
  layer["cluster.contention_aborts"] +=
      static_cast<double>(report.contention_aborts);
  layer["faults.events"] += static_cast<double>(plan.size());
  sums.grants += static_cast<double>(report.grants);
  sums.denials += static_cast<double>(report.denials);
  sums.jain_total += report.jain;
  sums.fleets += 1.0;
  throughputs.push_back(report.fleet_throughput);
  return op;
}

RoundResult run_fleet(const Options& options) {
  RoundResult round;
  round.loop_layer = "cluster";
  Sums sums;
  const std::size_t fleets = scaled(kFleetsPerRound, options.scale, 2);
  const std::size_t iterations = scaled(kFleetIterations, options.scale, 20);
  std::vector<double> throughputs, iteration_ms;
  std::vector<FleetSignature> signatures(fleets);
  for (std::size_t k = 0; k < fleets; ++k) {
    if (k > 0 && k % kFleetsPerPin == 0) pin_to_fastest_cpus(1);
    // Consecutive seeds from the run's own, so runs on nearby seeds share
    // most of their fleets.
    const std::uint64_t seed = options.seed + k;
    try {
      round.ops.push_back(run_fleet_op(seed, iterations, round, sums,
                                       throughputs, iteration_ms,
                                       signatures[k]));
    } catch (const std::exception& e) {
      round.ops.push_back(
          {"fleet.seed" + std::to_string(seed), 0,
           {std::string("threw: ") + e.what()}});
    }
    // Distinct seeds must give distinct fleets.
    for (std::size_t j = 0; j < k; ++j) {
      if (signatures[k] == signatures[j] && signatures[k].first != 0) {
        round.ops.back().failed_checks.push_back(
            "seed_distinct: same events and switch log as " +
            round.ops[j].scenario);
      }
    }
  }
  if (!throughputs.empty()) {
    round.samples_per_s =
        std::accumulate(throughputs.begin(), throughputs.end(), 0.0) /
        static_cast<double>(throughputs.size());
  }
  round.iter_p99_ms = percentile(iteration_ms, 99.0);
  finish_layer(round, sums);
  return round;
}

// --- static-grid -----------------------------------------------------------

constexpr const char* kGridSystems[] = {"autopipe", "pipedream", "even"};

/// {alexnet, vgg16, resnet50, resnet18} x 4 servers x {1, 2} GPUs/server x
/// {10, 25, 100} Gbps x {autopipe, pipedream, even}, in that nesting, so
/// scenario s is system s % 3 of cell s / 3.
std::vector<Scenario> grid_scenarios(std::size_t iterations) {
  std::vector<Scenario> out;
  for (const char* model : {"alexnet", "vgg16", "resnet50", "resnet18"}) {
    for (const std::size_t gpus : {std::size_t{1}, std::size_t{2}}) {
      for (const double bw : {10.0, 25.0, 100.0}) {
        for (const char* system : kGridSystems) {
          Scenario s;
          s.model = model;
          s.servers = 4;
          s.gpus_per_server = gpus;
          s.gbps = bw;
          s.system = system;
          s.iterations = iterations;
          s.warmup = iterations / 10;
          std::ostringstream label;
          label << model << ".s4x" << gpus << ".bw" << bw << "." << system;
          s.label = label.str();
          out.push_back(std::move(s));
        }
      }
    }
  }
  return out;
}

/// --threads, or half the cores, one to four: main.cpp pins them to the
/// fastest half (pin_to_fastest_cpus).
std::size_t grid_threads(const Options& options) {
  if (options.threads > 0) return options.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw / 2, 1, 4);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

RoundResult run_grid(const Options& options) {
  RoundResult round;
  Sums sums;
  const std::vector<Scenario> grid =
      grid_scenarios(scaled(kGridIterations, options.scale, 20));
  const std::size_t n = grid.size();
  const std::size_t threads = grid_threads(options);
  // The seed only shuffles the order in which scenarios are built; every
  // simulated result must be independent of it. They run in grid order, so
  // the last scenario to finish, and with it the run phase's length, does
  // not depend on the seed.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(options.seed);
  rng.shuffle(order);

  std::vector<std::unique_ptr<SingleRun>> runs(n);
  std::vector<double> setup_s(n, 0.0);
  round.ops.resize(n);
  for (std::size_t s = 0; s < n; ++s) round.ops[s].scenario = grid[s].label;
  const auto guarded = [&](std::size_t s, const auto& body) {
    try {
      body();
    } catch (const std::exception& e) {
      round.ops[s].failed_checks.push_back(std::string("threw: ") + e.what());
      runs[s].reset();
    }
  };
  sweep::run_indexed(n, threads, [&](std::size_t i) {
    const std::size_t s = order[i];
    guarded(s, [&] {
      const auto t0 = Clock::now();
      runs[s] = std::make_unique<SingleRun>(grid[s]);
      setup_s[s] = seconds_since(t0);
    });
  });
  const auto t0 = Clock::now();
  sweep::run_indexed(n, threads, [&](std::size_t s) {
    if (runs[s]) guarded(s, [&] { runs[s]->run(); });
  });
  const double fanout_s = seconds_since(t0);
  round.setup_s = setup_s;

  std::vector<double> ap_speed, ap_vs_pd, dp_vs_even, ap_iteration_ms,
      scenario_ms;
  double run_total = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    if (!runs[s]) continue;
    const SingleRun& run = *runs[s];
    run.check(round.ops[s].failed_checks);
    round.ops[s].digest = run.digest();
    run.count(round, sums);
    round.run_s.insert(round.run_s.end(), run.segment_s.begin(),
                       run.segment_s.end());
    round.decision_s.insert(round.decision_s.end(),
                            run.decision_round_s.begin(),
                            run.decision_round_s.end());
    run_total += run.run_s;
    scenario_ms.push_back((setup_s[s] + run.run_s) * 1e3);
    if (run.controller) {
      const auto ms = run.iteration_ms();
      ap_iteration_ms.insert(ap_iteration_ms.end(), ms.begin(), ms.end());
    }
  }
  for (std::size_t cell = 0; cell + 2 < n; cell += 3) {
    if (!runs[cell] || !runs[cell + 1] || !runs[cell + 2]) continue;
    const double ap = runs[cell]->report.throughput;
    const double pd = runs[cell + 1]->report.throughput;
    const double even = runs[cell + 2]->report.throughput;
    ap_speed.push_back(ap);
    if (pd > 0.0) ap_vs_pd.push_back(ap / pd);
    if (even > 0.0) dp_vs_even.push_back(pd / even);
  }
  round.samples_per_s = geomean(ap_speed);
  round.iter_p99_ms = percentile(ap_iteration_ms, 99.0);
  auto& layer = round.layer;
  layer["autopipe_vs_pipedream"] = geomean(ap_vs_pd);
  layer["dp_vs_even"] = geomean(dp_vs_even);
  layer["sweep.scenarios"] = static_cast<double>(n);
  layer["sweep.scenario_p50_ms"] = percentile(scenario_ms, 50.0);
  layer["sweep.scenario_p85_ms"] = percentile(scenario_ms, 85.0);
  layer["sweep.parallel_eff"] =
      run_total / (static_cast<double>(threads) * fanout_s);
  finish_layer(round, sums);
  return round;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "bwdrop", "bwdrop-artifacts", "fleet-faults", "static-grid"};
  return names;
}

std::size_t workload_threads(const Options& options) {
  return options.workload == "static-grid" ? grid_threads(options) : 1;
}

RoundResult run_round(const Options& options, bool read_back) {
  if (options.workload == "bwdrop") return run_bwdrop(options, false, false);
  if (options.workload == "bwdrop-artifacts")
    return run_bwdrop(options, true, read_back);
  if (options.workload == "fleet-faults") return run_fleet(options);
  if (options.workload == "static-grid") return run_grid(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace autopipe::e2e
