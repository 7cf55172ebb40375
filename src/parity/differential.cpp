#include "parity/differential.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "autopipe/controller.hpp"
#include "cluster/job_manager.hpp"
#include "cluster/jobs_spec.hpp"
#include "comm/framework.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "faults/switch_fault_plan.hpp"
#include "models/zoo.hpp"
#include "partition/pipedream_planner.hpp"
#include "pipeline/executor.hpp"
#include "sim/background.hpp"
#include "sim/cluster.hpp"

namespace autopipe::parity {

namespace {

// Small shared testbed (3 servers × 2 GPUs) — big enough for real pipeline
// stages, migrations and cross-server flows, small enough that 50+ seeds ×
// 2 queues stay fast.
constexpr std::size_t kServers = 3;
constexpr std::size_t kGpusPerServer = 2;

faults::FaultPlan plan_for_seed(std::uint64_t seed, std::size_t servers) {
  // A 12-iteration alexnet run on this testbed spans roughly 0.8 simulated
  // seconds; the default ChaosSpec window (seconds to tens of seconds)
  // would schedule every fault past the end of the run. Compress the whole
  // schedule into the first ~0.6 s so preemptions, link failures, flaps,
  // stragglers and profiler drops all land mid-pipeline.
  faults::ChaosSpec spec;
  spec.seed = seed;
  spec.start = 0.05;
  spec.clear_by = 0.6;
  spec.min_outage = 0.02;
  spec.max_outage = 0.15;
  spec.flap_outage = 0.01;
  return faults::random_plan(spec, servers, kGpusPerServer);
}

/// The current partition with each stage handed the next stage's workers:
/// a valid layout where every worker serves a different layer range, so the
/// switch genuinely migrates weights instead of finding them in place.
partition::Partition rotate_workers(const partition::Partition& current) {
  std::vector<partition::StageAssignment> stages = current.stages();
  if (stages.size() > 1) {
    std::vector<sim::WorkerId> first = stages.front().workers;
    for (std::size_t s = 0; s + 1 < stages.size(); ++s)
      stages[s].workers = stages[s + 1].workers;
    stages.back().workers = std::move(first);
  }
  return partition::Partition(std::move(stages), current.num_layers());
}

std::string metrics_text(const trace::MetricsRegistry& metrics) {
  // The registry keeps names sorted, so this rendering is deterministic.
  std::ostringstream os;
  for (const auto& [name, value] : metrics.all())
    os << name << "=" << trace::format_double(value) << "\n";
  return os.str();
}

}  // namespace

ScenarioResult collect_artifacts(sim::Simulator& simulator,
                                 std::vector<double> iteration_end_times) {
  ScenarioResult out;
  out.queue_name = simulator.queue_name();
  out.iteration_end_times = std::move(iteration_end_times);
  out.events_processed = simulator.events_processed();
  out.scheduled_events = simulator.events_scheduled();
  std::ostringstream ts;
  simulator.tracer().write_text(ts);
  out.trace_text = ts.str();
  simulator.ledger().finalize("run_end");
  std::ostringstream ls;
  simulator.ledger().write_text(ls);
  out.ledger_text = ls.str();
  out.metrics_text = metrics_text(simulator.metrics());
  simulator.timeseries().finalize(simulator.now(), simulator.metrics());
  std::ostringstream tss;
  simulator.timeseries().write_text(tss);
  out.timeseries_text = tss.str();
  std::ostringstream cs;
  for (const trace::Event& ev : simulator.tracer().events()) {
    if (ev.eid == 0) continue;
    cs << ev.eid << "<-" << ev.cause << ' '
       << trace::category_name(ev.category) << ':' << ev.name << '\n';
  }
  out.causal_text = cs.str();
  return out;
}

ScenarioResult run_scenario(const ScenarioConfig& config,
                            sim::EventQueueKind kind) {
  sim::Simulator simulator(kind);
  simulator.tracer().set_enabled(true);
  simulator.ledger().set_enabled(true);
  // Fine cadence relative to the ~0.8 s run so dozens of rows land between
  // events; rows must be byte-identical across queue kinds.
  simulator.timeseries().configure(0.02);

  const std::size_t servers =
      config.fleet_jobs > 0 ? std::max(kServers, config.fleet_jobs)
                            : kServers;
  sim::ClusterConfig cluster_config;
  cluster_config.num_servers = servers;
  cluster_config.gpus_per_server = kGpusPerServer;
  sim::Cluster cluster(simulator, cluster_config);

  if (config.fleet_jobs > 0) {
    // Co-tenant fleet: JobManager-driven jobs replace the single
    // executor/controller pair; claim windows, arbiter decisions and
    // contention aborts all land in the compared artifacts.
    cluster::FleetSpec fleet;
    static constexpr const char* kMix[] = {"alexnet", "resnet18"};
    for (std::size_t k = 0; k < config.fleet_jobs; ++k) {
      cluster::JobSpec job;
      job.model = kMix[k % 2];
      job.iterations = config.iterations;
      job.warmup = config.warmup;
      job.priority = 1.0 + static_cast<double>(k % 3);
      fleet.jobs.push_back(std::move(job));
    }
    cluster::assign_default_workers(fleet, cluster.num_workers());

    faults::FaultPlan fault_plan;
    if (config.inject_faults) fault_plan = plan_for_seed(config.seed, servers);
    fault_plan.install(simulator, cluster);

    if (config.background_churn) {
      sim::BackgroundWorkloadConfig bg;
      bg.gpu_job_rate = 4.0;
      bg.net_job_rate = 4.0;
      bg.mean_gpu_job_duration = 0.2;
      bg.mean_net_job_duration = 0.2;
      bg.horizon = 1.0;
      sim::BackgroundWorkload churn(
          bg, Rng(config.seed ^ 0x9e3779b97f4a7c15ull));
      churn.install(simulator, cluster);
    }

    cluster::JobManager manager(simulator, cluster, fleet);
    manager.run();
    std::vector<double> ends;
    for (std::size_t i = 0; i < manager.num_jobs(); ++i) {
      const auto& times = manager.job(i).report.iteration_end_times;
      ends.insert(ends.end(), times.begin(), times.end());
    }
    return collect_artifacts(simulator, std::move(ends));
  }

  const auto model = models::alexnet();
  const auto env = partition::EnvironmentView::from_cluster(
      cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
  partition::PipeDreamPlanner planner(
      model, env, model.default_batch_size(),
      partition::PipeDreamPlanner::Mode::kCurrentEnvironment);
  const auto plan = planner.plan(cluster.num_workers());

  pipeline::ExecutorConfig executor_config;
  executor_config.framework = comm::pytorch_profile();
  executor_config.sync_scheme = comm::SyncScheme::kRing;
  // The planner's pick for this testbed is single-stage data parallelism,
  // where every worker replicates every layer and a switch has nothing to
  // move. Mid-switch scenarios start from an even pipeline split instead so
  // the Transfer phase carries real weight migrations to interrupt.
  const partition::Partition initial =
      config.mid_switch_faults
          ? partition::Partition::even_split(
                model.num_layers(),
                [&] {
                  std::vector<sim::WorkerId> workers(cluster.num_workers());
                  for (std::size_t w = 0; w < workers.size(); ++w)
                    workers[w] = static_cast<sim::WorkerId>(w);
                  return workers;
                }())
          : plan.partition;
  pipeline::PipelineExecutor executor(cluster, model, initial,
                                      executor_config);

  core::ControllerConfig cc;
  cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
  cc.use_meta_network = false;
  core::AutoPipeController controller(cluster, executor, cc, nullptr,
                                      nullptr);
  controller.attach();

  faults::FaultPlan fault_plan;
  if (config.inject_faults) fault_plan = plan_for_seed(config.seed, servers);
  fault_plan.install(simulator, cluster);

  // The plan must outlive executor.run(): it holds the executor-side phase
  // observer and the recovery events it schedules.
  std::optional<faults::SwitchFaultPlan> switch_faults;
  if (config.mid_switch_faults) {
    static constexpr pipeline::SwitchPhase kPhases[] = {
        pipeline::SwitchPhase::kPrepare, pipeline::SwitchPhase::kDrain,
        pipeline::SwitchPhase::kTransfer, pipeline::SwitchPhase::kCommit};
    static constexpr faults::FaultEvent::Kind kKinds[] = {
        faults::FaultEvent::Kind::kGpuDown, faults::FaultEvent::Kind::kLinkDown,
        faults::FaultEvent::Kind::kStragglerBegin,
        faults::FaultEvent::Kind::kProfilerDrop};
    faults::SwitchCrashPoint point;
    point.phase = kPhases[config.seed % 4];
    point.kind = kKinds[(config.seed / 4) % 4];
    point.nth_attempt = 0;  // hit retries of the aborted switch too
    point.max_shots = 4;    // bounded: commit-phase outages would otherwise
                            // re-fire on every readmission commit, forever
    point.recover_after = 0.1;
    switch_faults.emplace(cluster, executor);
    switch_faults->add(point);

    // Drain is a stop-the-world-only phase; otherwise let the seed pick.
    using SwitchMode = pipeline::PipelineExecutor::SwitchMode;
    const SwitchMode mode =
        point.phase == pipeline::SwitchPhase::kDrain || config.seed % 2 == 0
            ? SwitchMode::kStopTheWorld
            : SwitchMode::kFineGrained;
    simulator.after(
        0.12,
        [&executor, mode] {
          executor.request_switch(rotate_workers(executor.current_partition()),
                                  mode);
        },
        "parity_switch_trigger");
  }

  if (config.background_churn) {
    // Rates scaled to the sub-second run the same way the fault plan is:
    // a handful of tenant arrivals and NIC cuts per run instead of the
    // default hours-scale Poisson processes.
    sim::BackgroundWorkloadConfig bg;
    bg.gpu_job_rate = 4.0;
    bg.net_job_rate = 4.0;
    bg.mean_gpu_job_duration = 0.2;
    bg.mean_net_job_duration = 0.2;
    bg.horizon = 1.0;
    sim::BackgroundWorkload churn(
        bg, Rng(config.seed ^ 0x9e3779b97f4a7c15ull));
    churn.install(simulator, cluster);
  }

  const auto report = executor.run(config.iterations, config.warmup);

  return collect_artifacts(simulator, report.iteration_end_times);
}

namespace {

/// Report the first line where two texts differ (1-based), with context.
void diff_text(const std::string& artifact, const std::string& ref,
               const std::string& cand, std::ostringstream& os) {
  if (ref == cand) return;
  std::istringstream a(ref);
  std::istringstream b(cand);
  std::string la;
  std::string lb;
  std::size_t line = 0;
  for (;;) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    ++line;
    if (!ga && !gb) break;  // equal prefix but unequal strings: length diff
    if (ga != gb || la != lb) {
      os << artifact << ": first divergence at line " << line << "\n"
         << "  reference: " << (ga ? la : std::string("<end of text>"))
         << "\n"
         << "  candidate: " << (gb ? lb : std::string("<end of text>"))
         << "\n";
      return;
    }
  }
  os << artifact << ": texts differ in length only (" << ref.size() << " vs "
     << cand.size() << " bytes)\n";
}

}  // namespace

Divergence compare(const ScenarioResult& reference,
                   const ScenarioResult& candidate) {
  Divergence d;
  std::ostringstream os;
  diff_text("trace", reference.trace_text, candidate.trace_text, os);
  diff_text("ledger", reference.ledger_text, candidate.ledger_text, os);
  diff_text("metrics", reference.metrics_text, candidate.metrics_text, os);
  diff_text("timeseries", reference.timeseries_text,
            candidate.timeseries_text, os);
  diff_text("causal", reference.causal_text, candidate.causal_text, os);
  if (reference.iteration_end_times != candidate.iteration_end_times) {
    os << "iteration_end_times: ";
    const std::size_t n = std::min(reference.iteration_end_times.size(),
                                   candidate.iteration_end_times.size());
    if (reference.iteration_end_times.size() !=
        candidate.iteration_end_times.size()) {
      os << "count " << reference.iteration_end_times.size() << " vs "
         << candidate.iteration_end_times.size() << "\n";
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (reference.iteration_end_times[i] !=
            candidate.iteration_end_times[i]) {
          os.precision(17);
          os << "first divergence at iteration " << i << ": "
             << reference.iteration_end_times[i] << " vs "
             << candidate.iteration_end_times[i] << "\n";
          break;
        }
      }
    }
  }
  if (reference.events_processed != candidate.events_processed) {
    os << "events_processed: " << reference.events_processed << " vs "
       << candidate.events_processed << "\n";
  }
  if (reference.scheduled_events != candidate.scheduled_events) {
    os << "scheduled_events: " << reference.scheduled_events << " vs "
       << candidate.scheduled_events << "\n";
  }
  d.report = os.str();
  d.identical = d.report.empty();
  return d;
}

Divergence run_differential(const ScenarioConfig& config) {
  const ScenarioResult heap =
      run_scenario(config, sim::EventQueueKind::kHeap);
  const ScenarioResult wheel =
      run_scenario(config, sim::EventQueueKind::kWheel);
  return compare(heap, wheel);
}

void write_divergence(const std::string& dir, const std::string& stem,
                      const ScenarioResult& heap, const ScenarioResult& wheel,
                      const std::string& report) {
  std::filesystem::create_directories(dir);
  const auto write = [&](const std::string& suffix, const std::string& text) {
    std::ofstream out(dir + "/" + stem + "." + suffix);
    out << text;
  };
  const auto write_run = [&](const std::string& queue,
                             const ScenarioResult& run) {
    write(queue + ".trace", run.trace_text);
    write(queue + ".ledger", run.ledger_text);
    write(queue + ".metrics", run.metrics_text);
    write(queue + ".timeseries", run.timeseries_text);
    write(queue + ".causal", run.causal_text);
  };
  write("report.txt", report);
  write_run("heap", heap);
  write_run("wheel", wheel);
}

}  // namespace autopipe::parity
