// One scenario, run in isolation. Every run is built by one Scenario from
// the ScenarioSpec alone — no shared mutable state, no environmental input
// — so scenarios are both bit-reproducible (seeded Rng streams derived from
// spec.seed) and safe to run concurrently from the sweep engine's pool.
// autopipe_sim builds its runs through the same Scenario.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "autopipe/controller.hpp"
#include "baselines/data_parallel.hpp"
#include "cluster/job_manager.hpp"
#include "faults/fault_plan.hpp"
#include "models/model.hpp"
#include "partition/partition.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/report.hpp"
#include "sim/background.hpp"
#include "sim/cluster.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sweep/spec.hpp"

namespace autopipe::sweep {

struct RunOutputs;

/// Per-scenario artifact emission. When `directory` is non-empty each
/// scenario writes `<directory>/<label>.trace` (text event trace) and
/// `<directory>/<label>.metrics.json`; autopipe-controlled scenarios also
/// write `<directory>/<label>.ledger`. Paths land in the ScenarioResult.
struct ArtifactOptions {
  std::string directory;
  /// When > 0, also sample the metrics registry every `timeseries_interval`
  /// sim-seconds and write `<directory>/<label>.ts` (autopipe-ts-v1 — see
  /// docs/TELEMETRY.md). The sampler output is a pure function of the spec,
  /// so it is byte-identical across --jobs values and event-queue kinds.
  double timeseries_interval = 0.0;
};

/// Outcome of one scenario. Every field except wall_seconds is a pure
/// function of the ScenarioSpec (wall_seconds is host time and is kept out
/// of the deterministic report sections).
struct ScenarioResult {
  ScenarioSpec spec;
  bool ok = false;
  /// Exception text when !ok; the sweep keeps going and reports it.
  std::string error;

  double throughput = 0.0;       ///< samples/sec (simulated), fleet total
  double utilization = 0.0;      ///< mean worker busy fraction
  std::size_t batch = 0;         ///< mini-batch size the run used
  std::size_t switches = 0;      ///< partition switches committed
  std::size_t switch_aborts = 0; ///< switch attempts aborted + rolled back
  std::uint64_t events = 0;      ///< simulator events processed
  double iteration_p50_ms = 0.0; ///< measured-window iteration time
  double iteration_p95_ms = 0.0;
  double iteration_p99_ms = 0.0;

  /// The co-tenancy view of a fleet scenario (per-job reports, fairness,
  /// arbitration counts); empty — and never serialized — for a single job,
  /// so single-tenant bench JSON is byte-stable.
  cluster::FleetReport fleet;

  double wall_seconds = 0.0;  ///< host wall-clock (non-deterministic)

  std::string trace_file;    ///< written artifacts, empty when not emitted
  std::string metrics_file;
  std::string ledger_file;
  std::string timeseries_file;
};

/// One run, built whole from a ScenarioSpec: the simulator with the
/// recorders `outputs` asks for, the cluster, co-located jobs and churn,
/// then either the JobManager fleet, the data-parallel baseline, or the
/// planned pipeline with its controller and iteration-anchored resource
/// changes, and last the fault plan. A single job's fault plan is installed
/// after its controller attaches, a fleet's before its controllers are
/// built; the order decides which trace events the plan's `topology`
/// instants cause (docs/BENCHMARKS.md, "One scenario builder").
class Scenario {
 public:
  /// Throws on input the run cannot take: an unknown name, a malformed
  /// fault spec, a fleet the cluster cannot seat, or a fault plan for the
  /// baseline, which has no recovery path.
  Scenario(const ScenarioSpec& spec, const RunOutputs& outputs);
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Run to completion and summarize; `spec`, `ok`, the wall time and the
  /// file names are left to the caller.
  ScenarioResult run();

  sim::Simulator& simulator() { return simulator_; }
  sim::Cluster& cluster() { return *cluster_; }
  const models::ModelSpec& model() const { return model_; }
  const faults::FaultPlan& fault_plan() const { return fault_plan_; }
  /// The planner's partition; a planned single job only (system "even"
  /// starts from an even split instead).
  const partition::Partition& planned() const { return *planned_; }
  /// The pipeline; null for a fleet and for the baseline.
  const pipeline::PipelineExecutor* executor() const { return executor_.get(); }
  /// The pipeline's controller; null unless system is "autopipe".
  const core::AutoPipeController* controller() const {
    return controller_.get();
  }
  /// The single job's execution report once run() returned.
  const pipeline::ExecutionReport& report() const { return report_; }

 private:
  void install_faults();

  ScenarioSpec spec_;
  models::ModelSpec model_;
  sim::Simulator simulator_;
  std::unique_ptr<sim::Cluster> cluster_;
  /// Its installed events refer to it, so it lives as long as the run.
  sim::BackgroundWorkload churn_;
  faults::FaultPlan fault_plan_;
  std::unique_ptr<cluster::JobManager> fleet_;
  std::optional<baselines::DataParallelConfig> baseline_;
  std::optional<partition::Partition> planned_;
  std::unique_ptr<pipeline::PipelineExecutor> executor_;
  std::unique_ptr<core::AutoPipeController> controller_;
  sim::ResourceTrace resource_changes_;
  pipeline::ExecutionReport report_;
};

/// Build, run, summarize and write the scenario's artifacts. Exceptions
/// from anywhere inside the run (bad fault spec, executor contract
/// violation, unwritable artifact) are captured into {ok=false, error};
/// this never throws.
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const ArtifactOptions& artifacts = {});

}  // namespace autopipe::sweep
