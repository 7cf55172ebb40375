// Shared scaffolding for the figure and ablation benchmarks: the paper's
// testbed, the "three identical jobs" shared-cluster emulation, plan
// construction, the one run path (run_pipeline and run_baseline: every run
// is labelled and writes its own file set), the two drivers Figs 3-6 and
// Figs 9-10 share, and the flags every bench takes. Every bench builds on
// these so the scenarios stay consistent across figures and its output
// files match autopipe_sim's and autopipe_sweep's.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "autopipe/controller.hpp"
#include "baselines/data_parallel.hpp"
#include "comm/framework.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "models/zoo.hpp"
#include "partition/pipedream_planner.hpp"
#include "pipeline/executor.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"

namespace autopipe::bench {

/// The paper's bandwidth grid.
inline const std::vector<double> kBandwidthGridGbps = {10, 25, 40, 100};

/// One self-contained simulated testbed instance.
struct Testbed {
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<sim::Cluster> cluster;

  std::vector<sim::WorkerId> all_workers() const;
};

/// 5 servers x 2 P100 behind one switch at the given line rate.
Testbed make_testbed(double bandwidth_gbps);

/// A testbed on any cluster shape. Each testbed's simulator records what
/// the output flags ask for.
Testbed make_testbed(const sim::ClusterConfig& config);

/// Parse argv and keep it, for each bench to read its own flags from the
/// returned reference. Takes the five output flags (docs/TRACING.md,
/// "Producing a trace"; the profiler records from here until
/// exit_status()). Call at the top of main(); throws contract_error on a
/// malformed flag or number.
const Flags& parse_common_flags(int argc, const char* const* argv);

/// Fan `body(0) .. body(count-1)` across a thread pool of `--jobs` threads
/// (default 1, 0 = one per core); only a bench that calls this reads the
/// flag. Each body must confine itself to per-index state
/// — build its own testbed, write slot i of a preallocated vector — and
/// emit nothing; the caller renders tables/stdout in index order
/// afterwards, so benchmark output is identical at any --jobs value.
void for_each_scenario(std::size_t count,
                       const std::function<void(std::size_t)>& body);

/// Write the finished run's requested output files, `label` spliced into
/// each path so every run keeps its own file set. Throws contract_error on
/// an empty label or one an earlier run took since parse_common_flags. A
/// traced run also prints its metrics table, bubble breakdown and critical
/// path.
void write_outputs(Testbed& testbed, const std::string& label);

/// Emulate `extra_jobs` co-located identical jobs (the paper runs three
/// identical jobs in every static experiment): each extra job adds one
/// tenant per GPU and one persistent cross-server flow per NIC, so both
/// compute and bandwidth are genuinely contended in the max-min sense.
void add_shared_jobs(Testbed& testbed, int extra_jobs);

/// PipeDream's one-shot plan: exclusive-GPU profile, uniform bandwidth.
partition::PlanResult plan_pipedream(const Testbed& testbed,
                                     const models::ModelSpec& model,
                                     const comm::FrameworkProfile& framework,
                                     comm::SyncScheme scheme);

/// The "Optimal" bar of Figs 3-6: the same DP re-solved against the current
/// environment view.
partition::PlanResult plan_current(const Testbed& testbed,
                                   const models::ModelSpec& model,
                                   const comm::FrameworkProfile& framework,
                                   comm::SyncScheme scheme);

/// plan_current followed by a neighbourhood descent under the integrated
/// per-worker model — "re-executing the work partition" with heterogeneity
/// (contended GPUs, uneven NICs) taken into account, which the count-based
/// DP alone cannot express.
partition::PlanResult plan_refined(const Testbed& testbed,
                                   const models::ModelSpec& model,
                                   const comm::FrameworkProfile& framework,
                                   comm::SyncScheme scheme);

/// The figures' AutoPipe controller: threshold arbiter, analytic
/// integrated-model predictor (no pre-trained networks required, so the
/// benches run out of the box), a decision every 3 iterations and a 2%
/// predicted-gain floor.
core::ControllerConfig autopipe_controller();

struct RunOptions {
  pipeline::ExecutorConfig executor{};
  /// Attach an AutoPipe controller with this config; none runs the
  /// partition as planned.
  std::optional<core::ControllerConfig> controller{};
  /// The RL arbiter's agent, for a controller in ArbiterMode::kRl.
  rl::DqnAgent* agent = nullptr;
  std::size_t iterations = 40;
  std::size_t warmup = 10;
  /// Iteration-anchored resource events applied during the run.
  const sim::ResourceTrace* trace = nullptr;
  /// Label naming this run within the benchmark ("vgg16_25gbps_actual");
  /// required, passed to write_outputs.
  std::string scenario;
};

/// Execute `partition` on the testbed under the options, then
/// write_outputs(testbed, options.scenario).
pipeline::ExecutionReport run_pipeline(Testbed& testbed,
                                       const models::ModelSpec& model,
                                       const partition::Partition& partition,
                                       const RunOptions& options);

/// Vanilla data-parallel baseline over all workers, in the executor
/// config's framework and sync scheme; writes its files like run_pipeline.
pipeline::ExecutionReport run_baseline(Testbed& testbed,
                                       const models::ModelSpec& model,
                                       const RunOptions& options);

/// Mean throughput between iterations [lo, hi) of `report`, computed on
/// elapsed simulated time (robust to completion bursts).
double window_mean(const pipeline::ExecutionReport& report, std::size_t lo,
                   std::size_t hi);

/// Percentage improvement of a over b.
double speedup_pct(double a, double b);

/// Run one labelled scenario body, catching any exception it throws: the
/// failure is reported on stderr with the label, counted, and the benchmark
/// continues with its remaining scenarios. Returns whether the body
/// succeeded. main() must end with `return bench::exit_status();` so a
/// throwing scenario fails the whole binary instead of vanishing into a
/// half-filled table, and so `--profile` gets written.
bool run_scenario(const std::string& label,
                  const std::function<void()>& body);

/// Warn on stderr about every flag the bench never read, write the
/// `--profile` capture, if one was asked for; then 0 when every
/// run_scenario body succeeded so far, 1 otherwise.
int exit_status();

/// One cell of Figs 3-6 in img/s: PipeDream's stale plan ("actual") and a
/// re-plan for the changed environment ("optimal"), both run after the
/// change.
struct Degradation {
  double actual = 0.0;
  double optimal = 0.0;
};

/// Print the two panels of Figs 3-6 to `out`: panel a over the image
/// models at 25 Gbps, panel b over the bandwidth grid for `network_model`.
/// Each (model, bandwidth) cell is measured once, through run_scenario, so
/// panel b's 25 Gbps cell is panel a's and a failed cell leaves its rows
/// out; `measure` gets the cell's label ("vgg16_25gbps") to prefix its
/// runs' labels. The optimal column is max(optimal, actual): an oracle
/// never adopts the worse of the two plans. `gap_column` heads the
/// percentage column.
void degradation_panels(
    std::ostream& out, const std::string& model_title,
    const std::string& network_title, const models::ModelSpec& network_model,
    const std::string& gap_column,
    const std::function<Degradation(const models::ModelSpec&, double,
                                    const std::string&)>& measure);

/// One phase of a Figs 9-10 run: iterations [begin, end).
struct SeriesPhase {
  const char* name;
  std::size_t begin;
  std::size_t end;
};

/// Figs 9-10: run `model` on PipeDream's plan at 25 Gbps through the
/// resource `changes` until the last phase ends, once as planned
/// ("pipedream") and once under autopipe_controller() ("autopipe"), each
/// through run_scenario. Then print both speed series in 5-iteration
/// windows under "<figure> — <title>" and each phase's mean; nothing when
/// a run failed.
void dynamic_series(const std::string& figure, const std::string& title,
                    const models::ModelSpec& model,
                    const sim::ResourceTrace& changes,
                    std::span<const SeriesPhase> phases);

}  // namespace autopipe::bench
