// Shared scaffolding for the figure benchmarks: the paper's testbed, the
// "three identical jobs" shared-cluster emulation, plan construction,
// standard measurement runs and the flags every bench shares. Every bench
// builds on these so the scenarios stay consistent across figures and its
// output files match autopipe_sim's and autopipe_sweep's.
#pragma once

#include <functional>
#include <memory>
#include <optional>
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

/// Parse argv and return it, for each bench to read its own flags from.
/// Takes the shared ones: the five output flags (docs/TRACING.md,
/// "Producing a trace"; the profiler records from here until
/// exit_status()) and `--jobs=N`. Call at the top of main(); throws
/// contract_error on a malformed flag or number.
Flags parse_common_flags(int argc, const char* const* argv);

/// Fan `body(0) .. body(count-1)` across the `--jobs` thread pool (default
/// 1, 0 = one per core). Each body must confine itself to per-index state
/// — build its own testbed, write slot i of a preallocated vector — and
/// emit nothing; the caller renders tables/stdout in index order
/// afterwards, so benchmark output is identical at any --jobs value.
void for_each_scenario(std::size_t count,
                       const std::function<void(std::size_t)>& body);

/// Write the finished run's requested output files, `label` spliced into
/// each path so every labelled run keeps its own file set; an unlabelled
/// run writes the paths as given. A traced run also prints its metrics
/// table, bubble breakdown and critical path.
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

struct RunOptions {
  comm::FrameworkProfile framework = comm::pytorch_profile();
  comm::SyncScheme scheme = comm::SyncScheme::kRing;
  std::size_t iterations = 40;
  std::size_t warmup = 10;
  /// Attach an AutoPipe controller (threshold arbiter + analytic
  /// integrated-model predictor — no pre-trained networks required, so the
  /// benches run out of the box; the RL/meta ablation bench swaps these).
  bool autopipe = false;
  std::size_t decision_interval = 3;
  /// Iteration-anchored resource events applied during the run.
  const sim::ResourceTrace* trace = nullptr;
  pipeline::ScheduleMode mode = pipeline::ScheduleMode::kAsync1F1B;
  std::size_t micro_batches = 4;
  /// Label naming this run within the benchmark ("vgg16_25gbps_autopipe");
  /// run_pipeline passes it to write_outputs.
  std::string scenario;
};

struct RunResult {
  double throughput = 0.0;             // samples/sec
  std::vector<double> per_iteration;   // instantaneous series
  std::vector<double> end_times;       // completion instant per iteration
  std::size_t batch = 0;
  std::size_t switches = 0;
  double utilization = 0.0;

  /// Mean throughput between iterations [lo, hi) computed on elapsed
  /// simulated time (robust to completion bursts).
  double window_mean(std::size_t lo, std::size_t hi) const;
};

/// Execute `partition` on the testbed under the options, then
/// write_outputs(testbed, options.scenario).
RunResult run_pipeline(Testbed& testbed, const models::ModelSpec& model,
                       const partition::Partition& partition,
                       const RunOptions& options);

/// Vanilla data-parallel baseline over all workers.
double run_baseline(Testbed& testbed, const models::ModelSpec& model,
                    const RunOptions& options);

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

/// Write the `--profile` capture, if one was asked for; then 0 when every
/// run_scenario body succeeded so far, 1 otherwise.
int exit_status();

}  // namespace autopipe::bench
