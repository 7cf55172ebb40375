// Declarative scenario-sweep specification. A sweep is a grid over the
// scenario axes the driver tools expose (model, system, cluster shape, NIC
// bandwidth, co-located jobs, churn, fault plan, seed); expanding the spec
// yields the full cross product as an ordered list of self-contained
// ScenarioSpecs. The expansion order is fixed (axis nesting, values in
// spec order), so "scenario #17 of this spec" means the same run on every
// machine and at every thread count — the sweep engine leans on that to
// merge parallel results deterministically.
//
// Spec text is `key = value[, value...]` lines; lines may also be separated
// by ';' so a whole spec fits in one shell argument. Blank lines and
// '#'-comments are ignored. Axis keys accept value lists; scalar keys
// (iterations, warmup, ...) do not. `seed` accepts `lo..hi` ranges.
// See docs/BENCHMARKS.md for the full grammar.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/jobs_spec.hpp"

namespace autopipe::sweep {

/// One fully-specified scenario: everything a runner needs to reproduce the
/// run bit-for-bit, with no environmental inputs.
struct ScenarioSpec {
  /// Filesystem-safe unique name derived from the axis values
  /// ("resnet50.autopipe.s5x2.bw25.j0.c0.f0.seed1").
  std::string label;

  std::string model = "resnet50";
  /// autopipe | pipedream | even | baseline (`autopipe_sim --system`; the
  /// sweep grammar takes the first three).
  std::string system = "autopipe";
  std::size_t servers = 5;
  std::size_t gpus_per_server = 2;
  double bandwidth_gbps = 25.0;
  int extra_jobs = 0;
  bool churn = false;
  /// `faults::parse_spec` input; empty = fault-free.
  std::string faults;
  std::uint64_t seed = 1;

  /// Co-tenant AutoPipe jobs sharing the cluster under the fleet's arbiter
  /// (src/cluster/); empty runs the single job the fields below describe.
  /// The sweep's jobs, job-models and arbiter keys and `autopipe_sim
  /// --jobs-spec` both produce it.
  cluster::FleetSpec fleet;

  std::size_t iterations = 40;
  std::size_t warmup = 10;
  std::size_t micro_batches = 4;
  /// 1f1b | gpipe | dapple | chimera | 2bw.
  std::string schedule = "1f1b";

  // autopipe_sim inputs with no sweep key.
  std::string framework = "pytorch";  ///< pytorch | tensorflow | mxnet
  std::string scheme = "ring";        ///< ps, or anything else for ring
  std::size_t batch = 0;              ///< mini-batch size; 0 = the model's
  /// After this many iterations every NIC drops to bw_drop_gbps; 0 = never.
  std::size_t bw_drop_iter = 0;
  double bw_drop_gbps = 10.0;
  /// After this many iterations every GPU gains a tenant; 0 = never.
  std::size_t jobs_iter = 0;
};

/// The parsed grid: per-axis value lists plus the run-shape scalars shared
/// by every scenario.
struct SweepSpec {
  std::vector<std::string> models = {"resnet50"};
  std::vector<std::string> systems = {"autopipe"};
  std::vector<std::size_t> servers = {5};
  std::vector<std::size_t> gpus_per_server = {2};
  std::vector<double> bandwidth_gbps = {25.0};
  std::vector<int> extra_jobs = {0};
  std::vector<bool> churn = {false};
  std::vector<std::string> faults = {""};
  std::vector<std::uint64_t> seeds = {1};
  /// Fleet-size axis; {1} keeps every scenario single-tenant.
  std::vector<std::size_t> jobs = {1};

  std::size_t iterations = 40;
  std::size_t warmup = 10;
  std::size_t micro_batches = 4;
  std::string schedule = "1f1b";
  std::string job_models;  ///< '+'-separated fleet model mix (scalar)
  std::string arbiter = "greedy";

  /// Number of scenarios the grid expands to.
  std::size_t scenario_count() const;

  /// The ordered cross product. Axis nesting (outermost first): model,
  /// system, servers, gpus-per-server, bandwidth, extra-jobs, jobs, churn,
  /// faults, seed; each axis iterates its values in spec order. A jobs
  /// value n > 1 becomes a fleet of n jobs cycling through job-models (or
  /// the scenario's model) with the spec's iterations, warmup and arbiter,
  /// and adds a label component (".J<n>.<arbiter>"); n = 1 is the single
  /// job with an empty fleet, so single-tenant labels are stable.
  std::vector<ScenarioSpec> expand() const;
};

/// Parse spec text (see the header comment for the grammar). Throws
/// common::contract_error with a key/value diagnostic on malformed input:
/// unknown keys, duplicate keys (the diagnostic names the key and both
/// source lines), empty value lists, non-numeric numbers, unknown model or
/// system names, a zero-scenario grid.
SweepSpec parse_sweep_spec(const std::string& text);

/// Resolve a `--spec=` argument: `@path` loads the file (std::runtime_error
/// when unreadable), anything else is inline spec text.
SweepSpec load_sweep_spec(const std::string& arg);

}  // namespace autopipe::sweep
