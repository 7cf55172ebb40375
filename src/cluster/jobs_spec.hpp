// Fleet specification for co-tenant runs: which jobs share the cluster,
// which arbiter policy mediates their reconfiguration conflicts, and any
// scripted preemptions. The text grammar mirrors the sweep spec
// (src/sweep/spec.hpp): statements separated by newlines or ';', '#' starts
// a comment, each statement is `key = value`. Unlike the sweep grammar the
// job/preempt values are themselves `k=v` token lists:
//
//   arbiter = priority          # greedy | priority | auction
//   claim-window = 0.05         # seconds a freed GPU stays claimable
//   job = model=alexnet iterations=30 warmup=5 priority=2 workers=0..3
//   job = model=vgg16 iterations=20 priority=1          # workers: auto
//   preempt = worker=2 at=1.5 for=2.0
//
// Jobs without an explicit `workers=` list split the remaining workers
// evenly, in declaration order (assign_default_workers). Every malformed
// construct throws contract_error with the offending line number — the
// fuzz suite holds the reader to parse-or-diagnose, never crash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/cluster.hpp"

namespace autopipe::cluster {

/// One tenant job of the fleet.
struct JobSpec {
  std::string model = "alexnet";
  std::size_t iterations = 30;
  std::size_t warmup = 5;
  /// Static priority consumed by the priority/auction arbiters.
  double priority = 1.0;
  /// Samples per mini-batch; 0 uses the model default.
  std::size_t batch = 0;
  /// Initially-owned workers; empty = assigned by assign_default_workers.
  std::vector<sim::WorkerId> workers;
  bool operator==(const JobSpec&) const = default;
};

/// One scripted preemption: the worker goes down at `at` and returns
/// `duration` seconds later — at which point it re-enters the cluster as a
/// *free* GPU that every running job may claim.
struct PreemptSpec {
  sim::WorkerId worker = 0;
  Seconds at = 0.0;
  Seconds duration = 0.0;
  bool operator==(const PreemptSpec&) const = default;
};

struct FleetSpec {
  std::string arbiter = "greedy";
  /// How long a freed GPU collects claims before the arbiter resolves them.
  Seconds claim_window = 0.05;
  std::vector<JobSpec> jobs;
  std::vector<PreemptSpec> preempts;
  bool operator==(const FleetSpec&) const = default;
};

/// Parse the fleet grammar above. Throws contract_error (with a line
/// number) on any malformed statement, duplicate scalar key, unknown
/// model/arbiter name, or a spec declaring no jobs.
FleetSpec parse_jobs_spec(const std::string& text);

/// CLI form: `@path` reads the spec from a file, anything else is parsed
/// as inline spec text.
FleetSpec load_jobs_spec(const std::string& arg);

/// Fill in the worker sets of jobs that declared none: the workers not
/// explicitly claimed are split as evenly as possible across those jobs, in
/// declaration order. Validates that explicit sets are in range, pairwise
/// disjoint, and that every job ends up with at least one worker.
void assign_default_workers(FleetSpec& spec, std::size_t num_workers);

}  // namespace autopipe::cluster
