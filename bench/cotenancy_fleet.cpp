// Co-tenancy fleet figures: N concurrent AutoPipe jobs on one 4×2 fabric,
// one scripted preemption per run, swept over fleet size × arbiter policy.
// Produces the BENCH_cotenancy.json rows behind docs/COTENANCY.md —
// aggregate fleet throughput, Jain fairness vs. job count, and
// reconfiguration-storm (conflict) counts per arbiter policy.
//
// Each multi-job run also enforces the smoke invariant CI gates on: the
// preempted GPU's return is claimed by more than one controller, and the
// arbiter commits exactly one winning reconfiguration for it — one
// arbiter_grant event for that worker, every rival aborted through the
// rollback path.
//
//   cotenancy_fleet [--out=PATH]
//
// `autopipe_trace gate` checks the --out report's fleet_throughput per
// scenario label against bench/baselines/cotenancy_baseline.json
// (docs/BENCHMARKS.md, "Gates").
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "cluster/job_manager.hpp"
#include "cluster/jobs_spec.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "sim/cluster.hpp"
#include "sim/simulator.hpp"

using namespace autopipe;

namespace {

constexpr std::size_t kServers = 4;
constexpr std::size_t kGpusPerServer = 2;
/// The scripted preemption every scenario shares: this worker drops out
/// early and returns as a free GPU that every running job may claim.
constexpr sim::WorkerId kPreemptedWorker = 1;

struct FleetOutcome {
  std::string label;
  std::size_t jobs = 0;
  std::string policy;
  cluster::FleetReport report;
  /// arbiter_grant events for the preempted worker (smoke invariant: == 1
  /// for every multi-job scenario).
  std::size_t preempt_grants = 0;
};

FleetOutcome run_fleet(std::size_t njobs, const std::string& policy) {
  sim::Simulator simulator;
  simulator.tracer().set_enabled(true);

  sim::ClusterConfig cluster_config;
  cluster_config.num_servers = kServers;
  cluster_config.gpus_per_server = kGpusPerServer;
  sim::Cluster cluster(simulator, cluster_config);

  // Mixed-model fleet with spread priorities so the three policies
  // genuinely disagree about winners.
  static constexpr const char* kModels[] = {"alexnet", "vgg16", "resnet18",
                                            "alexnet"};
  // The heavy, slow-gaining vgg16 job gets the top priority so greedy
  // (gain-max) and priority (priority-max) disagree about winners.
  static constexpr double kPriorities[] = {1.0, 4.0, 2.0, 1.5};
  static constexpr std::size_t kIterations[] = {30, 15, 25, 20};

  cluster::FleetSpec fleet;
  fleet.arbiter = policy;
  for (std::size_t k = 0; k < njobs; ++k) {
    cluster::JobSpec job;
    job.model = kModels[k % 4];
    job.iterations = kIterations[k % 4];
    job.warmup = 5;
    job.priority = kPriorities[k % 4];
    fleet.jobs.push_back(std::move(job));
  }
  cluster::PreemptSpec preempt;
  preempt.worker = kPreemptedWorker;
  preempt.at = 0.8;
  preempt.duration = 1.0;
  fleet.preempts.push_back(preempt);
  cluster::assign_default_workers(fleet, cluster.num_workers());

  cluster::JobManager manager(simulator, cluster, fleet);

  FleetOutcome out;
  out.jobs = njobs;
  out.policy = policy;
  out.label = "J" + std::to_string(njobs) + "." + policy;
  out.report = manager.run();
  for (const trace::Event& ev : simulator.tracer().events()) {
    if (ev.name != "arbiter_grant") continue;
    const std::string* worker = ev.find_arg("worker");
    if (worker != nullptr &&
        *worker == std::to_string(kPreemptedWorker))
      ++out.preempt_grants;
  }
  return out;
}

void write_json(const std::vector<FleetOutcome>& outcomes, std::ostream& os) {
  analysis::JsonWriter json(os);
  json.begin_object();
  json.kv("schema", "autopipe-cotenancy-v1");
  json.kv("servers", kServers);
  json.kv("gpus_per_server", kGpusPerServer);
  json.kv("scenario_count", outcomes.size());
  json.key("scenarios");
  json.begin_array();
  for (const FleetOutcome& o : outcomes) {
    json.begin_object();
    json.kv("label", o.label);
    json.kv("jobs", o.jobs);
    json.kv("arbiter", o.policy);
    json.kv("fleet_throughput", o.report.fleet_throughput);
    json.kv("jain", o.report.jain);
    json.kv("claim_rounds", o.report.claim_rounds);
    json.kv("conflicts", o.report.conflicts);
    json.kv("grants", o.report.grants);
    json.kv("denials", o.report.denials);
    json.kv("contention_aborts", o.report.contention_aborts);
    json.kv("preempt_grants", o.preempt_grants);
    json.key("job_throughputs");
    json.begin_array();
    for (const auto& j : o.report.jobs) json.value(j.report.throughput);
    json.end();
    json.end();
  }
  json.end();
  json.end();
  os << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string out_path = flags.get("out", "");
  for (const std::string& flag : flags.unused())
    std::cerr << "warning: unknown flag --" << flag << "\n";

  std::vector<FleetOutcome> outcomes;
  int failures = 0;
  for (const std::size_t njobs : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    for (const char* policy : {"greedy", "priority", "auction"}) {
      // A one-job fleet has no contention to arbitrate; keep one row.
      if (njobs == 1 && std::string(policy) != "greedy") continue;
      try {
        outcomes.push_back(run_fleet(njobs, policy));
      } catch (const std::exception& e) {
        std::cerr << "cotenancy_fleet: J" << njobs << "." << policy
                  << " FAILED: " << e.what() << "\n";
        ++failures;
      }
    }
  }

  TextTable table({"fleet", "samples/s", "jain", "rounds", "conflicts",
                   "grants", "aborts", "preempt grants"});
  for (const FleetOutcome& o : outcomes) {
    table.add_row({o.label, TextTable::num(o.report.fleet_throughput, 1),
                   TextTable::num(o.report.jain, 4),
                   std::to_string(o.report.claim_rounds),
                   std::to_string(o.report.conflicts),
                   std::to_string(o.report.grants),
                   std::to_string(o.report.contention_aborts),
                   std::to_string(o.preempt_grants)});
  }
  table.print(std::cout, "cotenancy fleet");

  // Smoke invariant: in every multi-job fleet the preempted GPU's return
  // commits exactly one winning reconfiguration.
  for (const FleetOutcome& o : outcomes) {
    if (o.jobs < 2) continue;
    if (o.preempt_grants != 1) {
      std::cerr << "cotenancy_fleet: " << o.label << ": expected exactly one "
                << "arbiter grant for the preempted worker, saw "
                << o.preempt_grants << "\n";
      ++failures;
    }
    if (o.report.conflicts > 0 && o.report.contention_aborts == 0) {
      std::cerr << "cotenancy_fleet: " << o.label << ": conflicts resolved "
                << "without any contention abort\n";
      ++failures;
    }
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out.good()) {
      std::cerr << "cotenancy_fleet: cannot open --out file: " << out_path
                << "\n";
      return 2;
    }
    write_json(outcomes, out);
    std::cout << "wrote " << out_path << "\n";
  }

  if (failures > 0) {
    std::cerr << "cotenancy_fleet: " << failures << " failure(s)\n";
    return 1;
  }
  return 0;
}
