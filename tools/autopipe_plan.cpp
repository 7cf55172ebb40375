// autopipe_plan — planner inspection. Prints the Table-1 profile, the
// PipeDream plan, the current-environment re-plan and the rebalanced
// variant for a model on a configurable cluster, with analytic speed
// estimates and memory-fit checks — without running a simulation.
//
//   autopipe_plan --model resnet50 --bandwidth 25
//   autopipe_plan --model vgg16 --bandwidth 10 --extra-jobs 2 --profile
#include <iostream>
#include <sstream>

#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "models/zoo.hpp"
#include "partition/analytic_eval.hpp"
#include "partition/pipedream_planner.hpp"
#include "partition/rebalance.hpp"
#include "pipeline/memory.hpp"
#include "sim/cluster.hpp"

using namespace autopipe;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    std::cout <<
        "autopipe_plan — inspect work partitions without simulating\n\n"
        "  --model NAME        alexnet | vgg16 | resnet50 | resnet18 |"
        " bert48 | gpt2\n"
        "  --bandwidth GBPS    NIC line rate (default 25)\n"
        "  --servers N         (default 5)   --gpus-per-server N (default 2)\n"
        "  --extra-jobs N      tenants per GPU beyond this job (default 0)\n"
        "  --batch N           mini-batch size (default: model's)\n"
        "  --profile           also print the per-layer Table-1 profile\n";
    return 0;
  }

  const auto model = models::model_by_name(flags.get("model", "resnet50"));
  std::size_t batch = flags.get_count("batch", 0);
  if (batch == 0) batch = model.default_batch_size();

  sim::Simulator simulator;
  sim::ClusterConfig config;
  config.num_servers = flags.get_count("servers", 5);
  config.gpus_per_server = flags.get_count("gpus-per-server", 2);
  config.nic_bandwidth = gbps(flags.get_double("bandwidth", 25));
  sim::Cluster cluster(simulator, config);
  for (std::int64_t j = 0; j < flags.get_int("extra-jobs", 0); ++j)
    for (sim::WorkerId w = 0; w < cluster.num_workers(); ++w)
      cluster.add_background_job(w);

  if (flags.get_bool("profile", false)) {
    TextTable profile({"layer", "fwd GFLOP/batch", "act MB/batch",
                       "params MB"});
    for (std::size_t l = 0; l < model.num_layers(); ++l) {
      profile.add_row({model.layer(l).name,
                       TextTable::num(model.fwd_flops(l, batch) / 1e9, 2),
                       TextTable::num(model.activation_bytes(l, batch) / 1e6,
                                      2),
                       TextTable::num(model.param_bytes(l) / 1e6, 2)});
    }
    profile.print(std::cout, "Table-1 profile, batch " +
                                 std::to_string(batch));
    std::cout << '\n';
  }

  const auto env = partition::EnvironmentView::from_cluster(
      cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);

  struct Candidate {
    std::string name;
    partition::PlanResult plan;
  };
  std::vector<Candidate> candidates;
  {
    partition::PipeDreamPlanner planner(
        model, env, batch, partition::PipeDreamPlanner::Mode::kPipeDream);
    candidates.push_back({"PipeDream (simplified model)",
                          planner.plan(cluster.num_workers())});
  }
  {
    partition::PipeDreamPlanner planner(
        model, env, batch,
        partition::PipeDreamPlanner::Mode::kCurrentEnvironment);
    candidates.push_back({"re-plan (current environment)",
                          planner.plan(cluster.num_workers())});
  }
  {
    auto rebalanced = partition::speed_proportional_rebalance(
        model, candidates.back().plan.partition, env, batch);
    partition::PlanResult plan{rebalanced,
                               partition::optimal_in_flight(rebalanced), 0.0};
    candidates.push_back({"rebalanced (speed-proportional)", plan});
  }

  TextTable table({"planner", "partition", "in-flight",
                   "analytic img/s", "fits 16GB"});
  for (const auto& [name, plan] : candidates) {
    const double speed =
        partition::analytic_throughput(model, plan.partition, env, batch);
    const bool fits = pipeline::plan_fits_memory(
        cluster, model, plan.partition, batch,
        pipeline::ScheduleMode::kAsync1F1B, plan.in_flight);
    table.add_row({name, plan.partition.to_string(),
                   std::to_string(plan.in_flight), TextTable::num(speed, 1),
                   fits ? "yes" : "NO"});
  }
  table.print(std::cout, model.name() + " on " +
                             std::to_string(cluster.num_workers()) +
                             " workers");

  for (const std::string& flag : flags.unused())
    std::cerr << "warning: unknown flag --" << flag << " (see --help)\n";
  return 0;
}
