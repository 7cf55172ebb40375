// Ablation: AutoPipe's two-worker neighbourhood vs re-running the full DP
// on every resource change. The neighbourhood limits each reconfiguration
// to a cheap two-worker migration (gradual convergence to the optimum); the
// full re-plan may jump straight to the best shape but forces a much larger
// migration. We compare end throughput, switches and migrated state.
#include <iostream>

#include "autopipe/switch_cost.hpp"
#include "bench_common.hpp"

using namespace autopipe;

namespace {

struct Outcome {
  double throughput = 0.0;
  std::size_t switches = 0;
  double migrated_mb = 0.0;
};

/// Neighbourhood mode: the regular controller (threshold arbiter).
Outcome run_neighborhood() {
  const auto model = models::vgg16();
  bench::Testbed t = bench::make_testbed(25);
  const auto plan = bench::plan_pipedream(t, model, comm::pytorch_profile(),
                                          comm::SyncScheme::kRing);
  pipeline::PipelineExecutor executor(*t.cluster, model, plan.partition,
                                      pipeline::ExecutorConfig{});
  core::ControllerConfig cc;
  cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
  cc.use_meta_network = false;
  cc.decision_interval = 3;
  cc.replan_on_change = false;  // pure two-worker moves in this arm
  core::AutoPipeController controller(*t.cluster, executor, cc, nullptr,
                                      nullptr);
  controller.attach();

  sim::ResourceTrace trace;
  trace.at_iteration(10, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  double migrated = 0.0;
  partition::Partition previous = plan.partition;
  executor.set_iteration_callback([&](std::size_t iters) {
    trace.apply_iteration(iters, *t.cluster);
    controller.on_iteration(iters);
    if (!(executor.current_partition() == previous)) {
      partition::EnvironmentView env = partition::EnvironmentView::from_cluster(
          *t.cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
      migrated += core::analytic_switch_cost(
                      model, previous.stages(),
                      executor.current_partition().stages(), env, 0.1, 10,
                      millis(2))
                      .migration_bytes;
      previous = executor.current_partition();
    }
  });
  const auto report = executor.run(50, 20);
  bench::write_outputs(t, "neighborhood");
  return Outcome{report.throughput, executor.switches_performed(),
                 migrated / 1e6};
}

/// Full-replan mode: on the resource change, adopt the freshly-solved DP
/// plan wholesale (one big switch).
Outcome run_full_replan() {
  const auto model = models::vgg16();
  bench::Testbed t = bench::make_testbed(25);
  const auto plan = bench::plan_pipedream(t, model, comm::pytorch_profile(),
                                          comm::SyncScheme::kRing);
  pipeline::PipelineExecutor executor(*t.cluster, model, plan.partition,
                                      pipeline::ExecutorConfig{});
  sim::ResourceTrace trace;
  trace.at_iteration(10, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  double migrated = 0.0;
  executor.set_iteration_callback([&](std::size_t iters) {
    trace.apply_iteration(iters, *t.cluster);
    if (iters == 12 && !executor.switch_in_progress()) {
      const auto replan = bench::plan_current(t, model,
                                              comm::pytorch_profile(),
                                              comm::SyncScheme::kRing);
      partition::EnvironmentView env = partition::EnvironmentView::from_cluster(
          *t.cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
      migrated += core::analytic_switch_cost(
                      model, executor.current_partition().stages(),
                      replan.partition.stages(), env, 0.1, 10, millis(2))
                      .migration_bytes;
      executor.request_switch(
          replan.partition,
          pipeline::PipelineExecutor::SwitchMode::kFineGrained);
    }
  });
  const auto report = executor.run(50, 20);
  bench::write_outputs(t, "full_replan");
  return Outcome{report.throughput, executor.switches_performed(),
                 migrated / 1e6};
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  const Outcome nb = run_neighborhood();
  const Outcome full = run_full_replan();
  TextTable table({"strategy", "throughput (img/s)", "switches",
                   "migrated (MB)"});
  table.add_row({"two-worker neighbourhood", TextTable::num(nb.throughput, 1),
                 std::to_string(nb.switches), TextTable::num(nb.migrated_mb, 1)});
  table.add_row({"full DP re-plan", TextTable::num(full.throughput, 1),
                 std::to_string(full.switches),
                 TextTable::num(full.migrated_mb, 1)});
  table.print(std::cout,
              "Ablation — neighbourhood search vs full re-plan "
              "(VGG16, 25 Gbps -> 10 Gbps)");
  std::cout << "\nThe neighbourhood migrates gradually with small cheap "
               "switches, but hill-climbs into\nlocal optima when several "
               "stages degrade at once; the one-shot re-plan moves more\n"
               "state but lands on the globally better shape. AutoPipe's "
               "deployed controller therefore\ncombines both: re-plan on "
               "detected changes, neighbourhood fine-tuning in between.\n";
  return bench::exit_status();
}
