// Ablation: fine-grained state switching (§4.4) vs the stop-the-world
// straw-man of §3.1. Same partitions, same switch points; only the
// migration mechanism differs. Fine-grained keeps the pipeline running by
// migrating the stash-ordered weight copies while training continues.
#include <iostream>

#include "bench_common.hpp"

using namespace autopipe;

namespace {

pipeline::ExecutionReport run_with(
    pipeline::PipelineExecutor::SwitchMode mode, const std::string& label) {
  const auto model = models::vgg16();
  bench::Testbed t = bench::make_testbed(25);
  const auto plan = bench::plan_pipedream(t, model, comm::pytorch_profile(),
                                          comm::SyncScheme::kRing);
  sim::ResourceTrace trace;
  trace.at_iteration(10, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  trace.at_iteration(30, sim::ResourceTrace::set_all_nic_bandwidth(gbps(40)));

  core::ControllerConfig cc;
  cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
  cc.use_meta_network = false;
  cc.decision_interval = 3;
  cc.switch_mode = mode;
  bench::RunOptions options;
  options.controller = cc;
  options.iterations = 50;
  options.warmup = 8;
  options.trace = &trace;
  options.scenario = label;
  return bench::run_pipeline(t, model, plan.partition, options);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  const auto fine =
      run_with(pipeline::PipelineExecutor::SwitchMode::kFineGrained,
               "fine_grained");
  const auto stop =
      run_with(pipeline::PipelineExecutor::SwitchMode::kStopTheWorld,
               "stop_the_world");

  TextTable table({"switching", "throughput (img/s)",
                   "injection stall (s)"});
  table.add_row({"fine-grained (AutoPipe)", TextTable::num(fine.throughput, 1),
                 TextTable::num(fine.switch_stall, 3)});
  table.add_row({"stop-the-world", TextTable::num(stop.throughput, 1),
                 TextTable::num(stop.switch_stall, 3)});
  table.print(std::cout,
              "Ablation — state-switching mechanism (VGG16, two bandwidth "
              "changes)");
  std::cout << "\nFine-grained switching avoids the drain + refill bubble: "
            << TextTable::num(bench::speedup_pct(fine.throughput,
                                                 stop.throughput), 1)
            << "% higher throughput here.\n";
  return bench::exit_status();
}
