// Fig 13: AutoPipe-enhanced versions of other pipeline-parallel systems.
// BERT-48 (mini-batch 256) trains under DAPPLE, Chimera and PipeDream-2BW
// schedules; each is run vanilla (static even split — these systems target
// structurally uniform models) and AutoPipe-enhanced (the re-configuration
// loop attached), in a shared cluster where bandwidth degrades mid-run.
#include <iostream>

#include "bench_common.hpp"

using namespace autopipe;
using bench::RunOptions;

namespace {

double measure(pipeline::ScheduleMode mode, bool enhanced,
               const std::string& label) {
  const auto model = models::bert48();
  bench::Testbed t = bench::make_testbed(100);
  bench::add_shared_jobs(t, 1);
  const auto partition = partition::Partition::even_split(
      model.num_layers(), t.all_workers());

  // Localized mid-run contention (fluctuations affect a few GPUs/links at a
  // time, §3.1): two servers lose half their bandwidth, then four GPUs gain
  // a co-located tenant.
  sim::ResourceTrace trace;
  trace.at_iteration(12, sim::ResourceTrace::set_nic_bandwidth(0, gbps(25)));
  trace.at_iteration(12, sim::ResourceTrace::set_nic_bandwidth(1, gbps(25)));
  for (sim::WorkerId w : {4u, 5u, 6u, 7u})
    trace.at_iteration(24, sim::ResourceTrace::add_gpu_job(w));

  RunOptions options;
  options.executor.mode = mode;
  options.executor.micro_batches = 8;
  if (enhanced) options.controller = bench::autopipe_controller();
  options.trace = &trace;
  options.iterations = 80;
  options.warmup = 30;
  options.scenario = label + (enhanced ? "_autopipe" : "_vanilla");
  return bench::run_pipeline(t, model, partition, options).throughput;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  const std::pair<const char*, pipeline::ScheduleMode> systems[] = {
      {"DAPPLE", pipeline::ScheduleMode::kDapple},
      {"Chimera", pipeline::ScheduleMode::kChimera},
      {"PipeDream-2BW", pipeline::ScheduleMode::kTwoBW},
  };
  TextTable table({"system", "vanilla (seq/s)", "AutoPipe-enhanced (seq/s)",
                   "improvement"});
  for (const auto& [name, mode] : systems) {
    const double vanilla = measure(mode, false, name);
    const double enhanced = measure(mode, true, name);
    table.add_row({name, TextTable::num(vanilla, 1),
                   TextTable::num(enhanced, 1),
                   TextTable::num(bench::speedup_pct(enhanced, vanilla), 1) +
                       "%"});
  }
  table.print(std::cout,
              "Fig 13 — AutoPipe-enhanced pipeline systems, BERT-48 "
              "(batch 256, dynamic shared cluster)");
  std::cout << "\nPaper's shape: every AutoPipe-enhanced variant outperforms "
               "its vanilla counterpart\n(5-15% range in the paper's "
               "figure).\n";
  return bench::exit_status();
}
