// Fig 10: training under dynamic GPU availability. ResNet50, Ring/PyTorch
// at 25 Gbps. A local training job lands on every GPU at iteration 20 and
// another at iteration 40. PipeDream keeps its iteration-0 partition;
// AutoPipe re-configures around the contention.
#include <iostream>

#include "bench_common.hpp"

using namespace autopipe;
using bench::RunOptions;

namespace {

bench::RunResult run_series(bool autopipe_on) {
  const auto model = models::resnet50();
  bench::Testbed t = bench::make_testbed(25);
  const auto plan = bench::plan_pipedream(t, model, comm::pytorch_profile(),
                                          comm::SyncScheme::kRing);
  // Local training jobs land where the scheduler packs them — on a subset
  // of devices (fluctuations are localized, §3.1): five GPUs gain a tenant
  // at iteration 20; at iteration 40 three of those gain a second tenant.
  sim::ResourceTrace trace;
  for (sim::WorkerId w : {0u, 1u, 2u, 3u, 4u})
    trace.at_iteration(20, sim::ResourceTrace::add_gpu_job(w));
  for (sim::WorkerId w : {0u, 1u, 2u})
    trace.at_iteration(40, sim::ResourceTrace::add_gpu_job(w));

  RunOptions options;
  options.autopipe = autopipe_on;
  options.trace = &trace;
  options.iterations = 60;
  options.warmup = 5;
  return bench::run_pipeline(t, model, plan.partition, options);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  const auto pipedream = run_series(false);
  const auto autopipe = run_series(true);

  TextTable table({"iteration", "PipeDream (img/s)", "AutoPipe (img/s)"});
  for (std::size_t i = 4; i < pipedream.end_times.size(); i += 5) {
    table.add_row({std::to_string(i + 1),
                   TextTable::num(pipedream.window_mean(i - 4, i + 1), 1),
                   TextTable::num(autopipe.window_mean(i - 4, i + 1), 1)});
  }
  table.print(std::cout,
              "Fig 10 — ResNet50 under dynamic GPUs (5 GPUs busy@20, 3 of them doubly busy@40)");

  TextTable summary({"phase", "PipeDream", "AutoPipe", "speedup"});
  const std::pair<std::size_t, std::size_t> phases[] = {
      {5, 20}, {25, 40}, {45, 60}};
  const char* labels[] = {"exclusive", "5 busy GPUs", "3 doubly busy"};
  for (int p = 0; p < 3; ++p) {
    const double pd = pipedream.window_mean(phases[p].first,
                                            phases[p].second);
    const double ap = autopipe.window_mean(phases[p].first,
                                           phases[p].second);
    summary.add_row({labels[p], TextTable::num(pd, 1), TextTable::num(ap, 1),
                     TextTable::num(bench::speedup_pct(ap, pd), 0) + "%"});
  }
  std::cout << '\n';
  summary.print(std::cout, "Fig 10 — per-phase means");
  std::cout << "\nPaper's shape: AutoPipe leads throughout, and gains grow "
               "with more contending jobs;\ncompute contention hurts training "
               "speed more than bandwidth loss.\n";
  return bench::exit_status();
}
