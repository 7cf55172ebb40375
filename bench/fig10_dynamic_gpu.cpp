// Fig 10: training under dynamic GPU availability. ResNet50, Ring/PyTorch
// at 25 Gbps. A local training job lands on five GPUs at iteration 20 and
// a second one on three of them at iteration 40. PipeDream keeps its
// iteration-0 partition; AutoPipe re-configures around the contention.
#include <iostream>

#include "bench_common.hpp"

using namespace autopipe;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  // Local training jobs land where the scheduler packs them — on a subset
  // of devices (fluctuations are localized, §3.1): five GPUs gain a tenant
  // at iteration 20; at iteration 40 three of those gain a second tenant.
  sim::ResourceTrace trace;
  for (sim::WorkerId w : {0u, 1u, 2u, 3u, 4u})
    trace.at_iteration(20, sim::ResourceTrace::add_gpu_job(w));
  for (sim::WorkerId w : {0u, 1u, 2u})
    trace.at_iteration(40, sim::ResourceTrace::add_gpu_job(w));
  const bench::SeriesPhase phases[] = {
      {"exclusive", 5, 20}, {"5 busy GPUs", 25, 40}, {"3 doubly busy", 45, 60}};
  bench::dynamic_series(
      "Fig 10",
      "ResNet50 under dynamic GPUs (5 GPUs busy@20, 3 of them doubly busy@40)",
      models::resnet50(), trace, phases);
  std::cout << "\nPaper's shape: AutoPipe leads throughout, and gains grow "
               "with more contending jobs;\ncompute contention hurts training "
               "speed more than bandwidth loss.\n";
  return bench::exit_status();
}
