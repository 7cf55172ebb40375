// Ablation: the in-flight mini-batch count (PipeDream's NOW). Observation 3
// says the pipeline rarely fills at the textbook NOW because BP != FP and
// communication is not free; this sweep quantifies the fill/memory
// trade-off around the derived optimum for each model.
#include <iostream>

#include "bench_common.hpp"
#include "partition/analytic_eval.hpp"
#include "pipeline/memory.hpp"

using namespace autopipe;
using bench::RunOptions;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  for (const auto& model : models::image_models()) {
    bench::Testbed planning = bench::make_testbed(25);
    const auto plan = bench::plan_pipedream(
        planning, model, comm::pytorch_profile(), comm::SyncScheme::kRing);
    const std::size_t now = partition::optimal_in_flight(plan.partition);

    TextTable table({"in-flight", "img/s", "utilization",
                     "peak stash (GB, worst worker)"});
    for (int delta : {-2, -1, 0, 1, 2, 4}) {
      if (static_cast<int>(now) + delta < 1) continue;
      const auto in_flight = static_cast<std::size_t>(
          static_cast<int>(now) + delta);
      bench::Testbed t = bench::make_testbed(25);
      RunOptions options;
      options.executor.in_flight = in_flight;
      options.iterations = 120;
      options.warmup = 40;
      options.scenario =
          model.name() + "_inflight" + std::to_string(in_flight);
      const auto report =
          bench::run_pipeline(t, model, plan.partition, options);
      Bytes peak = 0.0;
      for (sim::WorkerId w : plan.partition.all_workers()) {
        peak = std::max(peak, pipeline::worker_memory_footprint(
                                  model, plan.partition, w,
                                  model.default_batch_size(),
                                  pipeline::ScheduleMode::kAsync1F1B,
                                  in_flight));
      }
      std::string label = std::to_string(in_flight);
      if (delta == 0) label += " (= NOW)";
      table.add_row({label, TextTable::num(report.throughput, 1),
                     TextTable::num(report.worker_utilization, 3),
                     TextTable::num(peak / 1e9, 2)});
    }
    table.print(std::cout,
                std::string("Ablation — in-flight sweep, ") + model.name() +
                    " (25 Gbps, PipeDream plan)");
    std::cout << '\n';
  }
  std::cout << "Observation 3 quantified: throughput saturates at or just "
               "above the derived NOW; every\nextra in-flight batch costs a "
               "full weight-stash copy plus activation memory.\n";
  return bench::exit_status();
}
