// Fig 4: impact of dynamically changing computation resources on PipeDream.
// An extra training job lands on every GPU mid-experiment (the paper adds a
// ResNet50 job per device). "Actual" keeps the original partition planned
// for exclusive GPUs; "Optimal" re-plans for the contended speeds.
#include <iostream>

#include "bench_common.hpp"

using namespace autopipe;

namespace {

bench::Degradation measure(const models::ModelSpec& model,
                           double bandwidth_gbps, const std::string& label) {
  bench::Degradation out;
  {
    bench::Testbed t = bench::make_testbed(bandwidth_gbps);
    const auto plan = bench::plan_pipedream(t, model, comm::pytorch_profile(),
                                            comm::SyncScheme::kRing);
    for (sim::WorkerId w = 0; w < t.cluster->num_workers(); ++w)
      t.cluster->add_background_job(w);
    out.actual = bench::run_pipeline(t, model, plan.partition,
                                     {.scenario = label + "_actual"})
                     .throughput;
  }
  {
    bench::Testbed t = bench::make_testbed(bandwidth_gbps);
    for (sim::WorkerId w = 0; w < t.cluster->num_workers(); ++w)
      t.cluster->add_background_job(w);
    const auto plan = bench::plan_refined(t, model, comm::pytorch_profile(),
                                          comm::SyncScheme::kRing);
    out.optimal = bench::run_pipeline(t, model, plan.partition,
                                      {.scenario = label + "_optimal"})
                      .throughput;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::degradation_panels(
      std::cout, "Fig 4a — one extra job per GPU, model axis (25 Gbps)",
      "Fig 4b — one extra job per GPU, network axis (ResNet50)",
      models::resnet50(), "degradation", measure);
  std::cout << "\nPaper's shape: GPU contention hurts across all models; the "
               "gap to optimal grows with\nnetwork speed (39% at 10 Gbps -> "
               "45% at 100 Gbps in the paper) because computation\nis a "
               "larger share of the iteration on fast networks.\n";
  return bench::exit_status();
}
