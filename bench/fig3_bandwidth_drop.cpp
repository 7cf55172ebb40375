// Fig 3: impact of dynamically changing bandwidth on PipeDream. The job
// starts with exclusive bandwidth; mid-experiment the available bandwidth
// is halved. "Actual" keeps PipeDream's original work partition; "Optimal"
// re-executes the work partition for the halved environment. Panel (a)
// varies the model at 25 Gbps; panel (b) varies the network speed for
// VGG16 — the same axes as the paper.
#include <iostream>

#include "bench_common.hpp"

using namespace autopipe;

namespace {

bench::Degradation measure(const models::ModelSpec& model,
                           double bandwidth_gbps, const std::string& label) {
  bench::Degradation out;
  {
    // Actual: plan at full bandwidth, run at half.
    bench::Testbed t = bench::make_testbed(bandwidth_gbps);
    const auto plan = bench::plan_pipedream(t, model, comm::pytorch_profile(),
                                            comm::SyncScheme::kRing);
    t.cluster->set_all_nic_bandwidth(gbps(bandwidth_gbps / 2.0));
    out.actual = bench::run_pipeline(t, model, plan.partition,
                                     {.scenario = label + "_actual"})
                     .throughput;
  }
  {
    // Optimal: re-plan against the halved environment, run at half.
    bench::Testbed t = bench::make_testbed(bandwidth_gbps / 2.0);
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
      std::cout,
      "Fig 3a — bandwidth halved mid-training, model axis "
      "(25 Gbps -> 12.5 Gbps)",
      "Fig 3b — bandwidth halved mid-training, network axis (VGG16)",
      models::vgg16(), "degradation", measure);
  std::cout << "\nPaper's shape: re-planning wins everywhere; degradation is "
               "worst on slow networks\n(up to 55% at 10 Gbps) and on "
               "communication-heavy models.\n";
  return bench::exit_status();
}
