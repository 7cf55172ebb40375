// Fig 5: a new *distributed* training job joins the shared cluster —
// consuming both GPU time (one extra tenant per device) and bandwidth (one
// persistent flow per NIC). "Actual" keeps PipeDream's exclusive-era plan;
// "Optimal" re-plans for the shared environment.
#include <iostream>

#include "bench_common.hpp"

using namespace autopipe;

namespace {

/// The joining job is placed on servers 3 and 4 (fluctuations are
/// localized, §3.1): +1 tenant on their GPUs and half their NIC capacity.
void apply_join(bench::Testbed& t) {
  for (std::size_t server : {3u, 4u}) {
    t.cluster->set_nic_bandwidth(server,
                                 t.cluster->nic_bandwidth(server) * 0.5);
    for (std::size_t g = 0; g < t.cluster->config().gpus_per_server; ++g)
      t.cluster->add_background_job(server * t.cluster->config().gpus_per_server + g);
  }
}

bench::Degradation measure(const models::ModelSpec& model,
                           double bandwidth_gbps, const std::string& label) {
  bench::Degradation out;
  {
    bench::Testbed t = bench::make_testbed(bandwidth_gbps);
    const auto plan = bench::plan_pipedream(t, model, comm::pytorch_profile(),
                                            comm::SyncScheme::kRing);
    apply_join(t);  // the new distributed job arrives
    out.actual = bench::run_pipeline(t, model, plan.partition,
                                     {.scenario = label + "_actual"})
                     .throughput;
  }
  {
    bench::Testbed t = bench::make_testbed(bandwidth_gbps);
    apply_join(t);
    // Re-plan with the heterogeneous contended environment visible.
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
      std::cout, "Fig 5a — new distributed job joins, model axis (25 Gbps)",
      "Fig 5b — new distributed job joins, network axis (ResNet50)",
      models::resnet50(), "degradation", measure);
  std::cout << "\nPaper's shape: joint bandwidth+GPU contention causes the "
               "largest degradations\n(36-60% in the paper's ResNet50/100Gbps "
               "cell).\n";
  return bench::exit_status();
}
