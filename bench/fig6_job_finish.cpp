// Fig 6: the reverse of Fig 5 — an old distributed job *finishes*, so
// resources increase. "Actual" keeps the plan computed under contention;
// "Optimal" re-plans for the now-exclusive cluster. Re-configuration pays
// off for resource increases too.
#include <iostream>

#include "bench_common.hpp"

using namespace autopipe;

namespace {

bench::Degradation measure(const models::ModelSpec& model,
                           double bandwidth_gbps, const std::string& label) {
  bench::Degradation out;
  // Plan under contention: a foreign distributed job holds servers 3-4
  // (half their NIC capacity, one extra tenant per GPU), and the planner
  // planned around it.
  auto contended_plan = [&] {
    bench::Testbed view = bench::make_testbed(bandwidth_gbps);
    for (std::size_t server : {3u, 4u}) {
      view.cluster->set_nic_bandwidth(
          server, view.cluster->nic_bandwidth(server) * 0.5);
      for (std::size_t g = 0; g < view.cluster->config().gpus_per_server; ++g)
        view.cluster->add_background_job(
            server * view.cluster->config().gpus_per_server + g);
    }
    return bench::plan_refined(view, model, comm::pytorch_profile(),
                               comm::SyncScheme::kRing);
  }();
  {
    // Actual: the old job left, but we keep the contended-era plan.
    bench::Testbed t = bench::make_testbed(bandwidth_gbps);
    out.actual = bench::run_pipeline(t, model, contended_plan.partition,
                                     {.scenario = label + "_actual"})
                     .throughput;
  }
  {
    // Optimal: re-plan for the exclusive cluster.
    bench::Testbed t = bench::make_testbed(bandwidth_gbps);
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
      "Fig 6a — old distributed job finishes, model axis (25 Gbps)",
      "Fig 6b — old distributed job finishes, network axis (ResNet50)",
      models::resnet50(), "headroom", measure);
  std::cout << "\nPaper's shape: re-executing the work partition stays ahead "
               "of the stale configuration\neven when resources *increase*.\n";
  return bench::exit_status();
}
