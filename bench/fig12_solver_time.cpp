// Fig 12: wall-clock computation time of worker-partition modelling —
// PipeDream's DP versus AutoPipe's meta-network candidate scoring and the
// RL arbiter's decision, on AlexNet / ResNet50 / VGG16. The paper's claim:
// the meta-network and RL model together cost less than the DP, and the
// whole AutoPipe partition calculation stays under one second.
#include <chrono>
#include <iostream>

#include "autopipe/features.hpp"
#include "autopipe/meta_network.hpp"
#include "bench_common.hpp"
#include "partition/neighborhood.hpp"
#include "partition/exhaustive.hpp"
#include "rl/dqn.hpp"

using namespace autopipe;

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  const core::FeatureEncoder encoder;
  core::MetaNetworkConfig mc;
  mc.dynamic_dim = encoder.dynamic_dim();
  mc.static_dim = encoder.static_dim();
  mc.partition_dim = encoder.partition_dim();
  core::MetaNetwork meta(mc, 7);

  rl::DqnConfig dc;
  dc.state_dim = encoder.arbiter_dim();
  rl::DqnAgent agent(dc, 11);

  TextTable table({"model", "candidates", "PipeDream DP (s)",
                   "meta-network (s)", "RL model (s)", "AutoPipe total (s)"});
  for (const auto& model : {models::alexnet(), models::resnet50(),
                            models::vgg16()}) {
    bench::Testbed t = bench::make_testbed(25);
    const auto env = partition::EnvironmentView::from_cluster(
        *t.cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);

    // PipeDream's DP.
    partition::PipeDreamPlanner planner(model, env,
                                        model.default_batch_size());
    const auto plan = planner.plan(t.cluster->num_workers());
    const double dp_seconds = planner.last_solve_seconds();

    // AutoPipe: score the whole two-worker neighbourhood with the
    // meta-network (one forward pass per candidate).
    const auto candidates = partition::two_worker_candidates(plan.partition);
    const std::vector<std::vector<double>> seq(
        8, std::vector<double>(encoder.dynamic_dim(), 0.5));
    const std::vector<double> static_feat(encoder.static_dim(), 0.5);
    const double meta_seconds = wall_seconds([&] {
      for (const auto& candidate : candidates) {
        (void)meta.predict(seq, static_feat,
                           encoder.partition_features(candidate.partition,
                                                      model.num_layers()));
      }
    });

    // The arbiter's single decision.
    const std::vector<double> state(encoder.arbiter_dim(), 0.3);
    const double rl_seconds = wall_seconds([&] {
      for (int i = 0; i < 100; ++i) (void)agent.act(state, false);
    }) / 100.0;

    table.add_row({model.name(), std::to_string(candidates.size()),
                   TextTable::num(dp_seconds * 1e3, 3) + "ms",
                   TextTable::num(meta_seconds * 1e3, 3) + "ms",
                   TextTable::num(rl_seconds * 1e6, 1) + "us",
                   TextTable::num((meta_seconds + rl_seconds) * 1e3, 3) +
                       "ms"});
  }
  table.print(std::cout,
              "Fig 12 — worker-partition modelling time (host wall clock)");

  // The paper's headline comparison is against solving the *integrated*
  // model exactly (its validation: "the complicated model takes tens of
  // minutes"). The integrated model has per-worker identities, so exact
  // solving is exponential; we demonstrate the blow-up on truncated layer
  // counts of the AlexNet profile.
  {
    TextTable blowup({"layers", "exact integrated-model search (s)"});
    bench::Testbed t = bench::make_testbed(25);
    const auto env = partition::EnvironmentView::from_cluster(
        *t.cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
    const auto alex = models::alexnet();
    for (std::size_t layers : {6u, 8u, 10u, 11u}) {
      std::vector<models::LayerSpec> prefix(
          alex.layers().begin(),
          alex.layers().begin() + static_cast<std::ptrdiff_t>(layers));
      const models::ModelSpec truncated("alexnet-prefix", 256,
                                        std::move(prefix));
      const double seconds = wall_seconds([&] {
        (void)partition::exhaustive_best(truncated, env, 256, 6, 14);
      });
      blowup.add_row({std::to_string(layers), TextTable::num(seconds, 3)});
    }
    std::cout << '\n';
    blowup.print(std::cout,
                 "Fig 12 (context) — exact search over the integrated model "
                 "grows exponentially");
  }
  std::cout << "\nPaper's shape: AutoPipe's meta-network + RL decision stays "
               "in milliseconds, while exactly\nsolving the integrated "
               "(per-worker) model blows up combinatorially — the paper "
               "reports tens\nof minutes. PipeDream's DP is only fast "
               "because its simplified model ignores per-worker\n"
               "heterogeneity (Observation 2).\n";
  return bench::exit_status();
}
