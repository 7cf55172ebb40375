// Ablation: the switch arbiter. Same dynamic scenario, four policies —
// never switch (static PipeDream), always switch on any predicted gain,
// a fixed-gain threshold, and the RL arbiter trained offline on randomized
// episodes. The RL policy's job is to beat "always" (which thrashes under
// churn) while staying close to the best fixed threshold without tuning.
#include <iostream>

#include "autopipe/training.hpp"
#include "bench_common.hpp"

using namespace autopipe;

namespace {

double run_policy(core::ControllerConfig::ArbiterMode mode,
                  rl::DqnAgent* agent, std::uint64_t scenario_seed,
                  const std::string& label) {
  const auto model = models::vgg16();
  bench::Testbed t = bench::make_testbed(25);
  const auto plan = bench::plan_pipedream(t, model, comm::pytorch_profile(),
                                          comm::SyncScheme::kRing);
  pipeline::PipelineExecutor executor(*t.cluster, model, plan.partition,
                                      pipeline::ExecutorConfig{});
  core::ControllerConfig cc;
  cc.arbiter_mode = mode;
  cc.use_meta_network = false;
  cc.decision_interval = 3;
  core::AutoPipeController controller(*t.cluster, executor, cc, nullptr,
                                      agent);
  controller.attach();

  // Regime changes that persist (the case re-configuration exists for),
  // with one short-lived dip that a good arbiter should ride out.
  (void)scenario_seed;
  sim::ResourceTrace trace;
  trace.at_iteration(12, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  for (sim::WorkerId w : {0u, 1u, 2u, 3u})
    trace.at_iteration(40, sim::ResourceTrace::add_gpu_job(w));
  trace.at_iteration(64, sim::ResourceTrace::set_all_nic_bandwidth(gbps(8)));
  trace.at_iteration(70, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  executor.set_iteration_callback([&](std::size_t iters) {
    trace.apply_iteration(iters, *t.cluster);
    controller.on_iteration(iters);
  });
  const double throughput = executor.run(100, 20).throughput;
  bench::write_outputs(t, label);
  return throughput;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  // Train the RL arbiter offline on randomized episodes (analytic
  // predictor; small budget keeps the bench fast).
  const core::FeatureEncoder encoder;
  rl::DqnConfig dc;
  dc.state_dim = encoder.arbiter_dim();
  rl::DqnAgent agent(dc, 77);
  core::ScenarioConfig scenario;
  const auto training =
      core::train_arbiter_offline(agent, models::resnet50(), 24, 30, 99);
  agent.begin_online_adaptation();

  TextTable table({"arbiter", "throughput (img/s)"});
  table.add_row({"never switch (static)",
                 TextTable::num(run_policy(
                     core::ControllerConfig::ArbiterMode::kNeverSwitch,
                     nullptr, 5, "never"), 1)});
  table.add_row({"always switch",
                 TextTable::num(run_policy(
                     core::ControllerConfig::ArbiterMode::kAlwaysSwitch,
                     nullptr, 5, "always"), 1)});
  table.add_row({"threshold (5% gain)",
                 TextTable::num(run_policy(
                     core::ControllerConfig::ArbiterMode::kThreshold,
                     nullptr, 5, "threshold"), 1)});
  table.add_row({"RL (offline-trained)",
                 TextTable::num(run_policy(
                     core::ControllerConfig::ArbiterMode::kRl, &agent, 5,
                     "rl"),
                 1)});
  table.print(std::cout,
              "Ablation — switch arbiter under persistent regime changes "
              "(VGG16, 25 Gbps)");
  std::cout << "\n(offline training: " << training.episodes << " episodes, "
            << training.total_switches << " exploratory switches)\n";
  return bench::exit_status();
}
