// Ablation: the switch arbiter. Same dynamic scenario, four policies —
// never switch (static PipeDream), always switch on any predicted gain,
// a fixed-gain threshold, and the RL arbiter trained offline on randomized
// episodes. The RL policy's job is to beat "always" (which thrashes under
// churn) while staying close to the best fixed threshold without tuning.
#include <iostream>
#include <tuple>

#include "autopipe/training.hpp"
#include "bench_common.hpp"

using namespace autopipe;

namespace {

double run_policy(core::ControllerConfig::ArbiterMode mode,
                  rl::DqnAgent* agent, const std::string& label) {
  const auto model = models::vgg16();
  bench::Testbed t = bench::make_testbed(25);
  const auto plan = bench::plan_pipedream(t, model, comm::pytorch_profile(),
                                          comm::SyncScheme::kRing);
  // Regime changes that persist (the case re-configuration exists for),
  // with one short-lived dip that a good arbiter should ride out.
  sim::ResourceTrace trace;
  trace.at_iteration(12, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  for (sim::WorkerId w : {0u, 1u, 2u, 3u})
    trace.at_iteration(40, sim::ResourceTrace::add_gpu_job(w));
  trace.at_iteration(64, sim::ResourceTrace::set_all_nic_bandwidth(gbps(8)));
  trace.at_iteration(70, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));

  core::ControllerConfig cc;
  cc.arbiter_mode = mode;
  cc.use_meta_network = false;
  cc.decision_interval = 3;
  bench::RunOptions options;
  options.controller = cc;
  options.agent = agent;
  options.iterations = 100;
  options.warmup = 20;
  options.trace = &trace;
  options.scenario = label;
  return bench::run_pipeline(t, model, plan.partition, options).throughput;
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
  const auto training =
      core::train_arbiter_offline(agent, models::resnet50(), 24, 30, 99);
  agent.begin_online_adaptation();

  using Mode = core::ControllerConfig::ArbiterMode;
  const std::tuple<const char*, Mode, const char*> policies[] = {
      {"never switch (static)", Mode::kNeverSwitch, "never"},
      {"always switch", Mode::kAlwaysSwitch, "always"},
      {"threshold (5% gain)", Mode::kThreshold, "threshold"},
      {"RL (offline-trained)", Mode::kRl, "rl"},
  };
  TextTable table({"arbiter", "throughput (img/s)"});
  for (const auto& [name, mode, label] : policies) {
    rl::DqnAgent* policy_agent = mode == Mode::kRl ? &agent : nullptr;
    table.add_row(
        {name, TextTable::num(run_policy(mode, policy_agent, label), 1)});
  }
  table.print(std::cout,
              "Ablation — switch arbiter under persistent regime changes "
              "(VGG16, 25 Gbps)");
  std::cout << "\n(offline training: " << training.episodes << " episodes, "
            << training.total_switches << " exploratory switches)\n";
  return bench::exit_status();
}
