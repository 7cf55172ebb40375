#include "autopipe/training.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>

#include "common/expect.hpp"
#include "common/log.hpp"
#include "partition/neighborhood.hpp"
#include "partition/pipedream_planner.hpp"
#include "sim/trace.hpp"

namespace autopipe::core {

namespace {

/// Max extra tenants per GPU in a random scenario.
constexpr std::int64_t kMaxExtraTenants = 2;
/// Max random neighbourhood moves applied to the PipeDream plan to diversify
/// the partitions seen during training.
constexpr std::int64_t kMaxPartitionPerturbations = 4;

/// A randomized shared-cluster instance plus the initial PipeDream plan.
struct Scenario {
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<sim::Cluster> cluster;
  std::optional<partition::PlanResult> plan;
};

Scenario make_scenario(const models::ModelSpec& model,
                       const ScenarioConfig& config, Rng& rng) {
  Scenario s;
  s.simulator = std::make_unique<sim::Simulator>();

  sim::ClusterConfig cc;
  cc.num_servers = config.num_servers;
  cc.gpus_per_server = config.gpus_per_server;
  const double gbps_pick =
      config.bandwidth_gbps[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(config.bandwidth_gbps.size()) - 1))];
  cc.nic_bandwidth = gbps(gbps_pick);
  s.cluster = std::make_unique<sim::Cluster>(*s.simulator, cc);

  // Random contention: some GPUs host extra tenants, some NICs are cut.
  for (sim::WorkerId w = 0; w < s.cluster->num_workers(); ++w) {
    const int extra =
        static_cast<int>(rng.uniform_int(0, kMaxExtraTenants));
    for (int i = 0; i < extra; ++i) s.cluster->add_background_job(w);
  }
  for (std::size_t server = 0; server < s.cluster->num_servers(); ++server) {
    if (rng.chance(0.3)) {
      s.cluster->set_nic_bandwidth(server,
                                   s.cluster->nic_bandwidth(server) * 0.5);
    }
  }

  // Initial plan: what PipeDream would install (exclusive-GPU view).
  auto env = partition::EnvironmentView::from_cluster(
      *s.cluster, config.framework, config.sync_scheme);
  partition::PipeDreamPlanner planner(model, env, model.default_batch_size(),
                                      partition::PipeDreamPlanner::Mode::kPipeDream);
  s.plan = planner.plan(s.cluster->num_workers());
  return s;
}

partition::Partition perturb(const partition::Partition& base, Rng& rng) {
  partition::Partition current = base;
  const auto moves = rng.uniform_int(0, kMaxPartitionPerturbations);
  for (std::int64_t i = 0; i < moves; ++i) {
    auto candidates = partition::two_worker_candidates(current);
    if (candidates.empty()) break;
    const auto pick = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(candidates.size()) - 1));
    current = candidates[pick].partition;
  }
  return current;
}

}  // namespace

std::vector<SpeedSample> generate_speed_dataset(
    const models::ModelSpec& model, std::size_t count, std::uint64_t seed,
    const FeatureEncoder& encoder, const ScenarioConfig& scenario) {
  Rng rng(seed);
  std::vector<SpeedSample> dataset;
  dataset.reserve(count);

  for (std::size_t n = 0; n < count; ++n) {
    Scenario s = make_scenario(model, scenario, rng);
    partition::Partition p = perturb(s.plan->partition, rng);

    pipeline::ExecutorConfig ec;
    ec.framework = scenario.framework;
    ec.sync_scheme = scenario.sync_scheme;
    pipeline::PipelineExecutor executor(*s.cluster, model, p, ec);

    // Collect the dynamic-feature window while the measurement runs.
    Profiler profiler(model, executor.batch_size());
    std::deque<std::vector<double>> history;
    executor.set_iteration_callback([&](std::size_t) {
      history.push_back(
          encoder.dynamic_features(profiler.snapshot(executor, *s.cluster)));
      while (history.size() > 8) history.pop_front();
    });

    const auto report = executor.run(
        scenario.warmup_iterations + scenario.measure_iterations,
        scenario.warmup_iterations);

    SpeedSample sample;
    sample.dynamic_seq.assign(history.begin(), history.end());
    sample.static_feat =
        encoder.static_features(profiler.snapshot(executor, *s.cluster));
    sample.partition_feat =
        encoder.partition_features(p, model.num_layers());
    sample.target = encoder.normalize_throughput(report.throughput);
    dataset.push_back(std::move(sample));
  }
  return dataset;
}

TrainingResult train_meta_network(MetaNetwork& meta,
                                  std::vector<SpeedSample> dataset,
                                  std::size_t epochs, std::size_t batch_size,
                                  std::uint64_t seed) {
  AUTOPIPE_EXPECT(dataset.size() >= 4);
  AUTOPIPE_EXPECT(batch_size >= 1);
  Rng rng(seed);
  rng.shuffle(dataset);
  const std::size_t val_count = std::max<std::size_t>(1, dataset.size() / 10);
  std::vector<SpeedSample> val(dataset.end() - static_cast<std::ptrdiff_t>(val_count),
                               dataset.end());
  dataset.resize(dataset.size() - val_count);

  TrainingResult result;
  result.epochs = epochs;
  for (std::size_t e = 0; e < epochs; ++e) {
    rng.shuffle(dataset);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t i = 0; i < dataset.size(); i += batch_size) {
      const std::size_t end = std::min(i + batch_size, dataset.size());
      std::vector<SpeedSample> batch(dataset.begin() + static_cast<std::ptrdiff_t>(i),
                                     dataset.begin() + static_cast<std::ptrdiff_t>(end));
      epoch_loss += meta.train_batch(batch);
      ++batches;
    }
    result.train_loss = epoch_loss / static_cast<double>(std::max<std::size_t>(1, batches));
  }

  double val_loss = 0.0;
  for (const SpeedSample& s : val) {
    const double pred =
        meta.predict(s.dynamic_seq, s.static_feat, s.partition_feat);
    val_loss += (pred - s.target) * (pred - s.target);
  }
  result.validation_loss = val_loss / static_cast<double>(val.size());
  return result;
}

ArbiterTrainingResult train_arbiter_offline(
    rl::DqnAgent& agent, const models::ModelSpec& model,
    std::size_t episodes, std::size_t iterations_per_episode,
    std::uint64_t seed, MetaNetwork* meta, const ScenarioConfig& scenario) {
  Rng rng(seed);
  ArbiterTrainingResult result;
  result.episodes = episodes;

  for (std::size_t e = 0; e < episodes; ++e) {
    Scenario s = make_scenario(model, scenario, rng);

    pipeline::ExecutorConfig ec;
    ec.framework = scenario.framework;
    ec.sync_scheme = scenario.sync_scheme;
    pipeline::PipelineExecutor executor(*s.cluster, model, s.plan->partition,
                                        ec);

    ControllerConfig cc;
    cc.arbiter_mode = ControllerConfig::ArbiterMode::kRl;
    cc.use_meta_network = meta != nullptr;
    cc.arbiter_explore = true;
    cc.decision_interval = 3;
    cc.min_history_iterations = 3;  // short episodes: explore early
    cc.candidate_gain_floor = 0.0;
    cc.validate_switches = false;   // the reward signal judges switches
    AutoPipeController controller(*s.cluster, executor, cc, meta, &agent);
    controller.attach();

    // Random mid-episode resource events make the decision problem real.
    sim::ResourceTrace trace;
    const auto n_events = rng.uniform_int(1, 3);
    for (std::int64_t i = 0; i < n_events; ++i) {
      const auto iter = static_cast<std::size_t>(rng.uniform_int(
          3, static_cast<std::int64_t>(iterations_per_episode) - 2));
      if (rng.chance(0.5)) {
        const double g = scenario.bandwidth_gbps[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(
                                   scenario.bandwidth_gbps.size()) - 1))];
        trace.at_iteration(iter,
                           sim::ResourceTrace::set_all_nic_bandwidth(gbps(g)));
      } else {
        trace.at_iteration(iter, sim::ResourceTrace::add_job_all_gpus());
      }
    }
    executor.set_iteration_callback([&](std::size_t iters) {
      trace.apply_iteration(iters, *s.cluster);
      controller.on_iteration(iters);
    });

    const auto report = executor.run(iterations_per_episode, 1);
    result.total_switches += controller.stats().switches_requested;
    result.mean_episode_throughput += report.throughput;
  }
  result.mean_episode_throughput /= static_cast<double>(episodes);
  return result;
}

}  // namespace autopipe::core
