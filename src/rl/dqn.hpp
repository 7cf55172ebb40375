// DQN-style value learner. The paper's arbiter (§4.3) is a fully-connected
// net with 32- and 16-neuron hidden layers whose output is the boolean
// switch decision; we realize it as a two-action Q-network trained with
// Huber TD loss, a target network and epsilon-greedy exploration — offline
// first (simulated episodes), then adapted online with a reduced learning
// rate (the paper's transfer-learning step).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/replay_buffer.hpp"

namespace autopipe::rl {

/// The exploration rate epsilon decays to, and the rate online adaptation
/// freezes it at.
inline constexpr double kEpsilonEnd = 0.05;

struct DqnConfig {
  std::size_t state_dim = 0;
  std::size_t num_actions = 2;
  std::vector<std::size_t> hidden = {32, 16};  // the paper's architecture
  double learning_rate = 1e-3;
  double gamma = 0.6;  // switch decisions pay off within a few iterations
  double epsilon_start = 1.0;
  /// Multiplicative epsilon decay applied per environment step, down to
  /// kEpsilonEnd.
  double epsilon_decay = 0.995;
  std::size_t batch_size = 32;
  std::size_t target_update_interval = 100;
  /// Steps collected before learning starts.
  std::size_t warmup_steps = 64;
};

class DqnAgent {
 public:
  DqnAgent(DqnConfig config, std::uint64_t seed);

  /// Epsilon-greedy action; set explore=false for deployment.
  int act(const std::vector<double>& state, bool explore = true);

  /// act() plus the evidence behind it, for the decision ledger: the online
  /// net's Q-values and whether the epsilon-greedy exploration branch fired.
  /// Consumes the RNG identically to act(), so recording a run's decisions
  /// does not perturb it.
  struct DecisionInfo {
    int action = 0;
    bool explored = false;
    std::vector<double> q;
  };
  DecisionInfo decide(const std::vector<double>& state, bool explore = true);

  /// Record a transition and (past warmup) run one learning step.
  void observe(Transition t);

  std::vector<double> q_values(const std::vector<double>& state);

  double epsilon() const { return epsilon_; }
  std::size_t steps() const { return steps_; }
  const DqnConfig& config() const { return config_; }

  /// Online-adaptation mode: shrink the learning rate and freeze epsilon
  /// low, so deployment-time updates refine rather than destabilize.
  void begin_online_adaptation(double lr_scale = 0.1);

  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  void learn();

  DqnConfig config_;
  Rng rng_;
  nn::Mlp online_;
  nn::Mlp target_;
  nn::Adam optimizer_;
  ReplayBuffer buffer_;
  double epsilon_;
  std::size_t steps_ = 0;
};

}  // namespace autopipe::rl
