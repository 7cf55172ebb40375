#include "rl/dqn.hpp"

#include <algorithm>
#include <utility>

#include "common/expect.hpp"
#include "common/profile.hpp"
#include "nn/loss.hpp"

namespace autopipe::rl {

namespace {

/// Transitions the replay buffer keeps before overwriting the oldest.
constexpr std::size_t kReplayCapacity = 4096;

std::vector<std::size_t> widths(const DqnConfig& c) {
  std::vector<std::size_t> w;
  w.push_back(c.state_dim);
  for (std::size_t h : c.hidden) w.push_back(h);
  w.push_back(c.num_actions);
  return w;
}

nn::Matrix to_row(const std::vector<double>& v) {
  nn::Matrix m(1, v.size());
  for (std::size_t i = 0; i < v.size(); ++i) m.at(0, i) = v[i];
  return m;
}

}  // namespace

DqnAgent::DqnAgent(DqnConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      rng_(seed),
      online_([&] {
        Rng init(seed ^ 0x9e3779b97f4a7c15ull);
        return nn::Mlp(widths(config_), nn::Activation::kRelu,
                       nn::Activation::kIdentity, init);
      }()),
      target_(online_),
      optimizer_(online_.parameters(), config_.learning_rate),
      buffer_(kReplayCapacity),
      epsilon_(config_.epsilon_start) {
  AUTOPIPE_EXPECT(config_.state_dim > 0);
  AUTOPIPE_EXPECT(config_.num_actions >= 2);
}

int DqnAgent::act(const std::vector<double>& state, bool explore) {
  return decide(state, explore).action;
}

DqnAgent::DecisionInfo DqnAgent::decide(const std::vector<double>& state,
                                        bool explore) {
  PROF_SPAN("arbiter/decide");
  AUTOPIPE_EXPECT(state.size() == config_.state_dim);
  DecisionInfo info;
  info.q = q_values(state);  // pure forward pass: no RNG consumed
  if (explore && rng_.chance(epsilon_)) {
    info.explored = true;
    info.action = static_cast<int>(rng_.uniform_int(
        0, static_cast<std::int64_t>(config_.num_actions) - 1));
    return info;
  }
  info.action = static_cast<int>(
      std::max_element(info.q.begin(), info.q.end()) - info.q.begin());
  return info;
}

std::vector<double> DqnAgent::q_values(const std::vector<double>& state) {
  AUTOPIPE_EXPECT(state.size() == config_.state_dim);
  const nn::Matrix out = online_.forward(to_row(state));
  std::vector<double> q(config_.num_actions);
  for (std::size_t a = 0; a < config_.num_actions; ++a) q[a] = out.at(0, a);
  return q;
}

void DqnAgent::observe(Transition t) {
  AUTOPIPE_EXPECT(t.state.size() == config_.state_dim);
  AUTOPIPE_EXPECT(t.next_state.size() == config_.state_dim);
  AUTOPIPE_EXPECT(t.action >= 0 &&
                  t.action < static_cast<int>(config_.num_actions));
  buffer_.add(std::move(t));
  ++steps_;
  epsilon_ = std::max(kEpsilonEnd, epsilon_ * config_.epsilon_decay);
  if (buffer_.size() >= config_.warmup_steps) learn();
  if (steps_ % config_.target_update_interval == 0) target_ = online_;
}

void DqnAgent::learn() {
  const auto batch = buffer_.sample(rng_, config_.batch_size);
  const std::size_t B = batch.size();

  nn::Matrix states(B, config_.state_dim);
  nn::Matrix next_states(B, config_.state_dim);
  for (std::size_t i = 0; i < B; ++i) {
    for (std::size_t j = 0; j < config_.state_dim; ++j) {
      states.at(i, j) = batch[i].state[j];
      next_states.at(i, j) = batch[i].next_state[j];
    }
  }

  // TD targets from the frozen target network.
  const nn::Matrix next_q = target_.forward(next_states);
  std::vector<double> targets(B);
  for (std::size_t i = 0; i < B; ++i) {
    double best = next_q.at(i, 0);
    for (std::size_t a = 1; a < config_.num_actions; ++a)
      best = std::max(best, next_q.at(i, a));
    targets[i] = batch[i].reward +
                 (batch[i].terminal ? 0.0 : config_.gamma * best);
  }

  online_.zero_grad();
  nn::Matrix q = online_.forward(states);
  // Only the taken action's Q participates in the loss; build prediction
  // and target matrices that agree elsewhere.
  nn::Matrix pred(B, 1);
  nn::Matrix target(B, 1);
  for (std::size_t i = 0; i < B; ++i) {
    pred.at(i, 0) = q.at(i, static_cast<std::size_t>(batch[i].action));
    target.at(i, 0) = targets[i];
  }
  const nn::LossResult loss = nn::huber_loss(pred, target);
  nn::Matrix dq(B, config_.num_actions);
  for (std::size_t i = 0; i < B; ++i)
    dq.at(i, static_cast<std::size_t>(batch[i].action)) = loss.grad.at(i, 0);
  online_.backward(dq);
  optimizer_.step();
}

void DqnAgent::begin_online_adaptation(double lr_scale) {
  AUTOPIPE_EXPECT(lr_scale > 0.0 && lr_scale <= 1.0);
  optimizer_.set_learning_rate(config_.learning_rate * lr_scale);
  epsilon_ = kEpsilonEnd;
  config_.epsilon_start = kEpsilonEnd;
}

void DqnAgent::save(std::ostream& os) const { online_.save(os); }

void DqnAgent::load(std::istream& is) {
  online_.load(is);
  target_ = online_;
}

}  // namespace autopipe::rl
