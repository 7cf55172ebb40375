// RL tests: replay-buffer mechanics and the DQN agent's ability to learn a
// contextual decision — the shape of the arbiter's switch/stay problem.
#include <gtest/gtest.h>

#include <sstream>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "rl/dqn.hpp"
#include "rl/replay_buffer.hpp"

namespace autopipe::rl {
namespace {

Transition make_transition(double s, int a, double r) {
  return Transition{{s}, a, r, {s}, false};
}

TEST(ReplayBuffer, FillsThenWrapsAround) {
  ReplayBuffer buf(3);
  for (int i = 0; i < 5; ++i)
    buf.add(make_transition(static_cast<double>(i), 0, 0));
  EXPECT_EQ(buf.size(), 3u);
  // Items 0 and 1 were overwritten by 3 and 4.
  std::vector<double> contents;
  for (std::size_t i = 0; i < buf.size(); ++i)
    contents.push_back(buf.at(i).state[0]);
  std::sort(contents.begin(), contents.end());
  EXPECT_EQ(contents, (std::vector<double>{2, 3, 4}));
}

TEST(ReplayBuffer, SampleDrawsFromContents) {
  ReplayBuffer buf(8);
  buf.add(make_transition(7.0, 1, 0.5));
  Rng rng(1);
  const auto batch = buf.sample(rng, 4);
  ASSERT_EQ(batch.size(), 4u);
  for (const auto& t : batch) {
    EXPECT_DOUBLE_EQ(t.state[0], 7.0);
    EXPECT_EQ(t.action, 1);
  }
}

TEST(ReplayBuffer, ClearEmpties) {
  ReplayBuffer buf(4);
  buf.add(make_transition(1, 0, 0));
  buf.clear();
  EXPECT_TRUE(buf.empty());
}

DqnConfig bandit_config() {
  DqnConfig c;
  c.state_dim = 1;
  c.num_actions = 2;
  c.hidden = {32, 16};  // the paper's arbiter architecture
  c.learning_rate = 5e-3;
  c.gamma = 0.0;  // pure contextual bandit
  c.epsilon_decay = 0.99;
  c.warmup_steps = 16;
  c.target_update_interval = 25;
  return c;
}

TEST(DqnAgent, LearnsContextualBandit) {
  // State +1 -> action 1 pays; state -1 -> action 0 pays. This is the
  // arbiter's problem in miniature: "does the predicted gain exceed the
  // switch cost?"
  DqnAgent agent(bandit_config(), 42);
  Rng rng(7);
  for (int step = 0; step < 1500; ++step) {
    const double s = rng.chance(0.5) ? 1.0 : -1.0;
    const int a = agent.act({s});
    const int good = s > 0 ? 1 : 0;
    const double reward = (a == good) ? 1.0 : -1.0;
    agent.observe(Transition{{s}, a, reward, {s}, true});
  }
  EXPECT_EQ(agent.act({1.0}, /*explore=*/false), 1);
  EXPECT_EQ(agent.act({-1.0}, /*explore=*/false), 0);
}

TEST(DqnAgent, EpsilonDecays) {
  DqnAgent agent(bandit_config(), 1);
  const double initial = agent.epsilon();
  for (int i = 0; i < 200; ++i)
    agent.observe(make_transition(0.0, 0, 0.0));
  EXPECT_LT(agent.epsilon(), initial);
  EXPECT_GE(agent.epsilon(), kEpsilonEnd - 1e-12);
}

TEST(DqnAgent, QValuesHaveActionArity) {
  DqnAgent agent(bandit_config(), 2);
  const auto q = agent.q_values({0.5});
  EXPECT_EQ(q.size(), 2u);
}

TEST(DqnAgent, OnlineAdaptationFreezesExploration) {
  DqnAgent agent(bandit_config(), 3);
  agent.begin_online_adaptation(0.1);
  EXPECT_NEAR(agent.epsilon(), kEpsilonEnd, 1e-12);
}

TEST(DqnAgent, SaveLoadPreservesPolicy) {
  DqnAgent agent(bandit_config(), 42);
  Rng rng(7);
  for (int step = 0; step < 800; ++step) {
    const double s = rng.chance(0.5) ? 1.0 : -1.0;
    const int a = agent.act({s});
    agent.observe(Transition{{s}, a, (a == (s > 0 ? 1 : 0)) ? 1.0 : -1.0,
                             {s}, true});
  }
  std::stringstream ss;
  agent.save(ss);
  DqnAgent clone(bandit_config(), 999);
  clone.load(ss);
  EXPECT_EQ(clone.act({1.0}, false), agent.act({1.0}, false));
  EXPECT_EQ(clone.act({-1.0}, false), agent.act({-1.0}, false));
}

TEST(DqnAgent, RejectsMalformedTransitions) {
  DqnAgent agent(bandit_config(), 5);
  EXPECT_THROW(agent.observe(Transition{{1.0, 2.0}, 0, 0.0, {1.0}, false}),
               autopipe::contract_error);
  EXPECT_THROW(agent.observe(Transition{{1.0}, 5, 0.0, {1.0}, false}),
               autopipe::contract_error);
}

}  // namespace
}  // namespace autopipe::rl
