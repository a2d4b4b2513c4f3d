#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "bandit/ucb_alp.hpp"

namespace crowdlearn::bandit {
namespace {

const std::vector<double> kCosts{1, 2, 4, 6, 8, 10, 20};
const std::vector<double> kUniform4{0.25, 0.25, 0.25, 0.25};

TEST(SolveAlp, UnconstrainedGreedyWhenAffordable) {
  // Cheapest action is also the best everywhere: budget slack.
  std::vector<std::vector<double>> rewards(4, std::vector<double>(kCosts.size(), 0.1));
  for (auto& row : rewards) row[0] = 0.9;
  const AlpSolution s = solve_alp(rewards, kCosts, kUniform4, 5.0);
  EXPECT_DOUBLE_EQ(s.lambda, 0.0);
  EXPECT_NEAR(s.expected_cost, 1.0, 1e-9);
  for (std::size_t z = 0; z < 4; ++z) EXPECT_NEAR(s.probs[z][0], 1.0, 1e-9);
}

TEST(SolveAlp, BindingBudgetHitsRhoExactly) {
  // Reward strictly increasing in cost: greedy wants the 20c arm everywhere,
  // but rho = 8 forces a mixture whose expected cost equals 8.
  std::vector<std::vector<double>> rewards(4, std::vector<double>(kCosts.size()));
  for (auto& row : rewards)
    for (std::size_t k = 0; k < kCosts.size(); ++k) row[k] = kCosts[k] / 20.0;
  const AlpSolution s = solve_alp(rewards, kCosts, kUniform4, 8.0);
  EXPECT_NEAR(s.expected_cost, 8.0, 1e-6);
  EXPECT_GT(s.lambda, 0.0);
  for (const auto& probs : s.probs) {
    double sum = 0.0;
    for (double p : probs) {
      EXPECT_GE(p, -1e-12);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(SolveAlp, InfeasibleBudgetFallsToCheapest) {
  std::vector<std::vector<double>> rewards(2, std::vector<double>(kCosts.size(), 0.5));
  const AlpSolution s = solve_alp(rewards, kCosts, {0.5, 0.5}, 0.5);  // rho < min cost
  for (const auto& probs : s.probs) EXPECT_NEAR(probs[0], 1.0, 1e-9);
}

TEST(SolveAlp, SpendsWhereMarginalRewardIsHighest) {
  // Context 0 gains a lot from the expensive arm; context 1 gains nothing.
  std::vector<std::vector<double>> rewards(2, std::vector<double>(kCosts.size(), 0.5));
  for (std::size_t k = 0; k < kCosts.size(); ++k)
    rewards[0][k] = 0.1 + 0.85 * kCosts[k] / 20.0;
  const AlpSolution s = solve_alp(rewards, kCosts, {0.5, 0.5}, 8.0);
  // Expected incentive in context 0 should far exceed context 1's.
  auto mean_cost = [&](std::size_t z) {
    double c = 0.0;
    for (std::size_t k = 0; k < kCosts.size(); ++k) c += s.probs[z][k] * kCosts[k];
    return c;
  };
  EXPECT_GT(mean_cost(0), 10.0);
  EXPECT_LT(mean_cost(1), 4.0);
}

TEST(SolveAlp, Validation) {
  EXPECT_THROW(solve_alp({}, kCosts, kUniform4, 5.0), std::invalid_argument);
  std::vector<std::vector<double>> rewards(4, std::vector<double>(3, 0.5));
  EXPECT_THROW(solve_alp(rewards, kCosts, kUniform4, 5.0), std::invalid_argument);
  std::vector<std::vector<double>> ok(2, std::vector<double>(kCosts.size(), 0.5));
  EXPECT_THROW(solve_alp(ok, kCosts, kUniform4, 5.0), std::invalid_argument);
}

UcbAlpConfig make_config(double budget = 800.0, std::size_t horizon = 100) {
  UcbAlpConfig cfg;
  cfg.action_costs = kCosts;
  cfg.num_contexts = 4;
  cfg.total_budget_cents = budget;
  cfg.horizon = horizon;
  cfg.delay_scale_seconds = 1000.0;
  cfg.seed = 3;
  return cfg;
}

TEST(UcbAlpPolicy, TracksBudgetAndRounds) {
  UcbAlpPolicy policy(make_config());
  EXPECT_DOUBLE_EQ(policy.remaining_budget_cents(), 800.0);
  EXPECT_EQ(policy.remaining_rounds(), 100u);
  const double c = policy.choose(0);
  EXPECT_DOUBLE_EQ(policy.remaining_budget_cents(), 800.0 - c);
  EXPECT_EQ(policy.remaining_rounds(), 99u);
}

TEST(UcbAlpPolicy, StaysNearBudgetOverHorizon) {
  UcbAlpPolicy policy(make_config(800.0, 200));
  Rng rng(5);
  double spent = 0.0;
  for (int t = 0; t < 200; ++t) {
    const std::size_t ctx = static_cast<std::size_t>(t) % 4;
    const double c = policy.choose(ctx);
    spent += c;
    policy.observe(ctx, c, rng.uniform(100.0, 900.0));
  }
  // The ALP spends most of the budget even with noise, and never more.
  EXPECT_LE(spent, 800.0);
  EXPECT_GE(spent, 800.0 * 0.5);
}

TEST(UcbAlpPolicy, NeverOverspendsOverTheFullHorizon) {
  // The ALP meets the budget only in expectation; the sampled level is
  // clamped so that every remaining round can still afford the cheapest
  // level. A warm-started policy on a short horizon (like a tenant's
  // 64-cycle stream), with delays that reward spending, keeps the budget
  // binding to the last round, where an unclamped draw overdraws it.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    UcbAlpConfig cfg = make_config(8.0 * 64, 64);
    cfg.seed = seed;
    UcbAlpPolicy policy(cfg);
    Rng rng(seed + 1000);
    auto delay_for = [&](double cents) {
      return std::max(900.0 - 40.0 * cents + rng.normal(0, 60), 10.0);
    };
    for (int i = 0; i < 10; ++i)
      for (std::size_t ctx = 0; ctx < 4; ++ctx)
        for (double cents : kCosts) policy.warm_start(ctx, cents, delay_for(cents));
    double spent = 0.0;
    for (std::size_t t = 0; t < cfg.horizon; ++t) {
      const std::size_t ctx = rng.index(4);
      const double c = policy.choose(ctx);
      spent += c;
      ASSERT_LE(spent, cfg.total_budget_cents) << "seed " << seed << " round " << t;
      policy.observe(ctx, c, delay_for(c));
    }
    EXPECT_GE(policy.remaining_budget_cents(), 0.0) << "seed " << seed;
    EXPECT_EQ(policy.remaining_rounds(), 0u);
  }
}

TEST(UcbAlpPolicy, LearnsContextSpecificOptimum) {
  // Morning-like context 0: delay falls sharply with incentive.
  // Evening-like context 2: delay flat; money is wasted there.
  // rho = 10: rich enough that "spend 20c in the morning, 1c at night" is
  // feasible; the policy must discover the asymmetry.
  UcbAlpPolicy policy(make_config(4000.0, 400));
  Rng rng(7);
  auto delay_for = [&](std::size_t ctx, double cents) {
    if (ctx <= 1) return std::max(950.0 - 45.0 * cents + rng.normal(0, 20), 10.0);
    return 280.0 + rng.normal(0, 20);
  };
  std::array<double, 4> incentive_sum{};
  std::array<int, 4> count{};
  for (int t = 0; t < 400; ++t) {
    const std::size_t ctx = static_cast<std::size_t>(t) % 4;
    const double c = policy.choose(ctx);
    policy.observe(ctx, c, delay_for(ctx, c));
    incentive_sum[ctx] += c;
    ++count[ctx];
  }
  const double morning_mean = incentive_sum[0] / count[0];
  const double evening_mean = incentive_sum[2] / count[2];
  EXPECT_GT(morning_mean, evening_mean + 2.0);
}

TEST(UcbAlpPolicy, WarmStartBiasesFirstChoices) {
  UcbAlpPolicy cold(make_config()), warm(make_config());
  // Teach `warm` that in context 0 the 20c arm is dramatically better.
  for (int i = 0; i < 40; ++i) {
    for (double cents : kCosts) {
      const double delay = (cents == 20.0) ? 50.0 : 950.0;
      warm.warm_start(0, cents, delay);
    }
  }
  EXPECT_EQ(warm.pull_count(0, 6), 40u);
  EXPECT_GT(warm.mean_reward(0, 6), warm.mean_reward(0, 0));
  // The warm policy's ALP favors the 20c arm in context 0 immediately.
  int big = 0;
  for (int i = 0; i < 20; ++i)
    if (warm.choose(0) >= 10.0) ++big;
  EXPECT_GE(big, 15);
  (void)cold;
}

TEST(UcbAlpPolicy, Validation) {
  UcbAlpConfig bad = make_config();
  bad.action_costs.clear();
  EXPECT_THROW(UcbAlpPolicy{bad}, std::invalid_argument);
  bad = make_config();
  bad.horizon = 0;
  EXPECT_THROW(UcbAlpPolicy{bad}, std::invalid_argument);
  bad = make_config();
  bad.context_probs = {0.5, 0.5};  // wrong width
  EXPECT_THROW(UcbAlpPolicy{bad}, std::invalid_argument);

  UcbAlpPolicy policy(make_config());
  EXPECT_THROW(policy.choose(9), std::out_of_range);
  EXPECT_THROW(policy.observe(0, 3.0, 100.0), std::invalid_argument);
}

}  // namespace
}  // namespace crowdlearn::bandit
