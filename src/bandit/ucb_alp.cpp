#include "bandit/ucb_alp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "ckpt/state.hpp"

namespace crowdlearn::bandit {

namespace {

/// Greedy pure solution at multiplier lambda: per context pick
/// argmax_k (r - lambda c), breaking ties toward the cheaper action.
std::vector<std::size_t> greedy_at(const std::vector<std::vector<double>>& rewards,
                                   const std::vector<double>& costs, double lambda) {
  std::vector<std::size_t> pick(rewards.size(), 0);
  for (std::size_t z = 0; z < rewards.size(); ++z) {
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < costs.size(); ++k) {
      const double v = rewards[z][k] - lambda * costs[k];
      if (v > best + 1e-12 || (std::abs(v - best) <= 1e-12 && costs[k] < costs[pick[z]])) {
        best = std::max(best, v);
        pick[z] = k;
      }
    }
  }
  return pick;
}

double expected_cost(const std::vector<std::size_t>& pick, const std::vector<double>& costs,
                     const std::vector<double>& probs) {
  double c = 0.0;
  for (std::size_t z = 0; z < pick.size(); ++z) c += probs[z] * costs[pick[z]];
  return c;
}

double expected_reward(const std::vector<std::size_t>& pick,
                       const std::vector<std::vector<double>>& rewards,
                       const std::vector<double>& probs) {
  double r = 0.0;
  for (std::size_t z = 0; z < pick.size(); ++z) r += probs[z] * rewards[z][pick[z]];
  return r;
}

AlpSolution pure_solution(const std::vector<std::size_t>& pick,
                          const std::vector<std::vector<double>>& rewards,
                          const std::vector<double>& costs,
                          const std::vector<double>& probs, double lambda) {
  AlpSolution s;
  s.probs.assign(pick.size(), std::vector<double>(costs.size(), 0.0));
  for (std::size_t z = 0; z < pick.size(); ++z) s.probs[z][pick[z]] = 1.0;
  s.expected_cost = expected_cost(pick, costs, probs);
  s.expected_reward = expected_reward(pick, rewards, probs);
  s.lambda = lambda;
  return s;
}

}  // namespace

AlpSolution solve_alp(const std::vector<std::vector<double>>& rewards,
                      const std::vector<double>& costs,
                      const std::vector<double>& context_probs, double rho) {
  if (rewards.empty() || costs.empty())
    throw std::invalid_argument("solve_alp: empty rewards or costs");
  if (context_probs.size() != rewards.size())
    throw std::invalid_argument("solve_alp: context_probs size mismatch");
  for (const auto& row : rewards)
    if (row.size() != costs.size())
      throw std::invalid_argument("solve_alp: reward row width mismatch");

  // Unconstrained greedy: if it is affordable we are done.
  const std::vector<std::size_t> greedy0 = greedy_at(rewards, costs, 0.0);
  if (expected_cost(greedy0, costs, context_probs) <= rho + 1e-12)
    return pure_solution(greedy0, rewards, costs, context_probs, 0.0);

  // Cheapest-everywhere solution: the limit as lambda -> infinity. If even
  // this exceeds rho the budget cannot be met; return it (graceful floor).
  const std::size_t cheapest = static_cast<std::size_t>(
      std::distance(costs.begin(), std::min_element(costs.begin(), costs.end())));
  std::vector<std::size_t> floor_pick(rewards.size(), cheapest);
  if (expected_cost(floor_pick, costs, context_probs) >= rho - 1e-12)
    return pure_solution(floor_pick, rewards, costs, context_probs,
                         std::numeric_limits<double>::infinity());

  // E(lambda) is a non-increasing step function; bisect to the breakpoint
  // where it crosses rho, then mix the bracketing pure solutions.
  double lo = 0.0;           // E(lo) > rho
  double hi = 1.0;
  while (expected_cost(greedy_at(rewards, costs, hi), costs, context_probs) > rho)
    hi *= 2.0;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (expected_cost(greedy_at(rewards, costs, mid), costs, context_probs) > rho) lo = mid;
    else hi = mid;
  }
  const std::vector<std::size_t> pick_lo = greedy_at(rewards, costs, lo);
  const std::vector<std::size_t> pick_hi = greedy_at(rewards, costs, hi);
  const double c_lo = expected_cost(pick_lo, costs, context_probs);
  const double c_hi = expected_cost(pick_hi, costs, context_probs);

  double w_hi = 1.0;  // weight on the affordable solution
  if (c_lo > c_hi + 1e-12) w_hi = std::clamp((c_lo - rho) / (c_lo - c_hi), 0.0, 1.0);

  AlpSolution s;
  s.probs.assign(rewards.size(), std::vector<double>(costs.size(), 0.0));
  for (std::size_t z = 0; z < rewards.size(); ++z) {
    s.probs[z][pick_hi[z]] += w_hi;
    s.probs[z][pick_lo[z]] += 1.0 - w_hi;
  }
  s.expected_cost = w_hi * c_hi + (1.0 - w_hi) * c_lo;
  s.expected_reward = w_hi * expected_reward(pick_hi, rewards, context_probs) +
                      (1.0 - w_hi) * expected_reward(pick_lo, rewards, context_probs);
  s.lambda = 0.5 * (lo + hi);
  return s;
}

UcbAlpPolicy::UcbAlpPolicy(const UcbAlpConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      remaining_budget_(cfg.total_budget_cents),
      remaining_rounds_(cfg.horizon),
      reward_sum_(cfg.num_contexts, std::vector<double>(cfg.action_costs.size(), 0.0)),
      count_(cfg.num_contexts, std::vector<std::size_t>(cfg.action_costs.size(), 0)) {
  if (cfg.action_costs.empty()) throw std::invalid_argument("UcbAlpPolicy: no actions");
  if (cfg.num_contexts == 0) throw std::invalid_argument("UcbAlpPolicy: no contexts");
  if (cfg.horizon == 0) throw std::invalid_argument("UcbAlpPolicy: zero horizon");
  if (cfg.total_budget_cents <= 0.0)
    throw std::invalid_argument("UcbAlpPolicy: non-positive budget");
  if (!cfg_.context_probs.empty() && cfg_.context_probs.size() != cfg_.num_contexts)
    throw std::invalid_argument("UcbAlpPolicy: context_probs size mismatch");
  if (cfg_.context_probs.empty())
    cfg_.context_probs.assign(cfg_.num_contexts, 1.0 / static_cast<double>(cfg_.num_contexts));
}

std::size_t UcbAlpPolicy::action_index(double cents) const {
  for (std::size_t i = 0; i < cfg_.action_costs.size(); ++i)
    if (std::abs(cfg_.action_costs[i] - cents) < 1e-9) return i;
  throw std::invalid_argument("UcbAlpPolicy: unknown incentive level");
}

double UcbAlpPolicy::mean_reward(std::size_t context, std::size_t action) const {
  if (context >= cfg_.num_contexts || action >= cfg_.action_costs.size())
    throw std::out_of_range("UcbAlpPolicy::mean_reward");
  const std::size_t n = count_[context][action];
  return n == 0 ? 0.0 : reward_sum_[context][action] / static_cast<double>(n);
}

std::size_t UcbAlpPolicy::pull_count(std::size_t context, std::size_t action) const {
  if (context >= cfg_.num_contexts || action >= cfg_.action_costs.size())
    throw std::out_of_range("UcbAlpPolicy::pull_count");
  return count_[context][action];
}

std::vector<std::vector<double>> UcbAlpPolicy::ucb_estimates() const {
  std::vector<std::vector<double>> ucb(cfg_.num_contexts,
                                       std::vector<double>(cfg_.action_costs.size(), 0.0));
  const double t = static_cast<double>(std::max<std::size_t>(total_pulls_, 2));
  for (std::size_t z = 0; z < cfg_.num_contexts; ++z) {
    for (std::size_t k = 0; k < cfg_.action_costs.size(); ++k) {
      const std::size_t n = count_[z][k];
      if (n == 0) {
        ucb[z][k] = 1.5;  // optimistic initialization forces exploration
      } else {
        ucb[z][k] = mean_reward(z, k) +
                    std::sqrt(cfg_.exploration * std::log(t) / static_cast<double>(n));
      }
    }
  }
  return ucb;
}

double UcbAlpPolicy::choose(std::size_t context) {
  if (context >= cfg_.num_contexts) throw std::out_of_range("UcbAlpPolicy::choose");

  const std::size_t rounds = std::max<std::size_t>(remaining_rounds_, 1);
  const double rho = std::max(remaining_budget_, 0.0) / static_cast<double>(rounds);

  last_solution_ = solve_alp(ucb_estimates(), cfg_.action_costs, cfg_.context_probs, rho);
  std::size_t k = rng_.categorical(last_solution_.probs[context]);

  // The ALP meets the budget only in expectation, so a sampled level can
  // overdraw it near the end of the horizon. Clamp to the most expensive
  // level that still leaves the cheapest level's cost for every later
  // round (the cheapest level when none does). The draw above is unchanged,
  // so the RNG stream is too.
  const std::vector<double>& costs = cfg_.action_costs;
  const std::size_t cheapest = static_cast<std::size_t>(
      std::distance(costs.begin(), std::min_element(costs.begin(), costs.end())));
  const double affordable =
      remaining_budget_ - costs[cheapest] * static_cast<double>(rounds - 1) + 1e-9;
  if (costs[k] > affordable) {
    k = cheapest;
    for (std::size_t i = 0; i < costs.size(); ++i)
      if (costs[i] <= affordable && costs[i] > costs[k]) k = i;
  }
  const double cents = costs[k];

  remaining_budget_ -= cents;
  if (remaining_rounds_ > 0) --remaining_rounds_;
  return cents;
}

void UcbAlpPolicy::add_observation(std::size_t context, double cents, double delay,
                                   bool /*charge*/) {
  const std::size_t k = action_index(cents);
  reward_sum_[context][k] += delay_to_reward(delay, cfg_.delay_scale_seconds);
  ++count_[context][k];
  ++total_pulls_;
}

void UcbAlpPolicy::observe(std::size_t context, double incentive_cents, double delay_seconds) {
  if (context >= cfg_.num_contexts) throw std::out_of_range("UcbAlpPolicy::observe");
  add_observation(context, incentive_cents, delay_seconds, /*charge=*/false);
}

void UcbAlpPolicy::warm_start(std::size_t context, double incentive_cents,
                              double delay_seconds) {
  if (context >= cfg_.num_contexts) throw std::out_of_range("UcbAlpPolicy::warm_start");
  add_observation(context, incentive_cents, delay_seconds, /*charge=*/false);
}

namespace {
constexpr char kUcbAlpTag[4] = {'U', 'C', 'B', '1'};
}

void UcbAlpPolicy::save_state(ckpt::Writer& w) const {
  w.begin_section(kUcbAlpTag);
  ckpt::save_rng(w, rng_);
  w.f64(remaining_budget_);
  w.u64(remaining_rounds_);
  w.u64(total_pulls_);
  ckpt::save_f64_table(w, reward_sum_);
  ckpt::save_size_table(w, count_);
  ckpt::save_f64_table(w, last_solution_.probs);
  w.f64(last_solution_.expected_cost);
  w.f64(last_solution_.expected_reward);
  w.f64(last_solution_.lambda);
}

void UcbAlpPolicy::load_state(ckpt::Reader& r) {
  r.expect_section(kUcbAlpTag);
  ckpt::load_rng(r, rng_);
  remaining_budget_ = r.f64();
  remaining_rounds_ = static_cast<std::size_t>(r.u64());
  total_pulls_ = static_cast<std::size_t>(r.u64());
  const std::size_t z = cfg_.num_contexts;
  const std::size_t k = cfg_.action_costs.size();
  ckpt::load_f64_table(r, reward_sum_, z, k);
  ckpt::load_size_table(r, count_, z, k);
  // The cached ALP solution is empty until the first choose(), so accept
  // either no rows or a full num_contexts × num_actions table.
  AlpSolution sol;
  const std::uint64_t rows = r.u64();
  if (rows != 0 && rows != z) {
    throw ckpt::CkptError(ckpt::CkptErrc::kMalformed,
                          "UcbAlpPolicy: ALP solution row count mismatch");
  }
  sol.probs.resize(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    sol.probs[i] = r.vec_f64();
    if (sol.probs[i].size() != k) {
      throw ckpt::CkptError(ckpt::CkptErrc::kMalformed,
                            "UcbAlpPolicy: ALP solution column count mismatch");
    }
  }
  sol.expected_cost = r.f64();
  sol.expected_reward = r.f64();
  sol.lambda = r.f64();
  last_solution_ = std::move(sol);
}

}  // namespace crowdlearn::bandit
