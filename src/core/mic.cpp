#include "core/mic.hpp"

#include <cmath>
#include <stdexcept>

#include "stats/distribution.hpp"

namespace crowdlearn::core {

std::vector<double> Mic::expert_losses(
    const std::vector<std::vector<std::vector<double>>>& votes,
    const std::vector<std::vector<double>>& truth_dists, std::size_t num_experts) const {
  if (votes.size() != truth_dists.size())
    throw std::invalid_argument("Mic::expert_losses: size mismatch");
  std::vector<double> losses(num_experts, 0.0);
  if (votes.empty()) return losses;

  for (std::size_t i = 0; i < votes.size(); ++i) {
    if (votes[i].size() != num_experts)
      throw std::invalid_argument("Mic::expert_losses: expert count mismatch");
    for (std::size_t m = 0; m < num_experts; ++m) {
      const double d = stats::symmetric_kl(votes[i][m], truth_dists[i]);
      losses[m] += stats::squash_divergence(d);
    }
  }
  for (double& l : losses) l /= static_cast<double>(votes.size());
  return losses;
}

std::vector<double> Mic::updated_weights(const std::vector<double>& current,
                                         const std::vector<double>& losses) const {
  if (current.size() != losses.size())
    throw std::invalid_argument("Mic::updated_weights: size mismatch");
  std::vector<double> w(current.size());
  for (std::size_t m = 0; m < w.size(); ++m)
    w[m] = current[m] * std::exp(-cfg_.eta * losses[m]);
  stats::normalize(w);
  return w;
}

std::vector<double> Mic::update_committee_weights(
    experts::ExpertCommittee& committee,
    const std::vector<std::vector<std::vector<double>>>& votes,
    const std::vector<std::vector<double>>& truth_dists) const {
  const std::vector<double> losses = expert_losses(votes, truth_dists, committee.size());
  if (cfg_.enable_weight_update && !votes.empty()) {
    if (committee.num_quarantined() == 0) {
      committee.set_weights(updated_weights(committee.weights(), losses));
    } else {
      // Quarantined experts' losses come from sanitized placeholder votes,
      // not real predictions — freeze their weights and apply Hedge to the
      // healthy experts only (set_weights renormalizes the full vector).
      std::vector<double> w = committee.weights();
      for (std::size_t m = 0; m < w.size(); ++m)
        if (!committee.is_quarantined(m)) w[m] *= std::exp(-cfg_.eta * losses[m]);
      committee.set_weights(std::move(w));
    }
  }
  return losses;
}

void Mic::retrain(experts::ExpertCommittee& committee, const dataset::Dataset& data,
                  const std::vector<std::size_t>& queried_ids,
                  const std::vector<std::size_t>& truth_labels, Rng& rng,
                  cache::ArtifactCache* cache) const {
  if (!cfg_.enable_retraining || queried_ids.empty()) return;
  committee.retrain_all(data, queried_ids, truth_labels, rng, cache);
}

}  // namespace crowdlearn::core
