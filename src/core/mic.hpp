#pragma once
// Machine Intelligence Calibration (paper Section IV-D). Three complementary
// strategies run each sensing cycle after CQC:
//   1. Dynamic expert-weight update: per-expert loss from the symmetric KL
//      divergence between the expert's vote and the CQC truth distribution
//      (Eq. 5), fed into an exponential-weights (Hedge) update.
//   2. Model retraining: CQC's labels fine-tune every expert for the next
//      cycle (handles insufficient-training-data failures).
//   3. Crowd offloading: CQC's labels directly replace the committee's
//      labels for queried images in the current cycle (handles innate-flaw
//      failures the committee cannot learn away).
//
// Note on Eq. (5): the paper's formula reads 1 - delta(KL_sym) but its prose
// says "the more different ... the higher the loss"; we follow the prose and
// use loss = delta(KL_sym) in [0, 1), where delta(d) = d / (1 + d).

#include "experts/committee.hpp"

namespace crowdlearn::core {

struct MicConfig {
  /// Hedge learning rate (eta in the exponential weight update).
  double eta = 1.5;
  /// Strategy toggles (for ablation benches).
  bool enable_weight_update = true;
  bool enable_retraining = true;
  bool enable_offloading = true;
};

class Mic {
 public:
  explicit Mic(const MicConfig& cfg) : cfg_(cfg) {}

  /// Per-expert loss over the queried images (Eq. 5, prose convention):
  /// mean over images of delta(KL_sym(expert vote, truth distribution)).
  /// `votes[i][m]` is expert m's distribution for queried image i;
  /// `truth_dists[i]` is CQC's distribution for the same image.
  std::vector<double> expert_losses(
      const std::vector<std::vector<std::vector<double>>>& votes,
      const std::vector<std::vector<double>>& truth_dists, std::size_t num_experts) const;

  /// Exponential-weights update: w_m <- w_m * exp(-eta * loss_m), normalized.
  std::vector<double> updated_weights(const std::vector<double>& current,
                                      const std::vector<double>& losses) const;

  /// Apply strategy 1 to the committee. Returns the losses for inspection.
  std::vector<double> update_committee_weights(
      experts::ExpertCommittee& committee,
      const std::vector<std::vector<std::vector<double>>>& votes,
      const std::vector<std::vector<double>>& truth_dists) const;

  /// Apply strategy 2: retrain every expert on CQC's hard labels. With an
  /// artifact cache (src/cache, docs/CACHING.md) per-expert fine-tunes are
  /// memoized, keyed by the dataset content digest plus the queried ids,
  /// labels, each expert's spec and pre-retrain state, and its RNG child
  /// stream — bit-identical to recompute at any thread count. A null cache
  /// is plain compute.
  void retrain(experts::ExpertCommittee& committee, const dataset::Dataset& data,
               const std::vector<std::size_t>& queried_ids,
               const std::vector<std::size_t>& truth_labels, Rng& rng,
               cache::ArtifactCache* cache = nullptr) const;

  const MicConfig& config() const { return cfg_; }
  bool offloading_enabled() const { return cfg_.enable_offloading; }

 private:
  MicConfig cfg_;
};

}  // namespace crowdlearn::core
