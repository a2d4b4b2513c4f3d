#pragma once
// Expert committee (paper Section IV-A, Definitions 4-8 and Eq. 2-3):
// a weighted set of DDA experts whose normalized weighted vote gives the
// system's label distribution, and whose entropy measures the committee's
// uncertainty for query-by-committee active learning.

#include <memory>

#include "experts/dda_algorithm.hpp"
#include "obs/observability.hpp"

namespace crowdlearn::util {
class ThreadPool;
}

namespace crowdlearn::experts {

class ExpertCommittee {
 public:
  explicit ExpertCommittee(std::vector<std::unique_ptr<DdaAlgorithm>> experts);

  std::size_t size() const { return experts_.size(); }
  DdaAlgorithm& expert(std::size_t m) { return *experts_.at(m); }
  const DdaAlgorithm& expert(std::size_t m) const { return *experts_.at(m); }

  const std::vector<double>& weights() const { return weights_; }
  /// Replace the expert weights (normalized internally; must be >= 0).
  void set_weights(std::vector<double> w);

  /// Attach a pool for expert- and image-parallel execution (nullptr =
  /// serial). The pool must outlive the committee. Parallel and serial
  /// execution produce byte-identical results: chunking is static, results
  /// land in preallocated per-index slots, and training RNG streams are
  /// forked from the master seed before dispatch. The pool is also forwarded
  /// to every expert so their im2col/GEMM kernels can chunk batch work when
  /// the committee-level loops run serially; nested parallel sections run
  /// inline on the worker (ThreadPool nesting rule), so the determinism
  /// contract holds at every level.
  void set_thread_pool(util::ThreadPool* pool);
  util::ThreadPool* thread_pool() const { return pool_; }

  /// Wire committee metrics (per-expert weight gauges, quarantine counters,
  /// batch-inference latency) and spans. Handles resolve once here; hot
  /// paths record through cached pointers. Pass an inactive/null context to
  /// unwire. The Observability object must outlive the committee.
  void set_observability(obs::Observability* o);

  /// Deep copy: cloned experts, same weights.
  ExpertCommittee clone() const;

  /// Whether every expert has been trained.
  bool all_trained() const;

  /// Train every expert on the same golden-labeled image set.
  ///
  /// With an artifact cache (src/cache, docs/CACHING.md) each expert's step
  /// runs through cached_expert_step, so a previously-seen (spec, state,
  /// data, labels, stream) tuple restores the stored post-step state instead
  /// of recomputing — bit-identical to recompute at any thread count. A null
  /// cache is plain compute.
  void train_all(const dataset::Dataset& data, const std::vector<std::size_t>& image_ids,
                 Rng& rng, cache::ArtifactCache* cache = nullptr);

  /// Retrain every expert on crowd labels (MIC model-retraining strategy);
  /// `cache` as for train_all.
  void retrain_all(const dataset::Dataset& data, const std::vector<std::size_t>& image_ids,
                   const std::vector<std::size_t>& crowd_labels, Rng& rng,
                   cache::ArtifactCache* cache = nullptr);

  /// Individual expert votes for one image (one distribution per expert).
  std::vector<std::vector<double>> expert_votes(const dataset::DisasterImage& image);

  /// Expert votes for a whole image batch: out[i][m] = expert m's
  /// distribution for image ids[i]. With a pool attached the batch is
  /// image-parallel: each static chunk runs on a private clone of the expert
  /// roster (inference mutates layer activation caches, so experts cannot be
  /// shared across threads), which yields the same bits as the serial path.
  std::vector<std::vector<std::vector<double>>> expert_votes_batch(
      const dataset::Dataset& data, const std::vector<std::size_t>& ids);

  /// Committee vote rho (Eq. 2), normalized to a distribution. Quarantined
  /// experts are excluded and the remaining weights renormalized; when every
  /// expert is quarantined the vote falls back to the full weighted sum over
  /// the (sanitized) votes.
  std::vector<double> committee_vote(const dataset::DisasterImage& image);
  /// Committee vote computed from precomputed expert votes.
  std::vector<double> committee_vote(const std::vector<std::vector<double>>& votes) const;

  /// Scan per-expert votes for degenerate output (wrong width, non-finite,
  /// negative, or all-zero mass). Offending experts are quarantined — their
  /// votes are replaced by a uniform distribution in place and they stop
  /// contributing to committee_vote and Hedge updates until the next
  /// successful (re)train reinstates them. Returns the number of experts
  /// newly quarantined by this scan. Runs on the calling thread; callers in
  /// parallel sections must scan after the parallel region, in index order.
  std::size_t quarantine_degenerate_votes(std::vector<std::vector<double>>& votes);
  /// Batch overload over expert_votes_batch output (images scanned in order).
  std::size_t quarantine_degenerate_votes(
      std::vector<std::vector<std::vector<double>>>& batch);

  bool is_quarantined(std::size_t m) const { return quarantined_.at(m) != 0; }
  std::size_t num_quarantined() const;
  /// Clear the quarantine mask (called automatically after train/retrain:
  /// a successful retrain is the reinstatement criterion).
  void reinstate_quarantined();

  /// Committee entropy H (Eq. 3) of the normalized committee vote.
  double committee_entropy(const dataset::DisasterImage& image);
  double committee_entropy(const std::vector<std::vector<double>>& votes) const;

  /// Hard label: argmax of the committee vote.
  std::size_t predict(const dataset::DisasterImage& image);
  std::vector<std::size_t> predict_batch(const dataset::Dataset& data,
                                         const std::vector<std::size_t>& ids);

  /// Checkpoint hooks (src/ckpt): per-expert state (delegated to each
  /// expert), the Hedge weights and the quarantine mask. load_state
  /// validates the stored roster (count and per-expert names) against this
  /// committee and throws ckpt::CkptError(kMalformed) on mismatch.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  /// Shared dispatch for train_all/retrain_all: fork one RNG child per
  /// expert in roster order (consuming the master stream identically whether
  /// a step hits the cache or computes), run `step(m, expert, child)`
  /// serially or pool-parallel, then reinstate quarantined experts.
  void run_forked(Rng& rng,
                  const std::function<void(std::size_t, DdaAlgorithm&, Rng&)>& step);

  std::vector<std::unique_ptr<DdaAlgorithm>> experts_;
  std::vector<double> weights_;
  std::vector<char> quarantined_;     ///< 1 = excluded from votes/updates
  util::ThreadPool* pool_ = nullptr;  ///< not owned; nullptr = serial

  obs::Observability* obs_ = nullptr;  ///< not owned; nullptr = no metrics
  std::vector<obs::Gauge*> obs_weight_gauges_;  ///< one per expert
  obs::Counter* obs_weight_updates_ = nullptr;
  obs::Counter* obs_quarantined_total_ = nullptr;
  obs::Gauge* obs_quarantined_now_ = nullptr;
  obs::Histogram* obs_batch_seconds_ = nullptr;
};

/// The paper's default committee: {VGG16, BoVW, DDM}.
ExpertCommittee make_default_committee();

}  // namespace crowdlearn::experts
