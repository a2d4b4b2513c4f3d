#pragma once
// Synthetic stand-in for the paper's Ecuador-earthquake dataset: 960 images
// with golden labels, balanced over {none, moderate, severe}, split 560
// train / 400 test, with a configurable fraction of Figure-1 failure-mode
// images whose low-level appearance contradicts the golden label.

#include <memory>
#include <vector>

#include "ckpt/digest.hpp"
#include "dataset/disaster_image.hpp"
#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace crowdlearn::dataset {

struct DatasetConfig {
  std::size_t total_images = 960;
  std::size_t train_images = 560;  ///< remainder is the test set
  /// Fraction of images drawn from the Figure-1 failure classes. The paper
  /// motivates these as common enough to matter; 0.15 gives AI-only ceilings
  /// in the Table II range.
  double failure_fraction = 0.15;
  /// Fraction of images that are ambiguous to crowd workers (correlated
  /// wrong votes). Calibrated so per-worker accuracy lands near the pilot
  /// study's ~0.8 and majority voting near Table I's 0.84.
  double confusing_fraction = 0.20;
  imaging::RenderOptions render;
  std::uint64_t seed = 42;
};

struct Dataset {
  std::vector<DisasterImage> images;
  std::vector<std::size_t> train_indices;
  std::vector<std::size_t> test_indices;
  DatasetConfig config;

  const DisasterImage& image(std::size_t id) const { return images.at(id); }

  /// Batch matrix of raw pixels (one flattened image per row).
  nn::Matrix pixel_matrix(const std::vector<std::size_t>& ids) const;
  /// Batch matrix of handcrafted features.
  nn::Matrix handcrafted_matrix(const std::vector<std::size_t>& ids) const;
  /// Golden labels as class indices.
  std::vector<std::size_t> labels(const std::vector<std::size_t>& ids) const;

  /// Count of failure-mode images among the given ids.
  std::size_t failure_count(const std::vector<std::size_t>& ids) const;

  /// 128-bit digest of the full corpus content — every image's bytes and
  /// metadata plus the train/test split — used as the dataset component of
  /// artifact-cache keys (docs/CACHING.md). Computed once and memoized; the
  /// memo travels with copies, so cloned tenants over the same corpus share
  /// the work. Safe to call from several threads at once. Not part of
  /// equality and never checkpointed.
  ckpt::Digest128 content_digest() const;

  /// Lazily filled by content_digest(); shared so Dataset stays cheap to
  /// copy and aggregate-initializable.
  mutable std::shared_ptr<const ckpt::Digest128> content_digest_memo;
};

/// Generate the full dataset. Deterministic given cfg.seed.
Dataset generate_dataset(const DatasetConfig& cfg);

/// Build one image of the requested true label and failure mode (used by
/// the generator and directly by tests). `crowd_confusing` marks the image
/// as ambiguous to workers; the confusable label is derived internally.
DisasterImage make_image(std::size_t id, Severity true_label, FailureMode failure,
                         const imaging::RenderOptions& opts, Rng& rng,
                         bool crowd_confusing = false);

}  // namespace crowdlearn::dataset
