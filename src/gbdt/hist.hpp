#pragma once
// Histogram/column-format split engine for the GBDT behind CQC
// (docs/GBDT.md). The exact engine in gbdt/tree.cpp re-sorts every node's
// rows per feature; at CQC-retrain scale that sort dominates. This engine
// instead does the per-retrain work once up front:
//
//   1. ColumnMatrix — CSC-style pre-sorted feature columns (missing/zero
//      skip), built once per retrain from the row-major FeatureMatrix;
//   2. BinBoundaries — fixed quantile cut points per feature, computed
//      deterministically from the sorted columns BEFORE any parallel work;
//   3. HistTrainSet — per-sample bin codes, so every subsequent split search
//      is a cache-blocked gradient/hessian histogram accumulation plus a
//      linear scan over at most max_bins cut points.
//
// Determinism: the boundaries are a pure function of the training set, each
// feature's histogram is filled by exactly one task in fixed row order, and
// candidates reduce through the shared tie-break in gbdt/split.hpp — so the
// fitted tree is byte-identical at any thread count
// (tests/test_gbdt_hist.cpp).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gbdt/tree.hpp"

namespace crowdlearn::gbdt {

/// Which split search a Gbdt fit runs. Histogram is the production default;
/// the exact engine is retained as the differential-testing reference. It
/// is a per-model config (carried by CQC, the artifact-cache key and the
/// GBT2 format byte), unlike the NN reference kernels, which live only in
/// the test-only oracle.
enum class SplitEngine : std::uint8_t {
  kHistogram = 0,
  kExactReference = 1,
};

const char* split_engine_name(SplitEngine engine);

/// CSC-style column store: for each feature, the (row, value) entries sorted
/// by (value, row). Missing entries (NaN) are always skipped and their rows
/// recorded; exact zeros are optionally skipped too (sparse columns), with
/// only their count kept — a skipped zero is reconstructed as +0.0.
class ColumnMatrix {
 public:
  struct Entry {
    std::uint32_t row = 0;
    double value = 0.0;
  };

  /// Build from a row-major matrix. O(rows * cols log rows), once per
  /// retrain. Rows must fit in 32 bits.
  static ColumnMatrix build(const FeatureMatrix& x, bool skip_zeros = false);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return columns_.size(); }
  bool zeros_skipped() const { return skip_zeros_; }

  /// Sorted explicit entries of one column (missing — and, when zero skip is
  /// on, exact zeros — excluded).
  const std::vector<Entry>& column(std::size_t f) const { return columns_[f]; }
  /// Rows whose value is missing (NaN) in this column, ascending.
  const std::vector<std::uint32_t>& missing_rows(std::size_t f) const {
    return missing_rows_[f];
  }
  std::size_t missing_count(std::size_t f) const { return missing_rows_[f].size(); }
  /// Number of exact-zero entries dropped from this column (0 unless built
  /// with skip_zeros).
  std::size_t zero_count(std::size_t f) const { return zero_counts_[f]; }

 private:
  std::size_t rows_ = 0;
  bool skip_zeros_ = false;
  std::vector<std::vector<Entry>> columns_;
  std::vector<std::vector<std::uint32_t>> missing_rows_;
  std::vector<std::size_t> zero_counts_;
};

/// Fixed per-feature quantile cut points. Bin b of feature f holds values v
/// with cut[b-1] < v <= cut[b]; the last bin is unbounded above. Cuts are
/// midpoints between adjacent distinct training values, thinned to at most
/// max_bins bins by rank — when a feature has <= max_bins distinct values
/// every distinct value gets its own bin and the binning is EXACT (the
/// identical-predictions regime of the differential suite). Computed before
/// any parallel work and serialized with the model, so retrain determinism
/// never depends on thread count.
class BinBoundaries {
 public:
  BinBoundaries() = default;

  static BinBoundaries compute(const ColumnMatrix& cm, std::size_t max_bins);

  std::size_t cols() const { return cuts_.size(); }
  bool empty() const { return cuts_.empty(); }
  std::size_t num_bins(std::size_t f) const { return cuts_[f].size() + 1; }
  /// Interior cut points of one feature, strictly increasing.
  const std::vector<double>& cuts(std::size_t f) const { return cuts_[f]; }
  /// The split threshold that routes bins [0, b] left: v <= cut(f, b).
  double cut(std::size_t f, std::size_t b) const { return cuts_[f][b]; }

  /// Bin index of a finite value (lower_bound over the cuts). NaN is the
  /// caller's job (HistTrainSet::kMissingCode).
  std::uint16_t bin_of(std::size_t f, double v) const;

  bool operator==(const BinBoundaries& other) const { return cuts_ == other.cuts_; }

  /// Checkpoint hooks (gbdt/serialize.cpp): boundaries travel inside the
  /// Gbdt section so a resumed model re-serializes byte-identically.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  std::vector<std::vector<double>> cuts_;
};

/// Quantized training set built once per retrain: column-major bin codes
/// (one column is contiguous, the access pattern of the per-feature
/// histogram build) plus the boundaries that produced them.
class HistTrainSet {
 public:
  /// Reserved code for a missing (NaN) value: compares greater than every
  /// real bin, so missing rows always route right — consistent with
  /// prediction, where NaN fails `v <= threshold`.
  static constexpr std::uint16_t kMissingCode = 0xFFFF;

  HistTrainSet(const FeatureMatrix& x, std::size_t max_bins);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const BinBoundaries& bounds() const { return bounds_; }

  std::uint16_t code(std::size_t row, std::size_t f) const {
    return codes_[f * rows_ + row];
  }
  /// Contiguous code column for feature f (cache-blocked accumulation reads
  /// this sequentially in node-row order).
  const std::uint16_t* column_codes(std::size_t f) const { return &codes_[f * rows_]; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  BinBoundaries bounds_;
  std::vector<std::uint16_t> codes_;  // column-major: codes_[f * rows_ + row]
};

}  // namespace crowdlearn::gbdt
