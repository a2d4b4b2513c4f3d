#include "dataset/generator.hpp"

#include <memory>
#include <numeric>
#include <stdexcept>

namespace crowdlearn::dataset {

namespace {

/// Ground-truth questionnaire answers implied by (true label, failure mode).
Questionnaire make_questionnaire(Severity true_label, FailureMode failure, Rng& rng) {
  Questionnaire q;
  // Collapsed structures: the strong severe-damage cue (noisy — not every
  // severe scene shows a collapse, and some moderate scenes look close).
  const bool collapsed = (true_label == Severity::kSevere && rng.bernoulli(0.9)) ||
                         (true_label == Severity::kModerate && rng.bernoulli(0.15));
  switch (failure) {
    case FailureMode::kNone:
      q.shows_structural_damage = (true_label != Severity::kNone) ? 1.0 : 0.0;
      q.shows_collapsed_structures = collapsed ? 1.0 : 0.0;
      q.shows_affected_people =
          (true_label == Severity::kSevere && rng.bernoulli(0.4)) ? 1.0 : 0.0;
      break;
    case FailureMode::kFake:
      q.is_fake = 1.0;
      q.shows_structural_damage = 1.0;  // the *depicted* damage is dramatic
      q.shows_collapsed_structures = 1.0;
      break;
    case FailureMode::kCloseUp:
      q.is_closeup = 1.0;
      // A harmless pavement crack: humans do not read it as structural damage.
      break;
    case FailureMode::kLowRes:
      q.is_low_quality = 1.0;
      // Humans can still make out the damage despite the blur.
      q.shows_structural_damage = 1.0;
      q.shows_collapsed_structures = (true_label == Severity::kSevere) ? 1.0 : 0.0;
      break;
    case FailureMode::kImplicit:
      // No visible structural damage; the severity is in the human story.
      q.shows_affected_people = 1.0;
      break;
  }
  return q;
}

/// The wrong label that confusing images pull votes toward: for failure
/// images it is the apparent label (careless workers see what the pixels
/// show); for normal images it is an adjacent severity class.
std::size_t confusable_for(Severity true_label, FailureMode failure, Rng& rng) {
  if (failure != FailureMode::kNone) {
    switch (failure) {
      case FailureMode::kFake:
      case FailureMode::kCloseUp:
        return label_index(Severity::kSevere);
      case FailureMode::kLowRes:
      case FailureMode::kImplicit:
        return label_index(Severity::kNone);
      default: break;
    }
  }
  switch (true_label) {
    case Severity::kNone: return label_index(Severity::kModerate);
    case Severity::kSevere: return label_index(Severity::kModerate);
    case Severity::kModerate:
      return rng.bernoulli(0.5) ? label_index(Severity::kNone)
                                : label_index(Severity::kSevere);
  }
  throw std::invalid_argument("confusable_for: bad label");
}

/// Apparent severity that the rendered low-level content will suggest.
Severity apparent_for(Severity true_label, FailureMode failure) {
  switch (failure) {
    case FailureMode::kNone: return true_label;
    case FailureMode::kFake: return Severity::kSevere;
    case FailureMode::kCloseUp: return Severity::kSevere;
    case FailureMode::kLowRes: return Severity::kNone;
    case FailureMode::kImplicit: return Severity::kNone;
  }
  throw std::invalid_argument("apparent_for: bad failure mode");
}

/// Pick a failure mode compatible with the true label (see DESIGN.md):
/// fake/close-up images are truly undamaged; low-res hides real damage;
/// implicit images are truly severe.
FailureMode sample_failure_mode(Severity true_label, Rng& rng) {
  switch (true_label) {
    case Severity::kNone:
      return rng.bernoulli(0.5) ? FailureMode::kFake : FailureMode::kCloseUp;
    case Severity::kModerate:
      return FailureMode::kLowRes;
    case Severity::kSevere:
      return rng.bernoulli(0.5) ? FailureMode::kLowRes : FailureMode::kImplicit;
  }
  throw std::invalid_argument("sample_failure_mode: bad label");
}

}  // namespace

DisasterImage make_image(std::size_t id, Severity true_label, FailureMode failure,
                         const imaging::RenderOptions& opts, Rng& rng,
                         bool crowd_confusing) {
  DisasterImage img;
  img.id = id;
  img.true_label = true_label;
  img.failure = failure;
  img.apparent_label = apparent_for(true_label, failure);
  img.truth_questionnaire = make_questionnaire(true_label, failure, rng);
  img.crowd_confusing = crowd_confusing;
  img.confusable_label = confusable_for(true_label, failure, rng);

  switch (failure) {
    case FailureMode::kNone:
      img.pixels = imaging::render_scene(true_label, opts, rng);
      break;
    case FailureMode::kFake:
      img.pixels = imaging::render_fake(opts, rng);
      break;
    case FailureMode::kCloseUp:
      img.pixels = imaging::render_closeup(opts, rng);
      break;
    case FailureMode::kLowRes:
      img.pixels = imaging::degrade_low_resolution(
          imaging::render_scene(true_label, opts, rng), rng);
      break;
    case FailureMode::kImplicit:
      img.pixels = imaging::render_scene(Severity::kNone, opts, rng);
      break;
  }
  img.handcrafted = imaging::handcrafted_features(img.pixels);
  return img;
}

Dataset generate_dataset(const DatasetConfig& cfg) {
  if (cfg.total_images == 0 || cfg.train_images >= cfg.total_images)
    throw std::invalid_argument("generate_dataset: bad split sizes");
  if (cfg.failure_fraction < 0.0 || cfg.failure_fraction > 1.0)
    throw std::invalid_argument("generate_dataset: failure_fraction out of range");

  Rng rng(cfg.seed);
  Dataset ds;
  ds.config = cfg;
  ds.images.reserve(cfg.total_images);

  for (std::size_t i = 0; i < cfg.total_images; ++i) {
    // Balanced classes, as the paper's dataset has.
    const auto true_label = static_cast<Severity>(i % kNumSeverityClasses);
    const FailureMode failure = rng.bernoulli(cfg.failure_fraction)
                                    ? sample_failure_mode(true_label, rng)
                                    : FailureMode::kNone;
    const bool confusing = rng.bernoulli(cfg.confusing_fraction);
    ds.images.push_back(make_image(i, true_label, failure, cfg.render, rng, confusing));
  }

  // Shuffled split; class balance holds in expectation on both sides.
  std::vector<std::size_t> order(cfg.total_images);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  ds.train_indices.assign(order.begin(),
                          order.begin() + static_cast<std::ptrdiff_t>(cfg.train_images));
  ds.test_indices.assign(order.begin() + static_cast<std::ptrdiff_t>(cfg.train_images),
                         order.end());
  return ds;
}

nn::Matrix Dataset::pixel_matrix(const std::vector<std::size_t>& ids) const {
  if (ids.empty()) throw std::invalid_argument("pixel_matrix: empty id list");
  const std::size_t width = images.at(ids[0]).pixels.size();
  nn::Matrix m(ids.size(), width);
  for (std::size_t r = 0; r < ids.size(); ++r) m.set_row(r, images.at(ids[r]).pixels.data());
  return m;
}

nn::Matrix Dataset::handcrafted_matrix(const std::vector<std::size_t>& ids) const {
  if (ids.empty()) throw std::invalid_argument("handcrafted_matrix: empty id list");
  const std::size_t width = images.at(ids[0]).handcrafted.size();
  nn::Matrix m(ids.size(), width);
  for (std::size_t r = 0; r < ids.size(); ++r) m.set_row(r, images.at(ids[r]).handcrafted);
  return m;
}

std::vector<std::size_t> Dataset::labels(const std::vector<std::size_t>& ids) const {
  std::vector<std::size_t> out(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    out[i] = label_index(images.at(ids[i]).true_label);
  return out;
}

std::size_t Dataset::failure_count(const std::vector<std::size_t>& ids) const {
  std::size_t n = 0;
  for (std::size_t id : ids)
    if (images.at(id).is_failure_case()) ++n;
  return n;
}

ckpt::Digest128 Dataset::content_digest() const {
  // Expert steps running pool-parallel may race to fill the memo: each racer
  // computes the same digest, and the shared_ptr is published atomically.
  if (auto memo = std::atomic_load(&content_digest_memo)) return *memo;
  ckpt::Hasher128 h;
  h.str("crowdlearn.dataset.v1");
  h.u64(images.size());
  for (const DisasterImage& img : images) {
    h.u64(img.id);
    h.u64(label_index(img.true_label));
    h.u64(label_index(img.apparent_label));
    h.u64(static_cast<std::uint64_t>(img.failure));
    h.u64(img.pixels.shape().channels);
    h.u64(img.pixels.shape().height);
    h.u64(img.pixels.shape().width);
    h.vec_f64(img.pixels.data());
    h.vec_f64(img.handcrafted);
    h.vec_f64(img.truth_questionnaire.to_vector());
    h.u8(img.crowd_confusing ? 1 : 0);
    h.u64(img.confusable_label);
  }
  h.vec_sizes(train_indices);
  h.vec_sizes(test_indices);
  const ckpt::Digest128 digest = h.digest();
  std::atomic_store(&content_digest_memo, std::make_shared<const ckpt::Digest128>(digest));
  return digest;
}

}  // namespace crowdlearn::dataset
