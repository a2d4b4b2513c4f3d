#include "experts/ddm.hpp"

#include "ckpt/digest.hpp"

#include <algorithm>
#include <stdexcept>

#include "experts/vgg16_like.hpp"
#include "stats/distribution.hpp"

namespace crowdlearn::experts {

nn::Sequential DdmClassifier::build_model(Rng& rng) {
  using namespace nn;
  const Shape3 in{1, imaging::kImageSide, imaging::kImageSide};

  Sequential m;
  auto conv1 = std::make_unique<Conv2D>(in, cfg_.conv1_channels, 3, rng);
  const Shape3 s1 = conv1->out_shape();
  m.add(std::move(conv1));
  m.add(std::make_unique<ReLU>(s1.size()));
  auto pool1 = std::make_unique<MaxPool2D>(s1);
  const Shape3 s2 = pool1->out_shape();
  m.add(std::move(pool1));

  auto conv2 = std::make_unique<Conv2D>(s2, cfg_.conv2_channels, 3, rng);
  const Shape3 s3 = conv2->out_shape();
  conv2_index_ = m.num_layers();
  m.add(std::move(conv2));
  m.add(std::make_unique<ReLU>(s3.size()));
  auto pool2 = std::make_unique<MaxPool2D>(s3);
  const Shape3 s4 = pool2->out_shape();
  m.add(std::move(pool2));

  m.add(std::make_unique<Dense>(s4.size(), cfg_.hidden, rng));
  m.add(std::make_unique<ReLU>(cfg_.hidden));
  m.add(std::make_unique<Dense>(cfg_.hidden, dataset::kNumSeverityClasses, rng));
  return m;
}

void DdmClassifier::hash_spec(ckpt::Hasher128& h) const {
  h.u64(cfg_.conv1_channels);
  h.u64(cfg_.conv2_channels);
  h.u64(cfg_.hidden);
  h.f64(cfg_.heatmap_blend);
  h.f64(cfg_.activation_threshold);
  h.f64(cfg_.moderate_area);
  h.f64(cfg_.severe_area);
  hash_neural_spec(h);
}

std::unique_ptr<DdaAlgorithm> DdmClassifier::clone() const {
  auto copy = std::make_unique<DdmClassifier>(cfg_);
  copy->copy_neural_state(*this);
  copy->conv2_index_ = conv2_index_;
  return copy;
}

std::vector<double> DdmClassifier::encode(const dataset::DisasterImage& image) const {
  return image.pixels.data();
}

std::vector<std::vector<double>> DdmClassifier::encode_augmented(
    const dataset::DisasterImage& image) const {
  return flip_augmented_pixels(image);
}

nn::Tensor3 DdmClassifier::damage_heatmap(const dataset::DisasterImage& image,
                                          std::size_t cls) {
  if (!trained()) throw std::logic_error("DdmClassifier::damage_heatmap before train");
  if (cls >= dataset::kNumSeverityClasses)
    throw std::out_of_range("DdmClassifier::damage_heatmap: bad class");

  // Forward pass to populate the layer caches for this image.
  nn::Matrix x(1, model_.input_size());
  x.set_row(0, encode(image));
  model_.forward(x, /*training=*/false);

  auto& conv = dynamic_cast<nn::Conv2D&>(model_.layer(conv2_index_));
  const nn::Tensor3 act = conv.last_activation(0);
  const auto& sh = act.shape();

  // Backpropagate the class score through every layer above conv2 to get
  // d(score_cls) / d(conv2 output).
  nn::Matrix grad(1, dataset::kNumSeverityClasses);
  grad(0, cls) = 1.0;
  for (std::size_t i = model_.num_layers(); i-- > conv2_index_ + 1;)
    grad = model_.layer(i).backward(grad);

  // This backward pass accumulated parameter gradients as a side effect;
  // clear them so a later retrain step is not corrupted.
  for (nn::Param& p : model_.params()) p.grad->fill(0.0);

  // Grad-CAM: alpha_ch = spatial mean of the gradient; map = relu(sum alpha*A).
  const std::size_t hw = sh.height * sh.width;
  std::vector<double> alpha(sh.channels, 0.0);
  for (std::size_t c = 0; c < sh.channels; ++c) {
    for (std::size_t i = 0; i < hw; ++i) alpha[c] += grad(0, c * hw + i);
    alpha[c] /= static_cast<double>(hw);
  }

  nn::Tensor3 cam(nn::Shape3{1, sh.height, sh.width});
  for (std::size_t y = 0; y < sh.height; ++y) {
    for (std::size_t xx = 0; xx < sh.width; ++xx) {
      double v = 0.0;
      for (std::size_t c = 0; c < sh.channels; ++c) v += alpha[c] * act.at(c, y, xx);
      cam.at(0, y, xx) = std::max(v, 0.0);
    }
  }
  return cam;
}

double DdmClassifier::activated_fraction(const nn::Tensor3& heatmap) const {
  const auto& data = heatmap.data();
  if (data.empty()) throw std::invalid_argument("activated_fraction: empty heatmap");
  const double peak = *std::max_element(data.begin(), data.end());
  if (peak <= 0.0) return 0.0;
  std::size_t on = 0;
  for (double v : data)
    if (v > cfg_.activation_threshold * peak) ++on;
  return static_cast<double>(on) / static_cast<double>(data.size());
}

std::vector<double> DdmClassifier::heatmap_prior(const dataset::DisasterImage& image) {
  // Measure the activated area of the "severe" Grad-CAM — the damage extent.
  const nn::Tensor3 cam =
      damage_heatmap(image, dataset::label_index(dataset::Severity::kSevere));
  const double area = activated_fraction(cam);

  std::vector<double> prior(dataset::kNumSeverityClasses, 0.1);
  if (area >= cfg_.severe_area)
    prior[dataset::label_index(dataset::Severity::kSevere)] = 0.8;
  else if (area >= cfg_.moderate_area)
    prior[dataset::label_index(dataset::Severity::kModerate)] = 0.8;
  else
    prior[dataset::label_index(dataset::Severity::kNone)] = 0.8;
  stats::normalize(prior);
  return prior;
}

std::vector<double> DdmClassifier::predict_proba(const dataset::DisasterImage& image) {
  std::vector<double> cnn = NeuralDdaAlgorithm::predict_proba(image);
  if (cfg_.heatmap_blend > 0.0) {
    const std::vector<double> prior = heatmap_prior(image);
    for (std::size_t c = 0; c < cnn.size(); ++c)
      cnn[c] = (1.0 - cfg_.heatmap_blend) * cnn[c] + cfg_.heatmap_blend * prior[c];
    stats::normalize(cnn);
  }
  return cnn;
}

}  // namespace crowdlearn::experts
