#include "probes.hpp"

#include <stdexcept>

#include "ckpt/generations.hpp"
#include "core/cqc_module.hpp"
#include "experts/dda_algorithm.hpp"
#include "nn/conv.hpp"
#include "nn/loss.hpp"

namespace perfbench {

namespace cl = crowdlearn;

std::vector<double> time_reps(Tracer& tracer, const std::string& span, int reps,
                              const std::function<void()>& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    SpanScope s(tracer, span);
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return ms;
}

namespace {

constexpr std::size_t kBatch = 32;

std::vector<std::size_t> first_ids(const std::vector<std::size_t>& pool, std::size_t n) {
  if (pool.size() < n) throw std::runtime_error("perfbench: split smaller than a probe batch");
  return {pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(n)};
}

}  // namespace

void probe_layers(cl::experts::ExpertCommittee& trained, const cl::dataset::Dataset& data,
                  Tracer& tracer, Result& r) {
  constexpr int kWarmup = 2, kReps = 25;
  const std::vector<std::size_t> ids = first_ids(data.train_indices, kBatch);
  const std::vector<std::size_t> labels = data.labels(ids);
  for (std::size_t m = 0; m < trained.size(); ++m) {
    auto* neural = dynamic_cast<cl::experts::NeuralDdaAlgorithm*>(&trained.expert(m));
    if (neural == nullptr) continue;
    const std::string expert = neural->name();
    // A private copy: the probe's backward passes accumulate gradients.
    cl::nn::Sequential model = neural->model().clone();
    const bool pixels = model.input_size() == data.image(ids[0]).pixels.size();
    const cl::nn::Matrix x = pixels ? data.pixel_matrix(ids) : data.handcrafted_matrix(ids);
    const std::size_t n = model.num_layers();
    std::vector<std::string> prefix(n);
    for (std::size_t i = 0; i < n; ++i)
      prefix[i] = "nn." + expert + "." + std::to_string(i) + "." + model.layer(i).name();

    std::vector<std::vector<double>> fwd(n), bwd(n);
    for (int rep = 0; rep < kWarmup + kReps; ++rep) {
      const bool keep = rep >= kWarmup;
      SpanScope step(tracer, "nn." + expert + ".train_step");
      cl::nn::Matrix a = x;
      for (std::size_t i = 0; i < n; ++i) {
        SpanScope s(tracer, prefix[i] + ".fwd");
        const auto t0 = Clock::now();
        a = model.layer(i).forward(a, /*training=*/true);
        if (keep) fwd[i].push_back(ms_between(t0, Clock::now()));
      }
      cl::nn::Matrix g = cl::nn::softmax_cross_entropy(a, labels).grad_logits;
      for (std::size_t i = n; i-- > 0;) {
        SpanScope s(tracer, prefix[i] + ".bwd");
        const auto t0 = Clock::now();
        g = model.layer(i).backward(g);
        if (keep) bwd[i].push_back(ms_between(t0, Clock::now()));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      r.layer(prefix[i] + ".fwd_ms", median(fwd[i]), "ms");
      r.layer(prefix[i] + ".bwd_ms", median(bwd[i]), "ms");
      if (const auto* conv = dynamic_cast<const cl::nn::Conv2D*>(&model.layer(i))) {
        // Forward multiply-adds x2 for the batch, from the layer's shapes.
        const auto& in = conv->in_shape();
        const auto& out = conv->out_shape();
        const double k = static_cast<double>(conv->kernel_size());
        const double flop = 2.0 * kBatch * static_cast<double>(out.size()) *
                            static_cast<double>(in.channels) * k * k;
        r.layer(prefix[i] + ".mflop", flop / 1e6, "mflop_computed");
      }
    }
  }
}

void probe_experts(const CommitteeFactory& factory, const cl::core::ExperimentSetup& setup,
                   std::uint64_t seed, cl::util::ThreadPool& pool, Tracer& tracer, Result& r) {
  const cl::dataset::Dataset& data = setup.data;
  {
    cl::experts::ExpertCommittee alone = factory();
    for (std::size_t m = 0; m < alone.size(); ++m) {
      cl::experts::DdaAlgorithm& e = alone.expert(m);
      e.set_thread_pool(nullptr);
      cl::Rng rng(seed + m);
      SpanScope s(tracer, "experts.train." + e.name());
      const auto t0 = Clock::now();
      e.train(data, data.train_indices, rng);
      r.layer("experts.train_s." + e.name(), s_between(t0, Clock::now()), "s");
    }
  }

  cl::experts::ExpertCommittee all = factory();
  all.set_thread_pool(&pool);
  cl::Rng rng(seed);
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  {
    SpanScope s(tracer, "experts.train_all");
    all.train_all(data, data.train_indices, rng);
  }
  const double wall = s_between(t0, Clock::now());
  const double cpu = process_cpu_seconds() - cpu0;
  r.layer("experts.train_all_s", wall, "s");
  r.layer("experts.train_all_cpu_util", cpu / (wall * static_cast<double>(pool.size())),
          "fraction");

  const std::vector<std::size_t> ids = first_ids(data.test_indices, kBatch);
  all.expert_votes_batch(data, ids);  // warm-up: sizes the replicas' workspaces
  r.layer("experts.votes_batch_ms",
          median(time_reps(tracer, "experts.votes_batch", 25,
                           [&] { all.expert_votes_batch(data, ids); })),
          "ms");
}

void probe_cqc(const cl::core::CrowdLearnConfig& cfg, const cl::core::ExperimentSetup& setup,
               cl::util::ThreadPool& pool, Tracer& tracer, Result& r) {
  r.layer("cqc.fit_ms", median(time_reps(tracer, "cqc.fit", 7, [&] {
            cl::core::CqcModule cqc(cfg.cqc);
            cqc.set_thread_pool(&pool);
            cqc.fit_from_pilot(setup.pilot, setup.data);
          })),
          "ms");
}

void probe_state(cl::core::CrowdLearnSystem& system, cl::crowd::CrowdPlatform& platform,
                 const std::string& dir, Tracer& tracer, Result& r) {
  constexpr int kReps = 9;
  std::string image;
  r.layer("ckpt.state_image_ms", median(time_reps(tracer, "ckpt.state_image", kReps, [&] {
            image = system.state_image(&platform);
          })),
          "ms");
  r.layer("ckpt.state_image_kb", static_cast<double>(image.size()) / 1024.0, "KiB");
  r.layer("ckpt.load_state_image_ms",
          median(time_reps(tracer, "ckpt.load_state_image", kReps,
                           [&] { system.load_state_image(image, &platform); })),
          "ms");
  if (system.state_image(&platform) != image)
    r.violation("load_state_image did not restore the state it was given");

  cl::ckpt::GenerationRing ring({dir, 2});
  std::uint64_t generation = 0;
  r.layer("ckpt.ring_save_ms", median(time_reps(tracer, "ckpt.ring_save", kReps, [&] {
            ring.save(image, ++generation);
          })),
          "ms");
  bool loaded_ok = true;
  r.layer("ckpt.ring_load_ms", median(time_reps(tracer, "ckpt.ring_load", kReps, [&] {
            const auto res = ring.load_newest();
            loaded_ok = loaded_ok && res.found && res.image == image;
          })),
          "ms");
  if (!loaded_ok) r.violation("generation ring did not return the image it saved");
}

}  // namespace perfbench
