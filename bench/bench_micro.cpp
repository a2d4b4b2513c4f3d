// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// matrix multiply, convolution forward/backward, GBDT fitting, the ALP
// solver, committee entropy, and platform query throughput.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include "bandit/ucb_alp.hpp"
#include "cache/artifact_cache.hpp"
#include "ckpt/io.hpp"
#include "core/cqc_module.hpp"
#include "core/experiment.hpp"
#include "crowd/platform.hpp"
#include "experts/bovw.hpp"
#include "experts/committee.hpp"
#include "experts/ddm.hpp"
#include "experts/vgg16_like.hpp"
#include "gbdt/gbdt.hpp"
#include "nn/conv.hpp"
#include "nn/sequential.hpp"
#include "obs/observability.hpp"
#include "oracle/naive_conv.hpp"
#include "oracle/reference_gemm.hpp"
#include "service/coalescer.hpp"
#include "service/queue.hpp"
#include "service/tenant.hpp"
#include "truth/cqc.hpp"
#include "util/thread_pool.hpp"
#include "util/guard.hpp"

namespace {

using namespace crowdlearn;

void BM_MatrixMatmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  nn::Matrix a(n, n), b(n, n);
  for (double& v : a.data()) v = rng.uniform(-1, 1);
  for (double& v : b.data()) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    nn::Matrix c = a.matmul(b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatrixMatmul)->Arg(32)->Arg(64)->Arg(128);

// --- Tiled vs reference GEMM (docs/PERFORMANCE.md) ---
//
// The cache-blocked kernel (nn/gemm_tiled.hpp) carries serving-scale
// committee batches; the reference i-k-j loop is the readable spec, kept in
// the test-only oracle (tests/oracle). The perf-regression gate is
// time(reference) / time(tiled) >= 2 at 512x512x512 (scripts/bench_json.sh).
// Both kernels produce byte-identical outputs (tests/test_gemm_tiled.cpp).
// Dense operands: the zero-skip branch never fires, so this measures the
// pure blocking/vectorization win.

template <typename MatmulFn>
void gemm_bench(benchmark::State& state, MatmulFn matmul) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Matrix a(n, n), b(n, n);
  for (double& v : a.data()) v = rng.uniform(-1, 1);
  for (double& v : b.data()) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    nn::Matrix c = matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}

void BM_GemmTiled(benchmark::State& state) {
  gemm_bench(state, [](const nn::Matrix& a, const nn::Matrix& b) { return a.matmul(b); });
}
BENCHMARK(BM_GemmTiled)->Arg(128)->Arg(512);

void BM_GemmReference(benchmark::State& state) {
  gemm_bench(state, nn::oracle::reference_matmul);
}
BENCHMARK(BM_GemmReference)->Arg(128)->Arg(512);

// --- im2col+GEMM vs naive convolution (docs/PERFORMANCE.md) ---
//
// Args = {batch, layer}: layer 0 is the VGG16-like first conv
// ({1,16,16} -> 8ch, 3x3), layer 1 the second ({8,8,8} -> 16ch, 3x3).
// The *Naive variants run the oracle's naive reference kernels
// (oracle::NaiveConv2D over the same weights) on the same shapes; the
// perf-regression gate is time(naive) / time(im2col) >= 3 at these shapes
// (scripts/bench_json.sh records both in BENCH_micro.json). Both paths
// produce byte-identical outputs (tests/test_nn_kernels.cpp).

nn::Shape3 conv_bench_shape(int layer) {
  return layer == 0 ? nn::Shape3{1, 16, 16} : nn::Shape3{8, 8, 8};
}

std::size_t conv_bench_channels(int layer) { return layer == 0 ? 8 : 16; }

// ConvLayer is nn::Conv2D or nn::oracle::NaiveConv2D, either one over the
// weights of a freshly initialised Conv2D.
template <typename ConvLayer>
void conv_forward_bench(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const int layer = static_cast<int>(state.range(1));
  const nn::Shape3 in = conv_bench_shape(layer);
  Rng rng(2);
  ConvLayer conv(nn::Conv2D(in, conv_bench_channels(layer), 3, rng));
  nn::Matrix x(batch, in.size());
  for (double& v : x.data()) v = rng.uniform(0, 1);
  nn::Matrix y;
  conv.forward_into(x, y, false);  // warm-up sizes the workspace once
  for (auto _ : state) {
    conv.forward_into(x, y, false);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}

void BM_Conv2DForward(benchmark::State& state) { conv_forward_bench<nn::Conv2D>(state); }
BENCHMARK(BM_Conv2DForward)->Args({1, 0})->Args({32, 0})->Args({32, 1});

void BM_Conv2DForwardNaive(benchmark::State& state) {
  conv_forward_bench<nn::oracle::NaiveConv2D>(state);
}
BENCHMARK(BM_Conv2DForwardNaive)->Args({1, 0})->Args({32, 0})->Args({32, 1});

template <typename ConvLayer>
void conv_backward_bench(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const int layer = static_cast<int>(state.range(1));
  const nn::Shape3 in = conv_bench_shape(layer);
  Rng rng(2);
  ConvLayer conv(nn::Conv2D(in, conv_bench_channels(layer), 3, rng));
  nn::Matrix x(batch, in.size());
  for (double& v : x.data()) v = rng.uniform(0, 1);
  nn::Matrix g(batch, conv.output_size());
  for (double& v : g.data()) v = rng.uniform(-1, 1);
  conv.forward(x, true);
  for (auto _ : state) {
    nn::Matrix gx = conv.backward(g);
    benchmark::DoNotOptimize(gx.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}

void BM_Conv2DBackward(benchmark::State& state) { conv_backward_bench<nn::Conv2D>(state); }
BENCHMARK(BM_Conv2DBackward)->Args({32, 0})->Args({32, 1});

void BM_Conv2DBackwardNaive(benchmark::State& state) {
  conv_backward_bench<nn::oracle::NaiveConv2D>(state);
}
BENCHMARK(BM_Conv2DBackwardNaive)->Args({32, 0})->Args({32, 1});

// One SGD minibatch step (forward + backward + update) through the whole
// VGG16-like stack on 16x16 inputs — the inner loop of expert (re)training.
nn::Sequential vgg16_like_bench_model(Rng& rng) {
  const nn::Shape3 in{1, 16, 16};
  nn::Sequential model;
  model.add(std::make_unique<nn::Conv2D>(in, 8, 3, rng));
  model.add(std::make_unique<nn::ReLU>(nn::Shape3{8, 16, 16}.size()));
  model.add(std::make_unique<nn::MaxPool2D>(nn::Shape3{8, 16, 16}));
  model.add(std::make_unique<nn::Conv2D>(nn::Shape3{8, 8, 8}, 16, 3, rng));
  model.add(std::make_unique<nn::ReLU>(nn::Shape3{16, 8, 8}.size()));
  model.add(std::make_unique<nn::MaxPool2D>(nn::Shape3{16, 8, 8}));
  model.add(std::make_unique<nn::Dense>(nn::Shape3{16, 4, 4}.size(), 48, rng));
  model.add(std::make_unique<nn::ReLU>(48));
  model.add(std::make_unique<nn::Dense>(48, 3, rng));
  return model;
}

void sequential_train_step_bench(benchmark::State& state, bool naive) {
  Rng rng(5);
  nn::Sequential model = vgg16_like_bench_model(rng);
  if (naive) model = nn::oracle::with_naive_convolutions(model);
  const std::size_t batch = 32;
  nn::Matrix x(batch, model.input_size());
  for (double& v : x.data()) v = rng.uniform(0, 1);
  std::vector<std::size_t> y(batch);
  for (std::size_t i = 0; i < batch; ++i) y[i] = i % 3;
  nn::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = batch;
  cfg.shuffle = false;
  Rng fit_rng(9);
  model.fit(x, y, cfg, fit_rng);  // warm-up sizes the workspace once
  for (auto _ : state) {
    const auto stats = model.fit(x, y, cfg, fit_rng);
    benchmark::DoNotOptimize(stats.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}

void BM_SequentialTrainStep(benchmark::State& state) {
  sequential_train_step_bench(state, /*naive=*/false);
}
BENCHMARK(BM_SequentialTrainStep);

void BM_SequentialTrainStepNaive(benchmark::State& state) {
  sequential_train_step_bench(state, /*naive=*/true);
}
BENCHMARK(BM_SequentialTrainStepNaive);

void BM_GbdtFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<std::vector<double>> rows(n, std::vector<double>(12));
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& v : rows[i]) v = rng.uniform(0, 1);
    labels[i] = rng.index(3);
  }
  const auto x = gbdt::FeatureMatrix::from_rows(rows);
  gbdt::GbdtConfig cfg;
  cfg.num_rounds = 20;
  for (auto _ : state) {
    gbdt::Gbdt model;
    model.fit(x, labels, 3, cfg);
    benchmark::DoNotOptimize(model.num_rounds());
  }
}
BENCHMARK(BM_GbdtFit)->Arg(200)->Arg(560);

// --- CQC retrain: histogram vs exact split engine (docs/GBDT.md) ---
//
// Arg = corpus-scale multiplier: 56 labeled queries at 1x, 5600 at 100x,
// bracketing a real deployment's every-cycle retrain as the labeled pool
// accumulates. BM_CqcRetrainExact runs the retained exact reference engine
// on the same corpus; the perf-regression gate is
// time(exact) / time(hist) >= 3 at the 100x scale (scripts/bench_json.sh
// records both in BENCH_micro.json). The engines agree on accuracy
// (tests/test_gbdt_hist.cpp).

std::vector<truth::LabeledQuery> cqc_bench_corpus(std::size_t n, Rng& rng) {
  std::vector<truth::LabeledQuery> corpus(n);
  for (truth::LabeledQuery& q : corpus) {
    q.true_label = rng.index(3);
    q.response.answers.resize(3 + rng.index(4));
    for (crowd::WorkerAnswer& a : q.response.answers) {
      a.worker_id = rng.index(40);
      a.label = rng.bernoulli(0.7) ? q.true_label : rng.index(3);
      a.questionnaire.resize(dataset::Questionnaire::kDims);
      for (double& v : a.questionnaire)
        v = rng.bernoulli(q.true_label == 2 ? 0.8 : 0.2) ? 1.0 : 0.0;
      a.delay_seconds = rng.uniform(20, 400);
    }
  }
  return corpus;
}

void cqc_retrain_bench(benchmark::State& state, gbdt::SplitEngine engine) {
  const auto scale = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  const std::vector<truth::LabeledQuery> corpus = cqc_bench_corpus(56 * scale, rng);
  truth::CqcConfig cfg;
  cfg.gbdt.engine = engine;
  cfg.gbdt.num_rounds = 8;
  for (auto _ : state) {
    truth::CqcAggregator cqc(cfg);
    cqc.fit(corpus);
    benchmark::DoNotOptimize(cqc.trained());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(corpus.size()));
}

void BM_CqcRetrainHist(benchmark::State& state) {
  cqc_retrain_bench(state, gbdt::SplitEngine::kHistogram);
}
BENCHMARK(BM_CqcRetrainHist)->Arg(1)->Arg(10)->Arg(100);

void BM_CqcRetrainExact(benchmark::State& state) {
  cqc_retrain_bench(state, gbdt::SplitEngine::kExactReference);
}
BENCHMARK(BM_CqcRetrainExact)->Arg(1)->Arg(10)->Arg(100);

// --- Artifact-cached retrains (src/cache, docs/CACHING.md) ---
//
// One "retrain step" = committee train + committee fine-tune + CQC fit, all
// routed through a content-addressed ArtifactCache. Arg = corpus-scale
// multiplier for the CQC leg (56 labeled queries at 1x). Cold clears the
// store before every iteration (every step computes + stores); Warm
// pre-populates once, so every iteration is served from disk — key digest,
// sharded read, CRC validation, state restore. The perf-regression gate is
// time(cold) / time(warm) >= 5 at the 10x scale (scripts/bench_json.sh,
// docs/PERFORMANCE.md); the hit≡recompute contract behind the speedup is
// pinned by tests/test_cache.cpp.

void cached_retrain_step(cache::ArtifactCache& cache, const dataset::Dataset& data,
                         const std::vector<truth::LabeledQuery>& corpus,
                         const std::vector<std::size_t>& queried_ids,
                         const std::vector<std::size_t>& truth_labels) {
  Rng rng(99);
  experts::BovwConfig bovw;  // production-shaped epochs: the step being memoized
  bovw.train.epochs = 30;
  bovw.train.learning_rate = 0.05;
  std::vector<std::unique_ptr<experts::DdaAlgorithm>> roster;
  roster.push_back(std::make_unique<experts::BovwClassifier>(bovw));
  roster.push_back(std::make_unique<experts::BovwClassifier>(bovw));
  experts::ExpertCommittee committee(std::move(roster));
  committee.train_all(data, data.train_indices, rng, &cache);
  committee.retrain_all(data, queried_ids, truth_labels, rng, &cache);
  truth::CqcConfig cfg;  // production default rounds (truth/cqc.hpp)
  cfg.gbdt.engine = gbdt::SplitEngine::kHistogram;
  core::CqcModule cqc(cfg);
  cqc.set_artifact_cache(&cache);
  cqc.fit(corpus);
  benchmark::DoNotOptimize(cqc.trained());
}

void cached_retrain_bench(benchmark::State& state, bool warm) {
  const auto scale = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  const std::vector<truth::LabeledQuery> corpus = cqc_bench_corpus(56 * scale, rng);
  dataset::DatasetConfig dcfg;
  dcfg.total_images = 90;
  dcfg.train_images = 50;
  const dataset::Dataset data = dataset::generate_dataset(dcfg);
  std::vector<std::size_t> queried_ids(data.train_indices.begin(),
                                       data.train_indices.begin() + 8);
  const std::vector<std::size_t> truth_labels = data.labels(queried_ids);
  const std::string root =
      (std::filesystem::temp_directory_path() / "crowdlearn_bench_cache").string();
  std::filesystem::remove_all(root);
  cache::ArtifactCache cache({root, 0});
  if (warm)
    cached_retrain_step(cache, data, corpus, queried_ids, truth_labels);  // populate
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      std::filesystem::remove_all(root);
      state.ResumeTiming();
    }
    cached_retrain_step(cache, data, corpus, queried_ids, truth_labels);
  }
  const cache::CacheStats stats = cache.stats();
  state.counters["hits"] = static_cast<double>(stats.hits);
  state.counters["misses"] = static_cast<double>(stats.misses);
  state.counters["read_mb"] = static_cast<double>(stats.read_bytes) / (1024.0 * 1024.0);
  std::filesystem::remove_all(root);
}

void BM_CqcRetrainCachedCold(benchmark::State& state) {
  cached_retrain_bench(state, /*warm=*/false);
}
BENCHMARK(BM_CqcRetrainCachedCold)->Arg(1)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_CqcRetrainCachedWarm(benchmark::State& state) {
  cached_retrain_bench(state, /*warm=*/true);
}
BENCHMARK(BM_CqcRetrainCachedWarm)->Arg(1)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_AlpSolve(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::vector<double>> rewards(4, std::vector<double>(7));
  for (auto& row : rewards)
    for (double& v : row) v = rng.uniform(0, 1);
  const std::vector<double> costs{1, 2, 4, 6, 8, 10, 20};
  const std::vector<double> probs(4, 0.25);
  for (auto _ : state) {
    bandit::AlpSolution s = bandit::solve_alp(rewards, costs, probs, 8.0);
    benchmark::DoNotOptimize(s.expected_cost);
  }
}
BENCHMARK(BM_AlpSolve);

void BM_PlatformQuery(benchmark::State& state) {
  dataset::DatasetConfig dcfg;
  dcfg.total_images = 64;
  dcfg.train_images = 32;
  const dataset::Dataset data = dataset::generate_dataset(dcfg);
  crowd::PlatformConfig pcfg;
  crowd::CrowdPlatform platform(&data, pcfg);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto resp = platform.post_query(data.test_indices[i % data.test_indices.size()],
                                          8.0, dataset::TemporalContext::kEvening);
    benchmark::DoNotOptimize(resp.completion_delay_seconds);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PlatformQuery);

void BM_CommitteeVote(benchmark::State& state) {
  dataset::DatasetConfig dcfg;
  dcfg.total_images = 96;
  dcfg.train_images = 64;
  const dataset::Dataset data = dataset::generate_dataset(dcfg);
  experts::ExpertCommittee committee = experts::make_default_committee();
  Rng rng(6);
  committee.train_all(data, data.train_indices, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    const double h =
        committee.committee_entropy(data.image(data.test_indices[i % data.test_indices.size()]));
    benchmark::DoNotOptimize(h);
    ++i;
  }
}
BENCHMARK(BM_CommitteeVote);

// Shared pretrained roster for the committee-inference benchmarks: training
// the full VGG/BoVW/DDM committee is expensive, so it happens exactly once.
struct CommitteeFixture {
  dataset::Dataset data;
  experts::ExpertCommittee committee = experts::make_default_committee();
  CommitteeFixture() {
    dataset::DatasetConfig dcfg;
    dcfg.total_images = 96;
    dcfg.train_images = 64;
    data = dataset::generate_dataset(dcfg);
    Rng rng(7);
    committee.train_all(data, data.train_indices, rng);
  }
  static CommitteeFixture& instance() {
    static CommitteeFixture fixture;
    return fixture;
  }
};

// Single-image committee inference (every expert votes, weighted vote
// normalized) — the per-image latency of the deployed system's hot path,
// dominated by the CNN experts' conv forwards.
void BM_CommitteeInference(benchmark::State& state) {
  CommitteeFixture& fx = CommitteeFixture::instance();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::vector<double> vote =
        fx.committee.committee_vote(fx.data.image(fx.data.test_indices[i % fx.data.test_indices.size()]));
    benchmark::DoNotOptimize(vote.data());
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CommitteeInference);

// Parallel-vs-serial committee inference: the per-cycle hot path (expert
// votes for every sensing-cycle image). Arg = thread count; Arg(1) is the
// serial baseline, so the speedup at T threads is time(1) / time(T).
// Outputs are byte-identical across thread counts (see test_determinism).
void BM_CommitteeBatchInference(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  CommitteeFixture& fixture = CommitteeFixture::instance();

  util::ThreadPool pool(threads);
  fixture.committee.set_thread_pool(threads > 1 ? &pool : nullptr);
  for (auto _ : state) {
    const auto votes = fixture.committee.expert_votes_batch(fixture.data,
                                                            fixture.data.test_indices);
    benchmark::DoNotOptimize(votes.data());
  }
  fixture.committee.set_thread_pool(nullptr);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.data.test_indices.size()));
}
BENCHMARK(BM_CommitteeBatchInference)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Cold expert training: one fresh expert trained from scratch on the
// quickstart golden split (300 images, 220 train, seed 42) per iteration —
// the work train_all does before the first sensing cycle, and the bulk of
// setup time. VGG16, DDM and BoVW run serially; DDM_pool4 is DDM with a
// 4-thread pool attached, so DDM_pool4 / DDM is the pool-over-serial ratio
// (it must stay <= 1: a pool may never make training slower). Real time,
// since the pooled run spends CPU on several threads.
struct ExpertTrainFixture {
  dataset::Dataset data;
  ExpertTrainFixture() {
    dataset::DatasetConfig dcfg;
    dcfg.total_images = 300;
    dcfg.train_images = 220;
    dcfg.seed = 42;
    data = dataset::generate_dataset(dcfg);
  }
  static ExpertTrainFixture& instance() {
    static ExpertTrainFixture fixture;
    return fixture;
  }
};

template <typename Expert>
std::unique_ptr<experts::DdaAlgorithm> make_expert() {
  return std::make_unique<Expert>();
}

void BM_ExpertTrain(benchmark::State& state, std::unique_ptr<experts::DdaAlgorithm> (*make)(),
                    std::size_t threads) {
  const ExpertTrainFixture& fx = ExpertTrainFixture::instance();
  util::ThreadPool pool(threads);
  for (auto _ : state) {
    std::unique_ptr<experts::DdaAlgorithm> expert = make();
    if (threads > 1) expert->set_thread_pool(&pool);
    Rng rng(42);
    expert->train(fx.data, fx.data.train_indices, rng);
    benchmark::DoNotOptimize(expert->is_trained());
  }
}
BENCHMARK_CAPTURE(BM_ExpertTrain, VGG16, &make_expert<experts::Vgg16Like>, std::size_t{1})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_ExpertTrain, DDM, &make_expert<experts::DdmClassifier>, std::size_t{1})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_ExpertTrain, DDM_pool4, &make_expert<experts::DdmClassifier>,
                  std::size_t{4})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_ExpertTrain, BoVW, &make_expert<experts::BovwClassifier>, std::size_t{1})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Parallel-vs-serial GBDT training (CQC's model fit): feature-parallel split
// search with ordered reduction. Arg = thread count, Arg(1) = serial.
void BM_GbdtFitParallel(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 560, cols = 24;
  Rng rng(11);
  std::vector<std::vector<double>> rows(n, std::vector<double>(cols));
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& v : rows[i]) v = rng.uniform(0, 1);
    labels[i] = rng.index(3);
  }
  const auto x = gbdt::FeatureMatrix::from_rows(rows);
  util::ThreadPool pool(threads);
  gbdt::GbdtConfig cfg;
  cfg.num_rounds = 20;
  cfg.tree.pool = threads > 1 ? &pool : nullptr;
  for (auto _ : state) {
    gbdt::Gbdt model;
    model.fit(x, labels, 3, cfg);
    benchmark::DoNotOptimize(model.num_rounds());
  }
}
BENCHMARK(BM_GbdtFitParallel)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Observability overhead: the per-event cost instrumented hot paths pay.
// BM_ObsDisabledGuard is the price of instrumentation when observability is
// OFF (one null check) — it should be indistinguishable from free.
void BM_ObsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("bench_total");
  for (auto _ : state) {
    c.inc();
    benchmark::DoNotOptimize(&c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Histogram& h =
      reg.histogram("bench_seconds", obs::Histogram::exponential_bounds(1e-6, 4.0, 12));
  double v = 0.0;
  for (auto _ : state) {
    h.observe(v);
    v += 1e-7;
    benchmark::DoNotOptimize(&h);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsSpanScope(benchmark::State& state) {
  obs::Observability o;
  obs::Tracer* tracer = obs::kCompiledIn ? &o.tracer() : nullptr;
  for (auto _ : state) {
    obs::SpanScope span(tracer, "bench.span", "bench");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsSpanScope);

void BM_ObsDisabledGuard(benchmark::State& state) {
  obs::Observability* none = nullptr;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    if (obs::active(none)) ++hits;  // the branch every disabled call site pays
    obs::SpanScope span(obs::tracer_of(none), "bench.span", "bench");
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsDisabledGuard);

// --- Checkpoint container (docs/CHECKPOINTING.md) ---

// Shared fixture: a trained GBT (the largest single blob a real checkpoint
// carries) plus a warm UCB-ALP policy, serialized once for the load bench.
struct CkptFixture {
  gbdt::Gbdt model;
  bandit::UcbAlpPolicy policy;

  CkptFixture() : policy(make_policy_config()) {
    Rng rng(11);
    std::vector<std::vector<double>> rows(240, std::vector<double>(12));
    std::vector<std::size_t> labels(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (double& v : rows[i]) v = rng.uniform(0, 1);
      labels[i] = rng.index(3);
    }
    gbdt::GbdtConfig cfg;
    cfg.num_rounds = 20;
    model.fit(gbdt::FeatureMatrix::from_rows(rows), labels, 3, cfg);
    for (std::size_t i = 0; i < 64; ++i) {
      const std::size_t ctx = i % 4;
      policy.observe(ctx, policy.choose(ctx), rng.uniform(10, 400));
    }
  }

  static bandit::UcbAlpConfig make_policy_config() {
    bandit::UcbAlpConfig cfg;
    cfg.action_costs = {1, 2, 4, 6, 8, 10, 20};
    cfg.num_contexts = 4;
    cfg.total_budget_cents = 800.0;
    cfg.horizon = 200;
    return cfg;
  }

  static const CkptFixture& instance() {
    static const CkptFixture fixture;
    return fixture;
  }
};

void BM_CheckpointSave(benchmark::State& state) {
  const CkptFixture& fx = CkptFixture::instance();
  std::size_t bytes = 0;
  for (auto _ : state) {
    ckpt::Writer w;
    fx.model.save_state(w);
    fx.policy.save_state(w);
    const std::string image = ckpt::file_image(w);  // header + CRC included
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CheckpointSave);

void BM_CheckpointLoad(benchmark::State& state) {
  const CkptFixture& fx = CkptFixture::instance();
  ckpt::Writer w;
  fx.model.save_state(w);
  fx.policy.save_state(w);
  const std::string image = ckpt::file_image(w);
  for (auto _ : state) {
    // The full read path: container validation (magic/version/size/CRC) then
    // a typed parse into live modules.
    gbdt::Gbdt model;
    bandit::UcbAlpPolicy policy(CkptFixture::make_policy_config());
    ckpt::Reader r(ckpt::validate_image(image));
    model.load_state(r);
    policy.load_state(r);
    benchmark::DoNotOptimize(model.num_rounds());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_CheckpointLoad);

// ---- Multi-tenant service: tenant-count scaling under residency caps ------
// Drives 8 small tenants × 3 cycles each through the ServiceQueue in
// interleaved arrival order (docs/TENANCY.md). resident:100 keeps every
// tenant live (no eviction — pure cross-tenant scheduling cost);
// resident:25 caps residency at 2, so tenants continuously page out through
// their generation rings and rehydrate — the ratio between the two is the
// price of eviction churn, and the rss_mb counter shows the resident-memory
// ceiling the cap buys. Not speed-gated: churn is *supposed* to be slower.

/// VmRSS from /proc/self/status, in MiB (0 where unsupported).
double resident_set_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

void BM_ServiceCycles(benchmark::State& state) {
  constexpr std::size_t kTenants = 8;
  constexpr std::size_t kCyclesPerTenant = 3;
  const auto resident_pct = static_cast<std::size_t>(state.range(0));
  const std::string root =
      (std::filesystem::temp_directory_path() / "crowdlearn_bench_service").string();

  auto spec_for = [](std::size_t i) {
    crowdlearn::service::TenantSpec spec;
    spec.name = "tenant" + std::to_string(i);
    spec.experiment.dataset.total_images = 90;
    spec.experiment.dataset.train_images = 50;
    spec.experiment.stream.num_cycles = kCyclesPerTenant;
    spec.experiment.stream.images_per_cycle = 4;
    spec.experiment.stream.grouped_contexts = false;
    spec.experiment.pilot.queries_per_cell = 4;
    spec.experiment.seed = 7100 + i;
    spec.queries_per_cycle = 2;
    spec.total_budget_cents = 300.0;
    spec.committee_factory = [] {
      experts::BovwConfig fast;
      fast.train.epochs = 8;
      fast.train.learning_rate = 0.05;
      std::vector<std::unique_ptr<experts::DdaAlgorithm>> roster;
      roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
      roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
      return experts::ExpertCommittee(std::move(roster));
    };
    return spec;
  };

  std::size_t evictions = 0;
  for (auto _ : state) {
    std::filesystem::remove_all(root);
    crowdlearn::service::TenantManagerConfig mcfg;
    mcfg.root_dir = root;
    mcfg.max_resident = std::max<std::size_t>(1, kTenants * resident_pct / 100);
    mcfg.num_threads = 4;
    crowdlearn::service::TenantManager mgr(mcfg);
    for (std::size_t i = 0; i < kTenants; ++i) mgr.add_tenant(spec_for(i));
    {
      crowdlearn::service::ServiceQueue queue(mgr);
      for (std::size_t c = 0; c < kCyclesPerTenant; ++c)
        for (std::size_t i = 0; i < kTenants; ++i)
          queue.submit_cycle("tenant" + std::to_string(i));
      queue.drain();
    }
    evictions = mgr.total_evictions();
    benchmark::DoNotOptimize(evictions);
  }
  state.counters["evictions"] = static_cast<double>(evictions);
  state.counters["rss_mb"] = resident_set_mib();
  state.counters["tenants"] = static_cast<double>(kTenants);
  std::filesystem::remove_all(root);
}
BENCHMARK(BM_ServiceCycles)->ArgName("resident")->Arg(100)->Arg(25)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Cross-tenant dedup through the shared artifact cache (docs/CACHING.md):
// 8 tenants with IDENTICAL specs (clone deployments over the same corpus)
// run their full streams through the ServiceQueue. cache:0 is the baseline
// — every tenant trains and retrains from scratch; cache:1 wires a shared
// ArtifactCache through TenantManagerConfig::cache_dir, so the first tenant
// computes and the other seven restore its artifacts (hits/misses counters
// show the dedup). Not speed-gated — the Cold/Warm pair above carries the
// gated claim; this shows the ratio at service level.

void BM_ServiceCyclesDedup(benchmark::State& state) {
  constexpr std::size_t kTenants = 8;
  constexpr std::size_t kCyclesPerTenant = 3;
  const bool cached = state.range(0) != 0;
  const std::string root =
      (std::filesystem::temp_directory_path() / "crowdlearn_bench_dedup").string();

  auto spec_for = [](std::size_t i) {
    crowdlearn::service::TenantSpec spec;
    spec.name = "clone" + std::to_string(i);
    spec.experiment.dataset.total_images = 90;
    spec.experiment.dataset.train_images = 50;
    spec.experiment.stream.num_cycles = kCyclesPerTenant;
    spec.experiment.stream.images_per_cycle = 4;
    spec.experiment.stream.grouped_contexts = false;
    spec.experiment.pilot.queries_per_cell = 4;
    spec.experiment.seed = 7300;  // identical across tenants: clone deployments
    spec.queries_per_cycle = 2;
    spec.total_budget_cents = 300.0;
    spec.committee_factory = [] {
      experts::BovwConfig fast;
      fast.train.epochs = 8;
      fast.train.learning_rate = 0.05;
      std::vector<std::unique_ptr<experts::DdaAlgorithm>> roster;
      roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
      roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
      return experts::ExpertCommittee(std::move(roster));
    };
    return spec;
  };

  std::uint64_t hits = 0, misses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(root);
    state.ResumeTiming();
    crowdlearn::service::TenantManagerConfig mcfg;
    mcfg.root_dir = root + "/tenants";
    mcfg.num_threads = 4;
    if (cached) mcfg.cache_dir = root + "/artifacts";
    crowdlearn::service::TenantManager mgr(mcfg);
    for (std::size_t i = 0; i < kTenants; ++i) mgr.add_tenant(spec_for(i));
    {
      crowdlearn::service::ServiceQueue queue(mgr);
      for (std::size_t c = 0; c < kCyclesPerTenant; ++c)
        for (std::size_t i = 0; i < kTenants; ++i)
          queue.submit_cycle("clone" + std::to_string(i));
      queue.drain();
    }
    if (cached) {
      const crowdlearn::cache::CacheStats stats = mgr.artifact_cache()->stats();
      hits = stats.hits;
      misses = stats.misses;
    }
    benchmark::DoNotOptimize(mgr.total_evictions());
  }
  state.counters["hits"] = static_cast<double>(hits);
  state.counters["misses"] = static_cast<double>(misses);
  state.counters["tenants"] = static_cast<double>(kTenants);
  std::filesystem::remove_all(root);
}
BENCHMARK(BM_ServiceCyclesDedup)->ArgName("cache")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---- Serving throughput through the batch coalescer -----------------------
// A saturation load of single-image classify requests across 3 warm tenants,
// driven through the BatchCoalescer front door at max_batch 1, 64 and 1024
// (docs/SERVING.md). batch:1 is the no-coalescing baseline (one committee
// call per request); the larger caps show how far amortizing model
// activation and workspace reshaping over a batch takes request throughput
// (items/s = requests/s). Not speed-gated: absolute throughput is
// VM-sensitive — the GEMM pair above carries the gated claim.

void BM_ServeThroughput(benchmark::State& state) {
  constexpr std::size_t kTenants = 3;
  constexpr std::size_t kRequests = 512;  // per iteration, round-robin
  const auto max_batch = static_cast<std::size_t>(state.range(0));
  const std::string root =
      (std::filesystem::temp_directory_path() / "crowdlearn_bench_serve").string();
  std::filesystem::remove_all(root);

  crowdlearn::service::TenantManagerConfig mcfg;
  mcfg.root_dir = root;
  mcfg.num_threads = 4;
  crowdlearn::service::TenantManager mgr(mcfg);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kTenants; ++i) {
    crowdlearn::service::TenantSpec spec;
    spec.name = "tenant" + std::to_string(i);
    spec.experiment.dataset.total_images = 90;
    spec.experiment.dataset.train_images = 50;
    spec.experiment.stream.num_cycles = 2;
    spec.experiment.stream.images_per_cycle = 4;
    spec.experiment.stream.grouped_contexts = false;
    spec.experiment.pilot.queries_per_cell = 4;
    spec.experiment.seed = 7200 + i;
    spec.queries_per_cycle = 2;
    spec.total_budget_cents = 300.0;
    spec.committee_factory = [] {
      experts::BovwConfig fast;
      fast.train.epochs = 8;
      fast.train.learning_rate = 0.05;
      std::vector<std::unique_ptr<experts::DdaAlgorithm>> roster;
      roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
      roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
      return experts::ExpertCommittee(std::move(roster));
    };
    mgr.add_tenant(spec);
    mgr.run_next_cycle(spec.name);  // warm: committee trained, tenant resident
    names.push_back(spec.name);
  }

  std::size_t batches = 0;
  for (auto _ : state) {
    crowdlearn::service::BatchCoalescerConfig ccfg;
    ccfg.max_batch_images = max_batch;
    ccfg.max_linger = std::chrono::milliseconds{0};  // flush-driven, no timer
    crowdlearn::service::BatchCoalescer coalescer(mgr, ccfg);
    std::vector<std::future<std::vector<std::size_t>>> futures;
    futures.reserve(kRequests);
    for (std::size_t r = 0; r < kRequests; ++r)
      futures.push_back(coalescer.submit_classify(names[r % kTenants], {r % 90}));
    coalescer.flush();
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
    batches = coalescer.stats().batches;
  }
  state.counters["batches_per_iter"] = static_cast<double>(batches);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRequests));
  std::filesystem::remove_all(root);
}
BENCHMARK(BM_ServeThroughput)->ArgName("batch")->Arg(1)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// Custom main: the bench-suite driver passes a bare seed argument to every
// binary; google-benchmark rejects unknown positional arguments, so strip
// them (micro-benchmarks have no randomized workload to seed).
static int run(int argc, char** argv) {
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i)
    if (argv[i][0] == '-') args.push_back(argv[i]);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  // The system libbenchmark bakes ITS OWN compile mode into the JSON
  // context's library_build_type, which says nothing about how this binary
  // was compiled. Publish our own build type (injected by bench/CMakeLists
  // from the active CMake configuration) so scripts/bench_json.sh can refuse
  // to gate or snapshot numbers from a non-Release build.
#if defined(CROWDLEARN_BENCH_BUILD_TYPE)
  benchmark::AddCustomContext("crowdlearn_build_type", CROWDLEARN_BENCH_BUILD_TYPE);
#else
  benchmark::AddCustomContext("crowdlearn_build_type", "unknown");
#endif
  // Sanitized builds keep a Release-family build type but distort every
  // timing ratio (ASan flattens the GEMM advantage; TSan is worse), so the
  // script needs to see the instrumentation too.
#if defined(CROWDLEARN_BENCH_SANITIZE)
  benchmark::AddCustomContext(
      "crowdlearn_sanitize",
      CROWDLEARN_BENCH_SANITIZE[0] != '\0' ? CROWDLEARN_BENCH_SANITIZE : "none");
#else
  benchmark::AddCustomContext("crowdlearn_sanitize", "unknown");
#endif
#if defined(NDEBUG)
  benchmark::AddCustomContext("crowdlearn_assertions", "off");
#else
  benchmark::AddCustomContext("crowdlearn_assertions", "on");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

int main(int argc, char** argv) {
  return crowdlearn::util::run_guarded(run, argc, argv);
}
