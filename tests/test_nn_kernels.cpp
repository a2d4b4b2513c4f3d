// Bitwise-equivalence and steady-state-allocation tests for the im2col+GEMM
// convolution path. The contract under test:
//
//   1. Conv2D produces byte-identical doubles to the naive reference loops
//      of the test-only oracle (oracle::NaiveConv2D) — forward, grad_input,
//      dw and db — at any kernel size, batch size and thread count. The GEMM
//      reduction replays the naive accumulation order term for term (see
//      nn/conv_kernels.hpp).
//   2. The zero-skip shortcuts (`v != 0.0` / `a == 0.0` / `g == 0.0`) are
//      pinned: both paths drop 0 * x terms identically (including -0.0 and
//      x = inf), which is only sound under the finite-input contract that
//      Matrix::debug_check_finite enforces in debug builds.
//   3. Steady-state forwards through a Sequential allocate nothing: all
//      scratch lives in the model's nn::Workspace and is reused.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>

#include "nn/conv.hpp"
#include "nn/sequential.hpp"
#include "nn/workspace.hpp"
#include "oracle/naive_conv.hpp"
#include "util/thread_pool.hpp"

// --- Global allocation counter for the steady-state test -------------------
// Counts every operator-new in the process. The allocation-free assertions
// run single-threaded with no pool attached, so the count is exact there.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace crowdlearn::nn {
namespace {

using oracle::NaiveConv2D;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// Random matrix with ~1/4 exact zeros, so the skip branches actually fire.
Matrix sparse_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m = random_matrix(rows, cols, rng);
  for (double& v : m.data())
    if (rng.uniform(0.0, 1.0) < 0.25) v = 0.0;
  return m;
}

/// Bitwise (not merely value) comparison: distinguishes -0.0 from +0.0 and
/// compares NaN payloads, which EXPECT_DOUBLE_EQ cannot.
void expect_bitwise_eq(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.data()[i]),
              std::bit_cast<std::uint64_t>(b.data()[i]))
        << what << " differs at flat index " << i << ": " << a.data()[i] << " vs "
        << b.data()[i];
  }
}

struct ConvCase {
  Shape3 in;
  std::size_t out_channels;
  std::size_t kernel;
};

// 1x1, odd 3x3 and 5x5 kernels, single- and multi-channel geometries.
const ConvCase kCases[] = {
    {{1, 4, 4}, 2, 1},
    {{2, 6, 6}, 3, 3},
    {{3, 8, 8}, 4, 5},
    {{4, 5, 5}, 2, 3},
};

void zero_grads(Layer& conv) {
  for (Param p : conv.params()) p.grad->fill(0.0);
}

TEST(NnKernels, ForwardMatchesNaiveBitwise) {
  for (const ConvCase& cs : kCases) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        Rng rng(100 + batch + threads);
        Conv2D conv(cs.in, cs.out_channels, cs.kernel, rng);
        const Matrix x = sparse_matrix(batch, cs.in.size(), rng);

        NaiveConv2D naive(conv);
        const Matrix ref = naive.forward(x, false);

        util::ThreadPool pool(threads);
        Workspace ws;
        ws.set_pool(&pool);
        conv.bind_workspace(&ws, 0);
        const Matrix got = conv.forward(x, false);

        expect_bitwise_eq(ref, got, "forward");
      }
    }
  }
}

TEST(NnKernels, BackwardMatchesNaiveBitwise) {
  for (const ConvCase& cs : kCases) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        Rng rng(200 + batch + threads);
        Conv2D im2col(cs.in, cs.out_channels, cs.kernel, rng);
        NaiveConv2D naive(im2col);  // identical weights
        const Matrix x = sparse_matrix(batch, cs.in.size(), rng);
        // Zeros in the upstream gradient exercise the `g == 0.0` skip.
        const Matrix g = sparse_matrix(batch, cs.out_channels * cs.in.height * cs.in.width, rng);

        naive.forward(x, true);
        zero_grads(naive);
        const Matrix ref_gx = naive.backward(g);

        util::ThreadPool pool(threads);
        Workspace ws;
        ws.set_pool(&pool);
        im2col.bind_workspace(&ws, 0);
        im2col.forward(x, true);
        zero_grads(im2col);
        const Matrix got_gx = im2col.backward(g);

        expect_bitwise_eq(ref_gx, got_gx, "grad_input");
        const std::vector<Param> pr = naive.params();
        const std::vector<Param> pi = im2col.params();
        for (std::size_t p = 0; p < pr.size(); ++p)
          expect_bitwise_eq(*pr[p].grad, *pi[p].grad, pr[p].name.c_str());
      }
    }
  }
}

TEST(NnKernels, RepeatedTrainStepsStayBitwiseEquivalent) {
  // A few forward/backward rounds through the SAME conv instance: workspace
  // buffers are reused (not re-zeroed allocations), so this catches any
  // stale-state leak between iterations.
  Rng rng(7);
  Conv2D im2col({2, 6, 6}, 3, 3, rng);
  NaiveConv2D naive(im2col);
  util::ThreadPool pool(2);
  Workspace ws;
  ws.set_pool(&pool);
  im2col.bind_workspace(&ws, 0);
  for (int step = 0; step < 4; ++step) {
    const Matrix x = sparse_matrix(3, naive.input_size(), rng);
    const Matrix g = sparse_matrix(3, naive.output_size(), rng);
    naive.forward(x, true);
    const Matrix ref_gx = naive.backward(g);
    im2col.forward(x, true);
    const Matrix got_gx = im2col.backward(g);
    expect_bitwise_eq(ref_gx, got_gx, "grad_input");
    // dw/db accumulate across steps in both paths; compare the running sums.
    const std::vector<Param> pr = naive.params();
    const std::vector<Param> pi = im2col.params();
    for (std::size_t p = 0; p < pr.size(); ++p)
      expect_bitwise_eq(*pr[p].grad, *pi[p].grad, pr[p].name.c_str());
  }
}

// --- Weight gradient through the tiled GEMM --------------------------------

/// Upstream gradient as it reaches a conv layer in training: dense values
/// masked to zero wherever a (random) ReLU pre-activation was not positive,
/// so about half the entries hit the `g == 0.0` / `a == 0.0` skips.
Matrix post_relu_gradient(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix g = random_matrix(rows, cols, rng);
  for (double& v : g.data())
    if (rng.uniform(-1.0, 1.0) <= 0.0) v = 0.0;
  return g;
}

TEST(NnKernels, GemmWeightGradMatchesNaiveAtProductionShapes) {
  // The expert convolutions: VGG16 1->8 at 16x16 and 8->16 at 8x8, DDM
  // 1->12 at 16x16 and 12->24 at 8x8. dW/db from backward() and from
  // accumulate_param_grads() must both equal the naive kernel's bits.
  const ConvCase shapes[] = {
      {{1, 16, 16}, 12, 3},
      {{1, 16, 16}, 8, 3},
      {{12, 8, 8}, 24, 3},
      {{8, 8, 8}, 16, 3},
  };
  for (const ConvCase& cs : shapes) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                  std::size_t{8}}) {
        const std::string ctx = "in_c=" + std::to_string(cs.in.channels) +
                                " out_c=" + std::to_string(cs.out_channels) +
                                " batch=" + std::to_string(batch) +
                                " threads=" + std::to_string(threads);
        Rng rng(300 + batch + threads + cs.out_channels);
        Conv2D full(cs.in, cs.out_channels, cs.kernel, rng);
        NaiveConv2D naive(full);
        Conv2D params_only(full);
        // Layer inputs past the first conv are post-ReLU/MaxPool: sparse.
        const Matrix x = cs.in.channels == 1 ? random_matrix(batch, cs.in.size(), rng)
                                             : sparse_matrix(batch, cs.in.size(), rng);
        const Matrix g = post_relu_gradient(batch, naive.output_size(), rng);

        naive.forward(x, true);
        zero_grads(naive);
        naive.backward(g);

        util::ThreadPool pool(threads);
        Workspace ws_full, ws_params;
        ws_full.set_pool(&pool);
        ws_params.set_pool(&pool);
        full.bind_workspace(&ws_full, 0);
        params_only.bind_workspace(&ws_params, 0);
        full.forward(x, true);
        zero_grads(full);
        full.backward(g);
        params_only.forward(x, true);
        zero_grads(params_only);
        params_only.accumulate_param_grads(g);

        const std::vector<Param> pr = naive.params();
        const std::vector<Param> pf = full.params();
        const std::vector<Param> pp = params_only.params();
        for (std::size_t p = 0; p < pr.size(); ++p) {
          expect_bitwise_eq(*pr[p].grad, *pf[p].grad, (ctx + " backward " + pr[p].name).c_str());
          expect_bitwise_eq(*pr[p].grad, *pp[p].grad,
                            (ctx + " accumulate_param_grads " + pr[p].name).c_str());
        }
      }
    }
  }
}

TEST(NnKernels, GemmWeightGradRequiresPositiveZeroSeededDw) {
  // The GEMM adds grad * 0.0 for padding columns the naive loop never
  // touches. One sample whose only nonzero gradient sits at the (0, 0)
  // corner: there every window column with ky == 0 or kx == 0 is padding.
  Rng rng(43);
  Conv2D im2col({1, 4, 4}, 1, 3, rng);
  NaiveConv2D naive(im2col);
  Matrix x(1, 16);
  for (double& v : x.data()) v = rng.uniform(0.5, 1.0);
  Matrix g(1, 16, 0.0);
  g(0, 0) = 0.75;
  const std::size_t padding_col = 0;  // (ky, kx) = (0, 0)

  auto run = [&](double seed) {
    naive.forward(x, true);
    for (Param p : naive.params()) p.grad->fill(seed);
    naive.backward(g);
    im2col.forward(x, true);
    for (Param p : im2col.params()) p.grad->fill(seed);
    im2col.backward(g);
  };

  // The precondition holds: +0.0-seeded dW matches bit for bit, and the
  // padding column stays +0.0 (adding +0.0 to +0.0 is +0.0).
  run(0.0);
  expect_bitwise_eq(*naive.params()[0].grad, *im2col.params()[0].grad, "dW seeded +0.0");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(im2col.params()[0].grad->data()[padding_col]),
            std::bit_cast<std::uint64_t>(0.0));

  // Why it is a precondition: a -0.0 seed survives the naive loop at the
  // padding column but becomes +0.0 through the GEMM's 0.75 * 0.0 term.
  run(-0.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(naive.params()[0].grad->data()[padding_col]),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(im2col.params()[0].grad->data()[padding_col]),
            std::bit_cast<std::uint64_t>(0.0));

  // Where the precondition comes from: the optimizers zero every gradient
  // with +0.0, so the next step's dW is +0.0-seeded again.
  for (Param p : im2col.params()) p.grad->fill(-0.0);
  Sgd sgd(0.1);
  sgd.attach(im2col.params());
  sgd.step();
  for (Param p : im2col.params())
    for (double v : p.grad->data())
      EXPECT_EQ(std::bit_cast<std::uint64_t>(v), std::bit_cast<std::uint64_t>(0.0)) << p.name;
  for (Param p : im2col.params()) p.grad->fill(-0.0);
  Adam adam(0.1);
  adam.attach(im2col.params());
  adam.step();
  for (Param p : im2col.params())
    for (double v : p.grad->data())
      EXPECT_EQ(std::bit_cast<std::uint64_t>(v), std::bit_cast<std::uint64_t>(0.0)) << p.name;
}

// --- Zero-skip semantics ---------------------------------------------------

TEST(NnKernels, ZeroSkipDropsNonFiniteProductsIdentically) {
  // A zero input against an inf weight: the product 0*inf = NaN is DROPPED
  // by the skip in both Conv2D and the naive reference, so the output stays
  // finite. This is the pinned (intentional) semantics the finite-input
  // contract justifies.
  Rng rng(11);
  Conv2D conv({1, 4, 4}, 2, 3, rng);
  conv.kernels()(0, 4) = std::numeric_limits<double>::infinity();
  Matrix x(2, 16, 0.0);  // all-zero input: every product is skipped

#ifndef NDEBUG
  // Debug builds refuse the contract violation up front instead.
  EXPECT_THROW(conv.forward(x, false), std::domain_error);
#else
  const Matrix ref = NaiveConv2D(conv).forward(x, false);
  const Matrix got = conv.forward(x, false);

  expect_bitwise_eq(ref, got, "forward with inf weight");
  for (double v : got.data()) EXPECT_TRUE(std::isfinite(v));
  // Every output element is exactly its channel's bias — nothing else ran.
  for (std::size_t s = 0; s < got.rows(); ++s)
    for (std::size_t oc = 0; oc < 2u; ++oc)
      for (std::size_t p = 0; p < 16u; ++p)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got(s, oc * 16 + p)),
                  std::bit_cast<std::uint64_t>(conv.bias()(0, oc)));
#endif
}

TEST(NnKernels, NegativeZeroIsSkippedLikePositiveZero) {
  // `v != 0.0` and `a == 0.0` both treat -0.0 as zero (IEEE comparison), so
  // a -0.0 input contributes nothing in Conv2D or the naive reference.
  Rng rng(13);
  Conv2D conv({1, 4, 4}, 2, 3, rng);
  Matrix x(1, 16, 0.0);
  for (double& v : x.data()) v = -0.0;

  const Matrix ref = NaiveConv2D(conv).forward(x, false);
  const Matrix got = conv.forward(x, false);
  expect_bitwise_eq(ref, got, "forward with -0.0 input");
  for (std::size_t oc = 0; oc < 2u; ++oc)
    for (std::size_t p = 0; p < 16u; ++p)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got(0, oc * 16 + p)),
                std::bit_cast<std::uint64_t>(conv.bias()(0, oc)));
}

TEST(NnKernels, DebugCheckFiniteEnforcesTheContract) {
  Matrix ok = Matrix::from_rows({{1.0, -2.5, 0.0}});
  EXPECT_NO_THROW(ok.debug_check_finite("ok"));
  Matrix with_nan = ok;
  with_nan(0, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(with_nan.debug_check_finite("nan"), std::domain_error);
  Matrix with_inf = ok;
  with_inf(0, 2) = -std::numeric_limits<double>::infinity();
  EXPECT_THROW(with_inf.debug_check_finite("inf"), std::domain_error);
}

// --- Training-flag gating --------------------------------------------------

TEST(NnKernels, InferenceForwardKeepsGradCamCacheButNoBackwardState) {
  Rng rng(17);
  Conv2D conv({1, 4, 4}, 2, 3, rng);
  const Matrix x = random_matrix(2, 16, rng);
  const Matrix y = conv.forward(x, /*training=*/false);
  // Grad-CAM still works after an inference pass...
  const Tensor3 act = conv.last_activation(0);
  for (std::size_t i = 0; i < act.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(act.data()[i]),
              std::bit_cast<std::uint64_t>(y(0, i)));
  // ...but backward is refused (no cached state was retained).
  EXPECT_THROW(conv.backward(y), std::logic_error);
}

// --- Steady-state allocation behaviour -------------------------------------

Sequential make_small_cnn(Rng& rng) {
  const Shape3 in{1, 8, 8};
  Sequential model;
  model.add(std::make_unique<Conv2D>(in, 4, 3, rng));
  model.add(std::make_unique<ReLU>(Shape3{4, 8, 8}.size()));
  model.add(std::make_unique<MaxPool2D>(Shape3{4, 8, 8}));
  model.add(std::make_unique<Conv2D>(Shape3{4, 4, 4}, 6, 3, rng));
  model.add(std::make_unique<ReLU>(Shape3{6, 4, 4}.size()));
  model.add(std::make_unique<MaxPool2D>(Shape3{6, 4, 4}));
  model.add(std::make_unique<Dense>(Shape3{6, 2, 2}.size(), 10, rng));
  model.add(std::make_unique<ReLU>(10));
  model.add(std::make_unique<Dense>(10, 3, rng));
  return model;
}

TEST(NnKernels, SteadyStateForwardIsAllocationFree) {
  Rng rng(19);
  Sequential model = make_small_cnn(rng);
  const Matrix x = random_matrix(6, model.input_size(), rng);

  // Warm-up sizes every workspace buffer and activation cache.
  for (int i = 0; i < 3; ++i) model.forward_ws(x, false);
  const std::size_t grown = model.workspace().grow_count();

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const Matrix* last = nullptr;
  for (int i = 0; i < 5; ++i) last = &model.forward_ws(x, false);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u) << "steady-state forward_ws allocated";
  EXPECT_EQ(model.workspace().grow_count(), grown) << "workspace kept growing";
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->rows(), 6u);
  EXPECT_EQ(last->cols(), 3u);
}

TEST(NnKernels, WorkspaceGrowCountStabilizesAcrossBatchSizes) {
  Rng rng(23);
  Sequential model = make_small_cnn(rng);
  const Matrix small = random_matrix(2, model.input_size(), rng);
  const Matrix large = random_matrix(8, model.input_size(), rng);

  model.forward_ws(large, true);  // largest batch first: sizes everything
  const std::size_t grown = model.workspace().grow_count();
  model.forward_ws(small, true);  // shrinking reuses capacity
  model.forward_ws(large, true);  // growing back reuses it too
  EXPECT_EQ(model.workspace().grow_count(), grown);
}

// --- forward() / forward_ws() agreement ------------------------------------

TEST(NnKernels, ForwardWsMatchesForwardBitwise) {
  Rng rng(29);
  Sequential a = make_small_cnn(rng);
  Sequential b = a.clone();
  const Matrix x = random_matrix(3, a.input_size(), rng);
  const Matrix ya = a.forward(x, false);
  const Matrix& yb = b.forward_ws(x, false);
  expect_bitwise_eq(ya, yb, "forward vs forward_ws");
}

// --- Thread invariance of whole-model training -----------------------------

TEST(NnKernels, CnnTrainingIsThreadCountInvariant) {
  auto train = [](std::size_t threads) {
    Rng rng(31);
    Sequential model = make_small_cnn(rng);
    util::ThreadPool pool(threads);
    model.set_thread_pool(&pool);
    Rng data_rng(37);
    const Matrix x = random_matrix(12, model.input_size(), data_rng);
    std::vector<std::size_t> y(12);
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = i % 3;
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 4;
    Rng fit_rng(41);
    model.fit(x, y, cfg, fit_rng);
    Matrix probs = model.predict_proba(x);
    std::vector<double> out = probs.data();
    for (Param p : model.params())
      out.insert(out.end(), p.value->data().begin(), p.value->data().end());
    return out;
  };
  const std::vector<double> t1 = train(1);
  const std::vector<double> t2 = train(2);
  const std::vector<double> t8 = train(8);
  ASSERT_EQ(t1.size(), t2.size());
  ASSERT_EQ(t1.size(), t8.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(t1[i]), std::bit_cast<std::uint64_t>(t2[i]))
        << "1 vs 2 threads at " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(t1[i]), std::bit_cast<std::uint64_t>(t8[i]))
        << "1 vs 8 threads at " << i;
  }
}

// --- First-layer input-gradient skip ---------------------------------------

/// The DDM expert's stack at its production shapes, where the ReLU/MaxPool
/// passes are wide enough to run in parallel chunks at batch 32.
Sequential make_ddm_shaped_cnn(Rng& rng) {
  Sequential model;
  model.add(std::make_unique<Conv2D>(Shape3{1, 16, 16}, 12, 3, rng));
  model.add(std::make_unique<ReLU>(Shape3{12, 16, 16}.size()));
  model.add(std::make_unique<MaxPool2D>(Shape3{12, 16, 16}));
  model.add(std::make_unique<Conv2D>(Shape3{12, 8, 8}, 24, 3, rng));
  model.add(std::make_unique<ReLU>(Shape3{24, 8, 8}.size()));
  model.add(std::make_unique<MaxPool2D>(Shape3{24, 8, 8}));
  model.add(std::make_unique<Dense>(Shape3{24, 4, 4}.size(), 48, rng));
  model.add(std::make_unique<ReLU>(48));
  model.add(std::make_unique<Dense>(48, 3, rng));
  return model;
}

TEST(NnKernels, FitSkippingFirstLayerInputGradientMatchesFullBackward) {
  // Sequential::fit stops the backward pass at the first layer's parameter
  // gradients (and routes gradients through its workspace). One fit step
  // must leave the parameters bit-equal to a local loop that runs the full
  // backward() through every layer, at any thread count.
  std::vector<double> serial_params;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Rng rng(47);
    Sequential fitted = make_ddm_shaped_cnn(rng);
    Sequential reference = fitted.clone();
    util::ThreadPool pool(threads);
    fitted.set_thread_pool(&pool);
    reference.set_thread_pool(&pool);
    Rng data_rng(53);
    const Matrix x = random_matrix(32, fitted.input_size(), data_rng);
    std::vector<std::size_t> y(x.rows());
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = i % 3;

    TrainConfig cfg;
    cfg.epochs = 1;
    cfg.batch_size = x.rows();
    cfg.shuffle = false;
    Rng fit_rng(59);
    fitted.fit(x, y, cfg, fit_rng);

    Sgd sgd(cfg.learning_rate, cfg.momentum, cfg.weight_decay);
    sgd.attach(reference.params());
    const LossResult loss = softmax_cross_entropy(reference.forward_ws(x, true), y);
    Matrix grad = loss.grad_logits;
    for (std::size_t i = reference.num_layers(); i-- > 0;) grad = reference.layer(i).backward(grad);
    sgd.step();

    const std::vector<Param> pf = fitted.params();
    const std::vector<Param> pr = reference.params();
    ASSERT_EQ(pf.size(), pr.size());
    std::vector<double> flat;
    for (std::size_t p = 0; p < pf.size(); ++p) {
      expect_bitwise_eq(*pf[p].value, *pr[p].value,
                        ("threads=" + std::to_string(threads) + " " + pf[p].name).c_str());
      flat.insert(flat.end(), pf[p].value->data().begin(), pf[p].value->data().end());
    }
    if (threads == 1) {
      serial_params = flat;
      continue;
    }
    ASSERT_EQ(flat.size(), serial_params.size());
    for (std::size_t i = 0; i < flat.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(flat[i]),
                std::bit_cast<std::uint64_t>(serial_params[i]))
          << "1 vs " << threads << " threads at " << i;
  }
}

TEST(NnKernels, SequentialFitMatchesNaiveConvolutionModelBitwise) {
  // Whole-model differential: two epochs of Sequential::fit at the DDM
  // expert's shapes, once on Conv2D and once on the oracle's naive
  // convolutions over the same initial weights. Every parameter and every
  // posterior must agree bit for bit, at 1 and 4 threads.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Rng rng(67);
    Sequential im2col = make_ddm_shaped_cnn(rng);
    Sequential naive = oracle::with_naive_convolutions(im2col);
    util::ThreadPool pool(threads);
    im2col.set_thread_pool(&pool);
    naive.set_thread_pool(&pool);
    Rng data_rng(71);
    const Matrix x = random_matrix(64, im2col.input_size(), data_rng);
    std::vector<std::size_t> y(x.rows());
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = i % 3;

    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 32;
    Rng fit_im2col(73), fit_naive(73);
    im2col.fit(x, y, cfg, fit_im2col);
    naive.fit(x, y, cfg, fit_naive);

    const std::string ctx = "threads=" + std::to_string(threads) + " ";
    const std::vector<Param> pi = im2col.params();
    const std::vector<Param> pn = naive.params();
    ASSERT_EQ(pi.size(), pn.size());
    for (std::size_t p = 0; p < pi.size(); ++p)
      expect_bitwise_eq(*pn[p].value, *pi[p].value, (ctx + pi[p].name).c_str());
    expect_bitwise_eq(naive.predict_proba(x), im2col.predict_proba(x),
                      (ctx + "predict_proba").c_str());
  }
}

TEST(NnKernels, CloneCopiesParametersButNoActivationCaches) {
  // Per-chunk inference replicas (ExpertCommittee::expert_votes_batch) are
  // clones of trained models; at training batch sizes the activation caches
  // outweigh the parameters, so a clone leaves them behind.
  Rng rng(61);
  Sequential model = make_ddm_shaped_cnn(rng);
  const Matrix x = random_matrix(32, model.input_size(), rng);
  model.forward_ws(x, /*training=*/true);
  Sequential copy = model.clone();
  const Matrix g(32, copy.layer(0).output_size(), 1.0);
  EXPECT_THROW(dynamic_cast<Conv2D&>(copy.layer(0)).last_activation(0), std::logic_error);
  EXPECT_THROW(copy.layer(0).backward(g), std::logic_error);
  EXPECT_THROW(copy.layer(1).backward(g), std::logic_error);
  EXPECT_THROW(copy.layer(2).backward(Matrix(32, copy.layer(2).output_size())), std::logic_error);
  EXPECT_THROW(copy.layer(6).backward(Matrix(32, copy.layer(6).output_size())), std::logic_error);
  const Matrix probe = random_matrix(3, model.input_size(), rng);
  expect_bitwise_eq(model.forward(probe, false), copy.forward(probe, false), "clone forward");
}

}  // namespace
}  // namespace crowdlearn::nn
