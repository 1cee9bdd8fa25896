// Backend parity: the blocked/packed kernel must agree with the reference
// kernel across rectangular/odd/tiny shapes and every transpose layout, and
// the fused epilogues must match the unfused matmul-then-bias-then-activation
// pipeline through Dense and Conv2d.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/fan_out.h"
#include "nn/activations.h"
#include "obs/metrics.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/infer_context.h"
#include "nn/infer_plan.h"
#include "nn/sequential.h"
#include "tensor/backend.h"
#include "tensor/matmul.h"
#include "unfused_oracle.h"

namespace {

using namespace orco;
using tensor::Tensor;

// Triple-loop double-accumulated ground truth.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

struct Shape {
  std::size_t m, k, n;
};

void ExpectBitwiseEqual(const Tensor& blk, const Tensor& ref,
                        const char* what, const Shape& s) {
  ASSERT_EQ(blk.shape(), ref.shape());
  const auto bd = blk.data(), rd = ref.data();
  for (std::size_t i = 0; i < bd.size(); ++i) {
    ASSERT_EQ(bd[i], rd[i]) << what << " element " << i << " at " << s.m
                            << "x" << s.k << "x" << s.n;
  }
}

// Rectangular, odd, tiny and micro-tile-fringe shapes: cover every
// combination of full/partial kMr row panels and kNr column panels, plus a
// shape crossing the kKc k-panel boundary.
const Shape kShapes[] = {
    {1, 1, 1},    {2, 3, 4},     {5, 7, 3},    {4, 32, 32},
    {17, 31, 13}, {33, 64, 65},  {8, 128, 784}, {100, 1, 9},
    {1, 300, 2},  {63, 300, 31}, {96, 96, 96},
};

// Every registered backend, for within-backend contract tests (fused vs
// unfused, prepacked vs on-the-fly, batched vs single-row) — those must
// hold for each backend individually. Cross-backend *bitwise* comparisons
// stay reference-vs-blocked: the simd kernel contracts multiply-add into
// FMA, so it agrees with them to a few ULP, not bitwise (SimdParityTest).
constexpr const char* kAllBackends[] = {"reference", "blocked", "simd"};

TEST(BackendRegistryTest, NamesAndLookup) {
  EXPECT_EQ(tensor::reference_backend().name(), "reference");
  EXPECT_EQ(tensor::blocked_backend().name(), "blocked");
  EXPECT_EQ(tensor::simd_backend().name(), "simd");
  EXPECT_EQ(tensor::find_backend("reference"), &tensor::reference_backend());
  EXPECT_EQ(tensor::find_backend("blocked"), &tensor::blocked_backend());
  EXPECT_EQ(tensor::find_backend("simd"), &tensor::simd_backend());
  EXPECT_EQ(tensor::find_backend("no-such-kernel"), nullptr);
  EXPECT_THROW(tensor::set_backend("no-such-kernel"), std::invalid_argument);
  const auto names = tensor::backend_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "reference");
  EXPECT_EQ(names[1], "blocked");
  EXPECT_EQ(names[2], "simd");
  // The simd backend always reports which register kernel it compiled to.
  EXPECT_NE(tensor::simd_isa(), nullptr);
  EXPECT_STRNE(tensor::simd_isa(), "");
}

TEST(BackendRegistryTest, EnvResolutionFallsBackLoudlyOnUnknownName) {
  // ORCO_BACKEND resolution must never throw (it runs inside the first
  // gemm of an arbitrary process): unknown names fall back to reference
  // and bump the backend.env_invalid counter instead.
  EXPECT_EQ(&tensor::backend_from_env_value("reference"),
            &tensor::reference_backend());
  EXPECT_EQ(&tensor::backend_from_env_value("blocked"),
            &tensor::blocked_backend());
  EXPECT_EQ(&tensor::backend_from_env_value("simd"),
            &tensor::simd_backend());
  EXPECT_EQ(&tensor::backend_from_env_value(nullptr),
            &tensor::reference_backend());
  EXPECT_EQ(&tensor::backend_from_env_value(""),
            &tensor::reference_backend());
  const auto* counter =
      orco::obs::global_registry().counter("backend.env_invalid");
  const auto before = counter->value();
  EXPECT_EQ(&tensor::backend_from_env_value("no-such-kernel"),
            &tensor::reference_backend());
  EXPECT_EQ(counter->value(), before + 1);
}

TEST(BackendRegistryTest, ScopeOverridesAndRestores) {
  const std::string before = tensor::current_backend().name();
  {
    tensor::BackendScope scope(&tensor::blocked_backend());
    EXPECT_EQ(tensor::current_backend().name(), "blocked");
    {
      tensor::BackendScope inner(&tensor::reference_backend());
      EXPECT_EQ(tensor::current_backend().name(), "reference");
    }
    EXPECT_EQ(tensor::current_backend().name(), "blocked");
    {
      tensor::BackendScope noop(nullptr);  // inherit, not reset
      EXPECT_EQ(tensor::current_backend().name(), "blocked");
    }
  }
  EXPECT_EQ(tensor::current_backend().name(), before);
}

TEST(BackendParityTest, MatmulMatchesReferenceAndGroundTruth) {
  common::Pcg32 rng(31);
  for (const auto& s : kShapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor truth = naive_matmul(a, b);
    Tensor ref, blk;
    {
      tensor::BackendScope scope(&tensor::reference_backend());
      ref = tensor::matmul(a, b);
    }
    {
      tensor::BackendScope scope(&tensor::blocked_backend());
      blk = tensor::matmul(a, b);
    }
    // The contract is stronger than "within 1e-5": identical reduction
    // chains make the kernels agree bitwise (backend.h), and batched
    // serving relies on that.
    ExpectBitwiseEqual(blk, ref, "matmul", s);
    EXPECT_TRUE(blk.allclose(truth, 1e-3f))
        << "blocked vs ground truth at " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BackendParityTest, TransposedLayoutsMatchReference) {
  common::Pcg32 rng(32);
  for (const auto& s : kShapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor at = a.transposed();              // (k, m)
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor bt = b.transposed();              // (n, k)
    Tensor ref_nt, ref_tn, blk_nt, blk_tn;
    {
      tensor::BackendScope scope(&tensor::reference_backend());
      ref_nt = tensor::matmul_nt(a, bt);
      ref_tn = tensor::matmul_tn(at, b);
    }
    {
      tensor::BackendScope scope(&tensor::blocked_backend());
      blk_nt = tensor::matmul_nt(a, bt);
      blk_tn = tensor::matmul_tn(at, b);
    }
    ExpectBitwiseEqual(blk_nt, ref_nt, "gemm_nt", s);
    ExpectBitwiseEqual(blk_tn, ref_tn, "gemm_tn", s);
  }
}

// Shapes whose fringes are smaller than every simd register tile (the
// AVX-512 kernel covers 8x32 outputs, AVX2 6x16, NEON 8x8) plus shapes
// crossing the kKc k-panel boundary: rows < kMr, cols < kNr, and k tails
// all go through the tmp-buffer fringe path.
const Shape kSimdShapes[] = {
    {1, 1, 1},    {2, 3, 4},     {5, 7, 3},     {4, 32, 32},
    {17, 31, 13}, {33, 64, 65},  {8, 128, 784}, {100, 1, 9},
    {1, 300, 2},  {63, 300, 31}, {96, 96, 96},  {7, 64, 31},
    {9, 257, 33}, {3, 512, 15},  {6, 40, 130},  {8, 96, 32},
};

TEST(SimdParityTest, MatchesGroundTruthAndBlockedWithinUlp) {
  // The simd kernels keep the numerical contract (one reduction chain per
  // output element, ascending k) but contract multiply-add into FMA, so
  // against the blocked kernel they agree to a few ULP of the accumulated
  // magnitude — and both sit within 1e-3 of the double ground truth.
  common::Pcg32 rng(47);
  for (const auto& s : kSimdShapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor truth = naive_matmul(a, b);
    Tensor blk, simd;
    {
      tensor::BackendScope scope(&tensor::blocked_backend());
      blk = tensor::matmul(a, b);
    }
    {
      tensor::BackendScope scope(&tensor::simd_backend());
      simd = tensor::matmul(a, b);
    }
    EXPECT_TRUE(simd.allclose(truth, 1e-3f))
        << "simd vs ground truth at " << s.m << "x" << s.k << "x" << s.n;
    for (std::size_t i = 0; i < simd.numel(); ++i) {
      const float scale = std::max(1.0f, std::fabs(blk[i]));
      ASSERT_NEAR(simd[i], blk[i], 1e-4f * scale)
          << "simd vs blocked element " << i << " at " << s.m << "x" << s.k
          << "x" << s.n;
    }
  }
}

TEST(SimdParityTest, TransposedLayoutsMatchPlainGemmBitwise) {
  // Within the simd backend, layout is a packing concern only: NT and TN
  // feed the same panels to the same register kernel, so they must equal
  // the NN product bitwise — including on ragged fringe shapes.
  common::Pcg32 rng(48);
  tensor::BackendScope scope(&tensor::simd_backend());
  for (const auto& s : kSimdShapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor nn = tensor::matmul(a, b);
    const Tensor nt = tensor::matmul_nt(a, b.transposed());
    const Tensor tn = tensor::matmul_tn(a.transposed(), b);
    ExpectBitwiseEqual(nt, nn, "simd gemm_nt", s);
    ExpectBitwiseEqual(tn, nn, "simd gemm_tn", s);
  }
}

TEST(SimdParityTest, BatchedRowsMatchSingleRowDecodeBitwise) {
  // The serving coalescing contract on the simd backend specifically: a
  // row's reduction must not depend on whether it ran in a full register
  // tile or the fringe path, across batch sizes straddling the tile height.
  common::Pcg32 rng(49);
  nn::Dense dense(128, 784, rng);
  tensor::BackendScope scope(&tensor::simd_backend());
  for (const std::size_t batch : {1u, 3u, 8u, 9u, 17u}) {
    const Tensor x = Tensor::randn({batch, 128}, rng);
    const Tensor batched = dense.infer(x);
    for (std::size_t i = 0; i < batch; ++i) {
      const Tensor single = dense.infer(x.slice_rows(i, i + 1));
      for (std::size_t j = 0; j < single.numel(); ++j) {
        ASSERT_EQ(batched.at(i, j), single[j])
            << "batch " << batch << " row " << i << " col " << j;
      }
    }
  }
}

TEST(BackendParityTest, AccumulateAddsIntoExistingOnBothBackends) {
  common::Pcg32 rng(33);
  const Tensor a = Tensor::randn({9, 37}, rng);
  const Tensor b = Tensor::randn({37, 21}, rng);
  const Tensor base = Tensor::randn({9, 21}, rng);
  const Tensor expected = base + naive_matmul(a, b);
  for (const char* name : kAllBackends) {
    tensor::BackendScope scope(tensor::find_backend(name));
    Tensor c = base;
    tensor::matmul_accumulate(a, b, c);
    EXPECT_TRUE(c.allclose(expected, 1e-3f)) << name;
  }
}

float apply_reference_act(float v, tensor::EpilogueAct act, float alpha) {
  switch (act) {
    case tensor::EpilogueAct::kNone:      return v;
    case tensor::EpilogueAct::kReLU:      return v > 0.0f ? v : 0.0f;
    case tensor::EpilogueAct::kLeakyReLU: return v > 0.0f ? v : alpha * v;
    case tensor::EpilogueAct::kSigmoid:   return 1.0f / (1.0f + std::exp(-v));
    case tensor::EpilogueAct::kTanh:      return std::tanh(v);
  }
  return v;
}

TEST(FusedEpilogueTest, GemmBiasActMatchesUnfusedPipeline) {
  common::Pcg32 rng(34);
  const tensor::EpilogueAct acts[] = {
      tensor::EpilogueAct::kNone, tensor::EpilogueAct::kReLU,
      tensor::EpilogueAct::kLeakyReLU, tensor::EpilogueAct::kSigmoid,
      tensor::EpilogueAct::kTanh};
  const Tensor x = Tensor::randn({7, 45}, rng);
  const Tensor w = Tensor::randn({23, 45}, rng);  // (out, in) dense layout
  const Tensor bias = Tensor::randn({23}, rng);
  for (const char* name : kAllBackends) {
    tensor::BackendScope scope(tensor::find_backend(name));
    // Unfused: matmul, then bias sweep, then activation map.
    Tensor unfused = tensor::matmul_nt(x, w);
    for (std::size_t i = 0; i < unfused.dim(0); ++i) {
      auto r = unfused.row(i);
      for (std::size_t j = 0; j < r.size(); ++j) r[j] += bias[j];
    }
    for (const auto act : acts) {
      const Tensor fused = tensor::gemm_bias_act(x, w, bias, act, 0.02f);
      const Tensor expected = unfused.map(
          [&](float v) { return apply_reference_act(v, act, 0.02f); });
      EXPECT_TRUE(fused.allclose(expected, 1e-6f))
          << name << " act " << static_cast<int>(act);
    }
  }
}

TEST(FusedEpilogueTest, GemmRowBiasActMatchesUnfusedPipeline) {
  common::Pcg32 rng(35);
  const Tensor w = Tensor::randn({13, 27}, rng);   // (outC, inC*K*K)
  const Tensor cols = Tensor::randn({27, 50}, rng);  // (inC*K*K, OH*OW)
  const Tensor bias = Tensor::randn({13}, rng);
  for (const char* name : kAllBackends) {
    tensor::BackendScope scope(tensor::find_backend(name));
    Tensor unfused = tensor::matmul(w, cols);
    for (std::size_t i = 0; i < unfused.dim(0); ++i) {
      for (auto& v : unfused.row(i)) v += bias[i];
    }
    const Tensor fused = tensor::gemm_rowbias_act(
        w, cols, bias, tensor::EpilogueAct::kReLU);
    const Tensor expected =
        unfused.map([](float v) { return v > 0.0f ? v : 0.0f; });
    EXPECT_TRUE(fused.allclose(expected, 1e-6f)) << name;
  }
}

TEST(FusedEpilogueTest, SequentialInferFusesDenseActivationPairs) {
  common::Pcg32 rng(36);
  nn::Sequential model;
  auto& d1 = model.emplace<nn::Dense>(19, 33, rng);
  model.emplace<nn::LeakyReLU>(0.05f);
  auto& d2 = model.emplace<nn::Dense>(33, 11, rng);
  model.emplace<nn::Sigmoid>();
  const Tensor x = Tensor::randn({6, 19}, rng);
  for (const char* name : kAllBackends) {
    tensor::BackendScope scope(tensor::find_backend(name));
    // Layer-by-layer (unfused) pipeline vs the fused plan behind
    // Sequential::infer.
    Tensor step = d1.infer(x);
    step = nn::LeakyReLU(0.05f).infer(step);
    step = d2.infer(step);
    step = nn::Sigmoid().infer(step);
    const Tensor fused = model.infer(x);
    EXPECT_TRUE(fused.allclose(step, 1e-6f)) << name;
  }
}

TEST(FusedEpilogueTest, SequentialInferFusesConvActivationPairs) {
  common::Pcg32 rng(37);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(2, 5, 3, 1, 1, 8, 8, rng);
  model.emplace<nn::ReLU>();
  const Tensor x = Tensor::randn({3, 2 * 8 * 8}, rng);
  for (const char* name : kAllBackends) {
    tensor::BackendScope scope(tensor::find_backend(name));
    const auto& conv = dynamic_cast<const nn::Conv2d&>(model.layer(0));
    Tensor step = nn::ReLU().infer(conv.infer(x));
    const Tensor fused = model.infer(x);
    EXPECT_TRUE(fused.allclose(step, 1e-6f)) << name;
  }
}

TEST(FusedEpilogueTest, DenseInferAgreesAcrossBackends) {
  common::Pcg32 rng(38);
  nn::Dense dense(128, 784, rng);  // the MNIST decoder shape
  const Tensor x = Tensor::randn({8, 128}, rng);
  Tensor ref, blk;
  {
    tensor::BackendScope scope(&tensor::reference_backend());
    ref = dense.infer(x);
  }
  {
    tensor::BackendScope scope(&tensor::blocked_backend());
    blk = dense.infer(x);
  }
  EXPECT_TRUE(blk.allclose(ref, 1e-5f));
}

TEST(FusedEpilogueTest, BatchedRowsMatchSingleRowDecodeBitwise) {
  // The serving runtime coalesces requests into one GEMM batch and promises
  // results identical to one-at-a-time decoding. That requires the kernel's
  // per-element reduction to be independent of the batch shape.
  common::Pcg32 rng(39);
  nn::Dense dense(128, 784, rng);
  const Tensor batch = Tensor::randn({7, 128}, rng);
  for (const char* name : kAllBackends) {
    tensor::BackendScope scope(tensor::find_backend(name));
    const Tensor batched = dense.infer(batch);
    for (std::size_t i = 0; i < batch.dim(0); ++i) {
      const Tensor single = dense.infer(batch.slice_rows(i, i + 1));
      for (std::size_t j = 0; j < single.numel(); ++j) {
        ASSERT_EQ(batched.at(i, j), single[j])
            << name << " row " << i << " col " << j;
      }
    }
  }
}

TEST(PrepackedTest, GemmPrepackedMatchesGemmFusedBitwiseOnBothBackends) {
  common::Pcg32 rng(41);
  for (const auto& s : kShapes) {
    const Tensor x = Tensor::randn({s.m, s.k}, rng);
    const Tensor w = Tensor::randn({s.n, s.k}, rng);  // (out, in) dense layout
    const Tensor bias = Tensor::randn({s.n}, rng);
    Tensor ref_fused;
    for (const char* name : kAllBackends) {
      const tensor::Backend* backend = tensor::find_backend(name);
      tensor::BackendScope scope(backend);
      const Tensor fused =
          tensor::gemm_bias_act(x, w, bias, tensor::EpilogueAct::kSigmoid);
      const tensor::PackedWeights packed =
          backend->pack_b(w.data().data(), s.k, s.n, /*transpose_b=*/true);
      const Tensor prepacked = tensor::gemm_bias_act_prepacked(
          x, packed, bias, tensor::EpilogueAct::kSigmoid);
      // Packing reorders memory, never the reduction: bitwise equal to the
      // pack-on-the-fly fused path...
      ExpectBitwiseEqual(prepacked, fused, "gemm_prepacked", s);
      // ...and across the bitwise-contract backends (the serving parity
      // contract). simd joins the prepacked-vs-fused assert above but not
      // this one: its FMA reduction matches within ULP, not bitwise.
      if (std::string(name) == "simd") continue;
      if (ref_fused.numel() == 0) {
        ref_fused = fused;
      } else {
        ExpectBitwiseEqual(fused, ref_fused, "cross-backend prepacked", s);
      }
    }
  }
}

TEST(PrepackedTest, RowBiasPrepackedMatchesUnpackedBitwise) {
  common::Pcg32 rng(42);
  const Tensor w = Tensor::randn({13, 27}, rng);     // (outC, inC*K*K)
  const Tensor cols = Tensor::randn({27, 50}, rng);  // (inC*K*K, OH*OW)
  const Tensor bias = Tensor::randn({13}, rng);
  const Shape s{13, 27, 50};
  for (const char* name : kAllBackends) {
    const tensor::Backend* backend = tensor::find_backend(name);
    tensor::BackendScope scope(backend);
    const Tensor fused =
        tensor::gemm_rowbias_act(w, cols, bias, tensor::EpilogueAct::kReLU);
    const tensor::PackedWeights packed =
        backend->pack_a(w.data().data(), 13, 27);
    const Tensor prepacked = tensor::gemm_rowbias_act_prepacked(
        packed, cols, bias, tensor::EpilogueAct::kReLU);
    ExpectBitwiseEqual(prepacked, fused, "rowbias prepacked", s);
  }
}

TEST(PrepackedTest, Conv2dPrepackMatchesUnpackedBitwise) {
  common::Pcg32 rng(44);
  nn::Conv2d conv(2, 5, 3, 1, 1, 8, 8, rng);
  const Tensor x = Tensor::randn({3, 2 * 8 * 8}, rng);
  const Shape s{5, 18, 64};
  for (const char* name : kAllBackends) {
    const tensor::Backend* backend = tensor::find_backend(name);
    tensor::BackendScope scope(backend);
    const Tensor baseline = conv.infer(x);
    std::uint64_t version = 0;
    const auto packed = conv.plan_pack(*backend, version);
    EXPECT_EQ(version, conv.weight_version());
    nn::InferContext ctx;
    Tensor prepacked;
    conv.infer_packed_into(x, prepacked, *packed, tensor::EpilogueAct::kNone,
                           0.01f, ctx);
    ExpectBitwiseEqual(prepacked, baseline, "prepacked conv", s);
  }
}

TEST(PrepackedTest, MismatchedBackendPackIsRejected) {
  common::Pcg32 rng(46);
  const Tensor x = Tensor::randn({2, 8}, rng);
  const Tensor w = Tensor::randn({4, 8}, rng);
  const Tensor bias = Tensor::randn({4}, rng);
  const tensor::PackedWeights packed =
      tensor::blocked_backend().pack_b(w.data().data(), 8, 4, true);
  tensor::BackendScope scope(&tensor::reference_backend());
  EXPECT_THROW(
      (void)tensor::gemm_bias_act_prepacked(x, packed, bias),
      std::invalid_argument);
}

TEST(FusedEpilogueTest, ActivationEpilogueMapping) {
  float alpha = 0.0f;
  EXPECT_EQ(nn::activation_epilogue(nn::ReLU{}, alpha),
            tensor::EpilogueAct::kReLU);
  EXPECT_EQ(nn::activation_epilogue(nn::Identity{}, alpha),
            tensor::EpilogueAct::kNone);
  EXPECT_EQ(nn::activation_epilogue(nn::Sigmoid{}, alpha),
            tensor::EpilogueAct::kSigmoid);
  EXPECT_EQ(nn::activation_epilogue(nn::Tanh{}, alpha),
            tensor::EpilogueAct::kTanh);
  EXPECT_EQ(nn::activation_epilogue(nn::LeakyReLU{0.07f}, alpha),
            tensor::EpilogueAct::kLeakyReLU);
  EXPECT_FLOAT_EQ(alpha, 0.07f);
  common::Pcg32 rng(40);
  nn::Dense dense(3, 2, rng);
  EXPECT_EQ(nn::activation_epilogue(dense, alpha), std::nullopt);
}

/// Every GEMM entry a panel backend drives through panel_run, run on one
/// shape: on-the-fly B (NN accumulating into a seeded C, NT fused ReLU, TN),
/// prepacked B with a fused Sigmoid, prepacked A with a row-bias ReLU, and
/// the int8 A path. Same inputs every call.
std::vector<std::vector<float>> run_panel_entries(const tensor::Backend& be,
                                                  std::size_t m, std::size_t k,
                                                  std::size_t n) {
  common::Pcg32 rng(m * 1000003 + k * 1009 + n);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor at = Tensor::randn({k, m}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const Tensor w = Tensor::randn({n, k}, rng);  // (out, in) dense layout
  const Tensor seed = Tensor::randn({m, n}, rng);
  const Tensor col_bias = Tensor::randn({n}, rng);
  const Tensor row_bias = Tensor::randn({m}, rng);
  std::vector<std::uint8_t> codes(m * k);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<std::uint8_t>((i * 131u + 7u) & 0xFFu);
  }
  std::vector<float> lo(m), scale(m);
  for (std::size_t i = 0; i < m; ++i) {
    lo[i] = -0.5f - 0.01f * static_cast<float>(i);
    scale[i] = (1.0f + 0.001f * static_cast<float>(i)) / 255.0f;
  }
  const tensor::PackedWeights packed_b =
      be.pack_b(w.data().data(), k, n, /*transpose_b=*/true);
  const tensor::PackedWeights packed_a = be.pack_a(a.data().data(), m, k);

  tensor::Epilogue relu_col;
  relu_col.bias = col_bias.data().data();
  relu_col.act = tensor::EpilogueAct::kReLU;
  tensor::Epilogue sigmoid_col = relu_col;
  sigmoid_col.act = tensor::EpilogueAct::kSigmoid;
  tensor::Epilogue relu_row;
  relu_row.bias = row_bias.data().data();
  relu_row.bias_per_row = true;
  relu_row.act = tensor::EpilogueAct::kReLU;

  std::vector<std::vector<float>> out(6);
  out[0].assign(seed.data().begin(), seed.data().end());
  be.gemm(a.data().data(), b.data().data(), out[0].data(), m, k, n);
  out[1].resize(m * n);
  be.gemm_fused(a.data().data(), w.data().data(), out[1].data(), m, k, n,
                /*transpose_b=*/true, relu_col);
  out[2].assign(m * n, 0.0f);
  be.gemm_tn(at.data().data(), b.data().data(), out[2].data(), m, k, n);
  out[3].resize(m * n);
  be.gemm_prepacked(a.data().data(), packed_b, out[3].data(), m, k, n,
                    sigmoid_col);
  out[4].resize(m * n);
  be.gemm_prepacked(b.data().data(), packed_a, out[4].data(), m, k, n,
                    relu_row);
  out[5].resize(m * n);
  be.gemm_quantized(codes.data(), {lo.data(), scale.data()}, packed_b,
                    out[5].data(), m, k, n, sigmoid_col);
  return out;
}

TEST(FanOutParityTest, FannedOutGemmsMatchInlineBitwise) {
  // m spans one row, a partial micro-tile, a full serving batch, one past
  // it and past one row block; n = 1100 crosses kNc and k = 456 crosses
  // kKc. The GEMMs of at least 2^20 multiply-accumulates fan out.
  const std::size_t ms[] = {1, 7, 32, 33, 129};
  const std::size_t ns[] = {8, 456, 784, 1100};
  const std::size_t ks[] = {128, 456};
  const char* entries[] = {"gemm", "gemm_fused nt", "gemm_tn",
                           "gemm_prepacked B", "gemm_prepacked A",
                           "gemm_quantized"};
  common::FanOut& fan = common::FanOut::global();
  for (const char* name : {"blocked", "simd"}) {
    const tensor::Backend& be = *tensor::find_backend(name);
    for (const std::size_t m : ms) {
      for (const std::size_t n : ns) {
        for (const std::size_t k : ks) {
          tensor::set_gemm_parallelism(false);
          const std::uint64_t before_inline = fan.jobs_dispatched();
          const auto inline_out = run_panel_entries(be, m, k, n);
          EXPECT_EQ(fan.jobs_dispatched(), before_inline);
          tensor::set_gemm_parallelism(true);
          const std::uint64_t before = fan.jobs_dispatched();
          const auto fanned = run_panel_entries(be, m, k, n);
          if (fan.helpers() > 0) {
            EXPECT_EQ(fan.jobs_dispatched() > before, m * n * k >= (1u << 20))
                << name << " " << m << "x" << k << "x" << n;
          }
          for (std::size_t e = 0; e < fanned.size(); ++e) {
            ASSERT_EQ(fanned[e].size(), inline_out[e].size());
            for (std::size_t i = 0; i < fanned[e].size(); ++i) {
              ASSERT_EQ(fanned[e][i], inline_out[e][i])
                  << name << " " << entries[e] << " " << m << "x" << k << "x"
                  << n << " element " << i;
            }
          }
        }
      }
    }
  }
}

TEST(FanOutParityTest, Batch32PlanMatchesSerialUnfusedOracle) {
  // The serving decoder (128 -> 456 -> 456 -> 784) at a full round: every
  // plan GEMM fans out, the oracle runs serially, unfused and unpacked.
  common::Pcg32 rng(61);
  nn::Sequential model;
  model.emplace<nn::Dense>(128, 456, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(456, 456, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(456, 784, rng);
  model.emplace<nn::Sigmoid>();
  const Tensor x = Tensor::randn({32, 128}, rng);
  common::FanOut& fan = common::FanOut::global();
  for (const char* name : kAllBackends) {
    const tensor::Backend* backend = tensor::find_backend(name);
    tensor::BackendScope scope(backend);
    tensor::set_gemm_parallelism(false);
    const Tensor want = oracle::unfused_infer(model, x);
    tensor::set_gemm_parallelism(true);
    const auto plan = nn::InferPlan::compile(model, backend);
    nn::InferContext ctx;
    Tensor got;
    const std::uint64_t before = fan.jobs_dispatched();
    plan->run(x, got, ctx);
    if (fan.helpers() > 0) {
      EXPECT_GE(fan.jobs_dispatched(), before + 3) << name;
    }
    ExpectBitwiseEqual(got, want, name, Shape{32, 128, 784});
  }
}

}  // namespace
