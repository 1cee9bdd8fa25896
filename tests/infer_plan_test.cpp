// Tests for InferPlan, the compile-once inference plan and only inference
// engine (nn/infer_plan.h): compile-time structure (identity layers
// dropped, activations fused, packed panels pre-attached), bitwise parity
// with the unfused layer-by-layer oracle (unfused_oracle.h) across all
// three backends and odd shapes, foreign-backend fallbacks for the float
// and int8 entries, all-identity chains, nested-chain flattening,
// weight-staleness detection, the precomputed arena high-water, and
// concurrent decoders sharing the GEMM fan-out.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/fan_out.h"
#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv_transpose2d.h"
#include "nn/dense.h"
#include "nn/infer_context.h"
#include "nn/infer_plan.h"
#include "nn/noise.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "tensor/backend.h"
#include "unfused_oracle.h"

namespace orco {
namespace {

using nn::InferContext;
using nn::InferPlan;
using tensor::Tensor;

/// The three real backends every parity claim must hold on.
std::vector<const tensor::Backend*> all_backends() {
  return {&tensor::reference_backend(), &tensor::blocked_backend(),
          &tensor::simd_backend()};
}

/// Odd-shaped Dense chain (no power-of-two dims, every epilogue kind) —
/// identical weights for every call with the same seed.
std::unique_ptr<nn::Sequential> make_odd_dense_model(std::uint64_t seed) {
  common::Pcg32 rng(seed);
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::Dense>(13, 37, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::Dense>(37, 29, rng);
  model->emplace<nn::LeakyReLU>(0.07f);
  model->emplace<nn::Dense>(29, 23, rng);
  model->emplace<nn::Tanh>();
  model->emplace<nn::Dense>(23, 31, rng);
  model->emplace<nn::Sigmoid>();
  return model;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::size_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " elem " << i;
  }
}

TEST(InferPlanTest, CompileDropsIdentityAndFusesActivations) {
  common::Pcg32 rng(41);
  nn::Sequential model;
  model.emplace<nn::GaussianNoise>(0.1f, common::Pcg32(1));
  model.emplace<nn::Dense>(16, 32, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(32, 24, rng);
  model.emplace<nn::LeakyReLU>(0.05f);
  model.emplace<nn::Dense>(24, 8, rng);
  model.emplace<nn::Sigmoid>();

  const auto plan = InferPlan::compile(model, &tensor::blocked_backend());
  // Noise dropped, each Dense+activation pair fused: 7 layers -> 3 ops.
  ASSERT_EQ(plan->size(), 3u);
  EXPECT_EQ(&plan->backend(), &tensor::blocked_backend());
  const tensor::EpilogueAct acts[] = {tensor::EpilogueAct::kReLU,
                                      tensor::EpilogueAct::kLeakyReLU,
                                      tensor::EpilogueAct::kSigmoid};
  for (std::size_t i = 0; i < 3; ++i) {
    const nn::PlanOp& op = plan->ops()[i];
    EXPECT_TRUE(op.fused) << "op " << i;
    EXPECT_EQ(op.act, acts[i]) << "op " << i;
    ASSERT_NE(op.dense, nullptr) << "op " << i;
    EXPECT_EQ(op.conv, nullptr) << "op " << i;
    // Panels packed at compile, pinned to the compile backend.
    ASSERT_NE(op.packed, nullptr) << "op " << i;
    EXPECT_EQ(op.packed->owner, &tensor::blocked_backend()) << "op " << i;
    EXPECT_EQ(op.packed_version, op.dense->weight_version()) << "op " << i;
  }
  EXPECT_EQ(plan->ops()[1].leaky_alpha, 0.05f);
  EXPECT_FALSE(plan->weights_stale());
}

TEST(InferPlanTest, MatchesUnfusedOracleBitwiseOnAllBackendsAndOddShapes) {
  for (const tensor::Backend* backend : all_backends()) {
    tensor::BackendScope scope(backend);
    const auto model = make_odd_dense_model(97);
    const auto plan = InferPlan::compile(*model, backend);

    InferContext plan_ctx;
    Tensor got;
    common::Pcg32 rng(5);
    for (const std::size_t batch : {1u, 3u, 7u, 11u, 7u}) {
      const Tensor x = Tensor::randn({batch, 13}, rng);
      plan->run(x, got, plan_ctx);
      expect_bitwise_equal(got, oracle::unfused_infer(*model, x),
                           "dense plan");
    }
  }
}

TEST(InferPlanTest, ConvChainMatchesUnfusedOracleBitwiseOnAllBackends) {
  for (const tensor::Backend* backend : all_backends()) {
    tensor::BackendScope scope(backend);
    common::Pcg32 rng(57);
    nn::Sequential model;
    model.emplace<nn::Conv2d>(1, 4, 3, 1, 1, 8, 8, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::MaxPool2d>(4, 8, 8, 2, 2);
    model.emplace<nn::ConvTranspose2d>(4, 1, 2, 2, 0, 4, 4, rng);
    model.emplace<nn::Sigmoid>();
    const auto plan = InferPlan::compile(model, backend);
    // Conv2d op carries panels; pool / transpose run the generic entries.
    ASSERT_EQ(plan->size(), 3u);
    EXPECT_NE(plan->ops()[0].conv, nullptr);
    EXPECT_NE(plan->ops()[0].packed, nullptr);

    InferContext plan_ctx;
    Tensor got;
    for (const std::size_t batch : {1u, 3u, 5u}) {
      const Tensor x = Tensor::randn({batch, 64}, rng);
      plan->run(x, got, plan_ctx);
      expect_bitwise_equal(got, oracle::unfused_infer(model, x), "conv plan");
    }
  }
}

TEST(InferPlanTest, RunUnderForeignBackendScopeStaysBitwiseCorrect) {
  // Panels are pinned to the compile backend; a BackendScope override at
  // run time must fall back to the unpacked kernels and still match the
  // oracle under that same scope bitwise.
  const auto model = make_odd_dense_model(131);
  const auto plan = InferPlan::compile(*model, &tensor::blocked_backend());

  tensor::BackendScope scope(&tensor::reference_backend());
  InferContext plan_ctx;
  Tensor got;
  common::Pcg32 rng(9);
  const Tensor x = Tensor::randn({5, 13}, rng);
  plan->run(x, got, plan_ctx);
  expect_bitwise_equal(got, oracle::unfused_infer(*model, x),
                       "foreign-scope plan");
}

/// Synthetic int8 uplink batch: batch × features codes with per-row affine
/// headers (lo, scale) that differ row to row.
struct QuantBatch {
  QuantBatch(std::size_t batch, std::size_t features, std::size_t mul,
             std::size_t add)
      : features(features), codes(batch * features), lo(batch), scale(batch) {
    for (std::size_t i = 0; i < codes.size(); ++i) {
      codes[i] = static_cast<std::uint8_t>((i * mul + add) & 0xFF);
    }
    for (std::size_t i = 0; i < batch; ++i) {
      lo[i] = -0.75f + 0.2f * static_cast<float>(i);
      scale[i] = (1.0f + 0.1f * static_cast<float>(i)) / 255.0f;
    }
  }
  tensor::QuantHeader header() const { return {lo.data(), scale.data()}; }
  /// The float batch the first `rows` rows decode to.
  Tensor dequantized(std::size_t rows) const {
    return oracle::dequantize(codes.data(), header(), rows, features);
  }

  std::size_t features;
  std::vector<std::uint8_t> codes;
  std::vector<float> lo, scale;
};

TEST(InferPlanTest, QuantizedHeadMatchesDequantizedOracleOnAllBackends) {
  constexpr std::size_t kBatch = 6, kFeatures = 13;
  const QuantBatch q(kBatch, kFeatures, 73, 19);
  for (const tensor::Backend* backend : all_backends()) {
    tensor::BackendScope scope(backend);
    const auto model = make_odd_dense_model(211);
    const auto plan = InferPlan::compile(*model, backend);

    InferContext plan_ctx;
    Tensor got;
    plan->run_quantized(q.codes.data(), q.header(), kBatch, kFeatures, got,
                        plan_ctx);
    expect_bitwise_equal(
        got, oracle::unfused_infer(*model, q.dequantized(kBatch)),
        "quantized head");

    // Partial batch through the same context.
    plan->run_quantized(q.codes.data(), q.header(), 2, kFeatures, got,
                        plan_ctx);
    expect_bitwise_equal(got, oracle::unfused_infer(*model, q.dequantized(2)),
                         "quantized head partial batch");
  }
}

/// Conv-headed chain (no Dense to feed codes into): 1x4x4 in, 7 out.
std::unique_ptr<nn::Sequential> make_conv_head_model(std::uint64_t seed) {
  common::Pcg32 rng(seed);
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::Conv2d>(1, 2, 3, 1, 1, 4, 4, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::Dense>(32, 7, rng);
  model->emplace<nn::Sigmoid>();
  return model;
}

TEST(InferPlanTest, QuantizedNonDenseHeadDequantizesAndMatchesOracle) {
  // No Dense head to feed codes into: the plan dequantizes into its
  // context input buffer and runs the float ops.
  tensor::BackendScope scope(&tensor::blocked_backend());
  const auto model = make_conv_head_model(77);
  const auto plan = InferPlan::compile(*model);

  constexpr std::size_t kBatch = 3, kFeatures = 16;
  const QuantBatch q(kBatch, kFeatures, 41, 7);
  InferContext plan_ctx;
  Tensor got;
  plan->run_quantized(q.codes.data(), q.header(), kBatch, kFeatures, got,
                      plan_ctx);
  expect_bitwise_equal(
      got, oracle::unfused_infer(*model, q.dequantized(kBatch)),
      "conv-head quantized");
}

TEST(InferPlanTest, RunQuantizedUnderForeignBackendScopeStaysBitwiseCorrect) {
  // Compiled on simd, run under reference and blocked scopes: the Dense
  // head's panels belong to simd, so run_quantized must dequantize and run
  // the float ops on the scoped backend, bitwise equal to the oracle on the
  // dequantized floats there. The conv head takes that path anyway.
  const auto dense_model = make_odd_dense_model(149);
  const auto conv_model = make_conv_head_model(151);
  const auto dense_plan =
      InferPlan::compile(*dense_model, &tensor::simd_backend());
  const auto conv_plan =
      InferPlan::compile(*conv_model, &tensor::simd_backend());
  constexpr std::size_t kBatch = 5;
  const QuantBatch dense_q(kBatch, 13, 29, 3);
  const QuantBatch conv_q(kBatch, 16, 59, 11);

  for (const tensor::Backend* foreign :
       {&tensor::reference_backend(), &tensor::blocked_backend()}) {
    tensor::BackendScope scope(foreign);
    InferContext ctx;
    Tensor got;
    dense_plan->run_quantized(dense_q.codes.data(), dense_q.header(), kBatch,
                              13, got, ctx);
    expect_bitwise_equal(
        got, oracle::unfused_infer(*dense_model, dense_q.dequantized(kBatch)),
        "foreign-scope quantized dense head");
    conv_plan->run_quantized(conv_q.codes.data(), conv_q.header(), kBatch,
                             16, got, ctx);
    expect_bitwise_equal(
        got, oracle::unfused_infer(*conv_model, conv_q.dequantized(kBatch)),
        "foreign-scope quantized conv head");
  }
}

TEST(InferPlanTest, AllIdentityChainCompilesToEmptyPlanAndCopies) {
  nn::Sequential model;
  model.emplace<nn::GaussianNoise>(0.2f, common::Pcg32(3));
  model.emplace<nn::GaussianNoise>(0.3f, common::Pcg32(4));
  const auto plan = InferPlan::compile(model);
  EXPECT_EQ(plan->size(), 0u);
  EXPECT_EQ(plan->scratch_floats(), 0u);
  EXPECT_FALSE(plan->weights_stale());

  common::Pcg32 rng(15);
  const Tensor x = Tensor::randn({4, 9}, rng);
  InferContext plan_ctx;
  Tensor got;
  plan->run(x, got, plan_ctx);
  expect_bitwise_equal(got, x, "identity chain");

  // Quantized entry through an empty plan is pure dequantization.
  const QuantBatch q(2, 9, 37, 128);
  plan->run_quantized(q.codes.data(), q.header(), 2, 9, got, plan_ctx);
  expect_bitwise_equal(got, q.dequantized(2), "identity chain quantized");
}

TEST(InferPlanTest, NestedChainCompilesAndRunsBitwiseEqualToFlat) {
  // Same seed -> identical weights; the nested container must flatten into
  // the same plan (op count included) and the same bits as the flat chain.
  const auto flat = make_odd_dense_model(303);

  common::Pcg32 rng(303);
  auto outer = std::make_unique<nn::Sequential>();
  auto inner = std::make_unique<nn::Sequential>();
  outer->emplace<nn::Dense>(13, 37, rng);
  outer->emplace<nn::ReLU>();
  inner->emplace<nn::Dense>(37, 29, rng);
  inner->emplace<nn::LeakyReLU>(0.07f);
  inner->emplace<nn::Dense>(29, 23, rng);
  inner->emplace<nn::Tanh>();
  outer->add(std::move(inner));
  outer->emplace<nn::Dense>(23, 31, rng);
  outer->emplace<nn::Sigmoid>();

  const auto flat_plan = InferPlan::compile(*flat);
  const auto nested_plan = InferPlan::compile(*outer);
  ASSERT_EQ(nested_plan->size(), flat_plan->size());

  InferContext flat_ctx, nested_ctx;
  Tensor flat_out, nested_out;
  common::Pcg32 data_rng(31);
  for (const std::size_t batch : {1u, 6u}) {
    const Tensor x = Tensor::randn({batch, 13}, data_rng);
    flat_plan->run(x, flat_out, flat_ctx);
    nested_plan->run(x, nested_out, nested_ctx);
    expect_bitwise_equal(nested_out, flat_out, "nested plan vs flat plan");

    expect_bitwise_equal(flat_out, oracle::unfused_infer(*flat, x),
                         "flat plan vs oracle");

    // Sequential::infer_into (compile-and-run) agrees with both.
    Tensor seq_out;
    outer->infer_into(x, seq_out, nested_ctx);
    expect_bitwise_equal(seq_out, flat_out, "nested infer_into vs flat plan");
  }
}

TEST(InferPlanTest, WeightsStaleFlipsAfterMutationAndRecompileClears) {
  // The two out-of-band edit routes: the Dense::weight() accessor, and a
  // write through a ParamView held since before compile (an optimizer's)
  // followed by mark_weights_changed(). Either way the stale plan keeps
  // serving the weights it packed, and a recompiled plan serves the new
  // ones.
  for (const bool via_param_view : {false, true}) {
    SCOPED_TRACE(via_param_view ? "ParamView + mark_weights_changed"
                                : "Dense::weight()");
    common::Pcg32 rng(59);
    nn::Sequential model;
    auto& dense = model.emplace<nn::Dense>(8, 12, rng);
    model.emplace<nn::ReLU>();
    const std::vector<nn::ParamView> params = model.params();
    const Tensor x = Tensor::randn({3, 8}, rng);
    const Tensor old_expected = oracle::unfused_infer(model, x);

    const auto plan = InferPlan::compile(model);
    EXPECT_FALSE(plan->weights_stale());
    if (via_param_view) {
      ASSERT_EQ(params[0].name, "layer0.Dense.weight");
      for (float& w : params[0].value->data()) w = -1.5f * w + 0.125f;
      // A raw write is invisible until the owner reports it.
      EXPECT_FALSE(plan->weights_stale());
      model.mark_weights_changed();
    } else {
      for (float& w : dense.weight().data()) w = -1.5f * w + 0.125f;
    }
    EXPECT_TRUE(plan->weights_stale());
    const Tensor new_expected = oracle::unfused_infer(model, x);
    ASSERT_FALSE(new_expected.allclose(old_expected, 0.0f));

    InferContext ctx;
    Tensor out;
    plan->run(x, out, ctx);
    expect_bitwise_equal(out, old_expected, "stale plan keeps old weights");

    const auto fresh = InferPlan::compile(model);
    EXPECT_FALSE(fresh->weights_stale());
    fresh->run(x, out, ctx);
    expect_bitwise_equal(out, new_expected, "recompiled plan");
  }
}

TEST(InferPlanTest, ScratchFloatsCoversArenaHighWaterExactly) {
  // The conv chain is the scratch-hungry case: the im2col column matrix is
  // the arena high-water, precomputed at compile so the first run() reserves
  // once and the arena never opens a second block.
  tensor::BackendScope scope(&tensor::blocked_backend());
  common::Pcg32 rng(67);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(1, 4, 3, 1, 1, 8, 8, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::ConvTranspose2d>(4, 1, 2, 2, 0, 8, 8, rng);
  const auto plan = InferPlan::compile(model);
  EXPECT_GT(plan->scratch_floats(), 0u);

  InferContext ctx;
  Tensor out;
  const Tensor x = Tensor::randn({4, 64}, rng);
  plan->run(x, out, ctx);
  EXPECT_LE(ctx.scratch().high_water(), plan->scratch_floats());
  EXPECT_EQ(ctx.scratch().block_count(), 1u);  // one reserve, no growth
  const std::size_t cap = ctx.scratch().capacity();
  for (int i = 0; i < 4; ++i) plan->run(x, out, ctx);
  EXPECT_EQ(ctx.scratch().capacity(), cap);
  EXPECT_EQ(ctx.scratch().block_count(), 1u);
}

TEST(InferPlanTest, MultiOpPlanRejectsContextBufferOutput) {
  // Two ping-pong buffers cannot hold the input chain AND an aliased output
  // of a multi-op plan; the executor refuses loudly instead of silently
  // allocating (the retired Sequential escape hatch).
  common::Pcg32 rng(83);
  nn::Sequential model;
  model.emplace<nn::Dense>(8, 16, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(16, 8, rng);
  const auto plan = InferPlan::compile(model);
  ASSERT_GE(plan->size(), 2u);

  InferContext ctx;
  const Tensor x = Tensor::randn({2, 8}, rng);
  EXPECT_THROW(plan->run(x, ctx.buffer(1), ctx), std::invalid_argument);
}

TEST(InferPlanStressTest, ConcurrentFannedOutDecodersStayBitwiseSerial) {
  // Three threads decode batch-32 rounds through one shared plan while a
  // fourth decodes with its GEMMs pinned inline. Whichever thread holds
  // the fan-out, the others run inline beside it; every output must equal
  // the serial decode of the same input, bitwise, on every iteration.
  common::Pcg32 rng(97);
  nn::Sequential model;
  model.emplace<nn::Dense>(96, 384, rng);  // 32x96x384 = 1.18M MACs
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(384, 200, rng);  // n = 200 ends in a part strip
  model.emplace<nn::Sigmoid>();
  const auto plan = InferPlan::compile(model, &tensor::simd_backend());

  constexpr int kThreads = 4;
  constexpr int kIterations = 2000;
  std::vector<Tensor> inputs, serial(kThreads);
  tensor::set_gemm_parallelism(false);
  {
    tensor::BackendScope scope(&tensor::simd_backend());
    for (int t = 0; t < kThreads; ++t) {
      inputs.push_back(Tensor::randn({32, 96}, rng));
      InferContext ctx;
      plan->run(inputs[t], serial[t], ctx);
    }
  }
  tensor::set_gemm_parallelism(true);

  common::FanOut& fan = common::FanOut::global();
  const std::uint64_t jobs_before = fan.jobs_dispatched();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      tensor::BackendScope scope(&tensor::simd_backend());
      if (t == kThreads - 1) tensor::set_thread_gemm_parallelism(false);
      InferContext ctx;
      Tensor out;
      for (int it = 0; it < kIterations; ++it) {
        plan->run(inputs[t], out, ctx);
        bool same = out.shape() == serial[t].shape();
        for (std::size_t i = 0; same && i < out.numel(); ++i) {
          same = out[i] == serial[t][i];
        }
        if (!same) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  if (fan.helpers() > 0) {
    EXPECT_GT(fan.jobs_dispatched(), jobs_before);
  }
}

}  // namespace
}  // namespace orco
