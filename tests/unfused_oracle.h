// Unfused layer-by-layer inference oracle for the plan parity tests.
//
// Runs a model's flattened inference chain one leaf at a time: each
// non-identity leaf's own infer_into() into a fresh tensor, then — when an
// activation layer follows it — a separate tensor::apply_epilogue sweep for
// that activation. No fusion, no packed panels, no ping-pong buffers and no
// shared context, so a compiled InferPlan (fused epilogues, plan-packed
// GEMMs, buffer reuse) is checked against arithmetic it does not share.
// Both must agree bitwise on every backend: packing reorders memory, never
// a reduction, and the GEMM epilogue applies the same scalar activation as
// apply_epilogue.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "nn/activations.h"
#include "nn/infer_context.h"
#include "nn/sequential.h"
#include "tensor/backend.h"
#include "tensor/tensor.h"

namespace orco::oracle {

inline tensor::Tensor unfused_infer(const nn::Sequential& model,
                                    const tensor::Tensor& input) {
  const std::vector<const nn::Layer*>& chain = model.inference_chain();
  tensor::Tensor cur = input;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (chain[i]->infer_is_identity()) continue;
    nn::InferContext ctx;
    tensor::Tensor next;
    chain[i]->infer_into(cur, next, ctx);
    float leaky_alpha = 0.01f;
    const std::optional<tensor::EpilogueAct> act =
        i + 1 < chain.size()
            ? nn::activation_epilogue(*chain[i + 1], leaky_alpha)
            : std::nullopt;
    if (act) {
      tensor::Epilogue epi;
      epi.act = *act;
      epi.leaky_alpha = leaky_alpha;
      const std::size_t rows = next.dim(0);
      if (rows > 0) {
        tensor::apply_epilogue(next.data().data(), rows, next.numel() / rows,
                               epi);
      }
      ++i;  // the activation layer is consumed by the sweep
    }
    cur = std::move(next);
  }
  return cur;
}

/// The float batch a quantized payload decodes to: x = lo + q*scale per
/// row, in single-float math (the expression gemm_quantized applies).
inline tensor::Tensor dequantize(const std::uint8_t* codes,
                                 const tensor::QuantHeader& qh,
                                 std::size_t batch, std::size_t features) {
  tensor::Tensor out({batch, features});
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t j = 0; j < features; ++j) {
      out.at(i, j) =
          qh.row_lo[i] + static_cast<float>(codes[i * features + j]) *
                             qh.row_scale[i];
    }
  }
  return out;
}

}  // namespace orco::oracle
