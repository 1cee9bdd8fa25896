// Per-layer probes of a traced run. Each probe times the benchmark's own
// calls into one module's public functions; nothing inside src/ is
// instrumented.
//
//   nn        InferPlan::run of a tenant decoder at batch 1, 8 and 32
//   tensor    simd GEMM rate on the decoder shapes (pack_b +
//             gemm_prepacked), the training shapes (gemm/gemm_nt/gemm_tn)
//             and a 512^3 peak, all on one thread
//   core+wsn  one epoch of §III-B rounds replayed call by call through the
//             public aggregator/edge/message/channel API, checked to give
//             Orchestrator::train_round's losses bit for bit
#include <algorithm>
#include <cstring>
#include <functional>

#include "common/rng.h"
#include "stats.h"
#include "tensor/backend.h"
#include "workloads.h"

namespace perfbench {
namespace {

using orco::tensor::Backend;

/// Median wall time of one call, in microseconds, over `reps` calls after
/// `warm` untimed ones.
double median_call_us(int warm, int reps, const std::function<void()>& call) {
  for (int i = 0; i < warm; ++i) call();
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_us();
    call();
    us.push_back(now_us() - t0);
  }
  return median(us);
}

void probe_nn(std::uint64_t seed, Metrics& m) {
  const Tenant t = make_tenant(1, seed, 32);
  const auto plan = t.system->edge().current_plan();
  orco::tensor::BackendScope scope(&plan->backend());
  for (std::size_t b : {1, 8, 32}) {
    Tensor in({b, t.latents.front().numel()});
    for (std::size_t i = 0; i < b; ++i) {
      std::memcpy(in.row(i).data(), t.latents[i].data().data(),
                  t.latents[i].numel() * sizeof(float));
    }
    Tensor out;
    orco::nn::InferContext ctx;
    m.add("nn.plan_run_us.b" + std::to_string(b),
          median_call_us(20, 400, [&] { plan->run(in, out, ctx); }), "us");
  }
}

struct Shape {
  std::size_t in, out;
};

void probe_tensor(std::uint64_t seed, Metrics& m) {
  const Backend& simd = orco::tensor::simd_backend();
  orco::common::Pcg32 rng(seed, 0x9e33);
  const orco::core::OrcoConfig cfg = tenant_config(seed).orco;
  const std::size_t hidden = cfg.decoder_hidden();
  const std::vector<Shape> decoder = {
      {cfg.latent_dim, hidden}, {hidden, hidden}, {hidden, cfg.input_dim}};

  // Decode at batch 32: y = x * W^T per layer, W packed once.
  {
    constexpr std::size_t b = 32;
    std::vector<Tensor> w, x, y;
    std::vector<orco::tensor::PackedWeights> packed;
    double flops = 0.0;
    for (const Shape& s : decoder) {
      w.push_back(Tensor::randn({s.out, s.in}, rng));
      x.push_back(Tensor::randn({b, s.in}, rng));
      y.emplace_back(orco::tensor::Shape{b, s.out});
      packed.push_back(simd.pack_b(w.back().data().data(), s.in, s.out, true));
      flops += 2.0 * b * static_cast<double>(s.in * s.out);
    }
    const double us = median_call_us(10, 200, [&] {
      for (std::size_t i = 0; i < decoder.size(); ++i) {
        simd.gemm_prepacked(x[i].data().data(), packed[i],
                            y[i].data().data(), b, decoder[i].in,
                            decoder[i].out, {});
      }
    });
    m.add("tensor.gemm_gflops.decode_b32", flops / us / 1e3, "GFLOP/s");
  }

  // Training at batch 64: forward (NT), input gradient (NN) and weight
  // gradient (TN) of the encoder and every decoder layer.
  {
    constexpr std::size_t b = 64;
    std::vector<Shape> layers = {{cfg.input_dim, cfg.latent_dim}};
    layers.insert(layers.end(), decoder.begin(), decoder.end());
    std::vector<Tensor> w, x, dy, y, dx, dw;
    double flops = 0.0;
    for (const Shape& s : layers) {
      w.push_back(Tensor::randn({s.out, s.in}, rng));
      x.push_back(Tensor::randn({b, s.in}, rng));
      dy.push_back(Tensor::randn({b, s.out}, rng));
      y.emplace_back(orco::tensor::Shape{b, s.out});
      dx.emplace_back(orco::tensor::Shape{b, s.in});
      dw.emplace_back(orco::tensor::Shape{s.out, s.in});
      flops += 3 * 2.0 * b * static_cast<double>(s.in * s.out);
    }
    const double us = median_call_us(3, 40, [&] {
      for (std::size_t i = 0; i < layers.size(); ++i) {
        const Shape& s = layers[i];
        simd.gemm_nt(x[i].data().data(), w[i].data().data(),
                     y[i].data().data(), b, s.in, s.out);
        simd.gemm(dy[i].data().data(), w[i].data().data(),
                  dx[i].data().data(), b, s.out, s.in);
        simd.gemm_tn(dy[i].data().data(), x[i].data().data(),
                     dw[i].data().data(), s.out, b, s.in);
      }
    });
    m.add("tensor.gemm_gflops.train_b64", flops / us / 1e3, "GFLOP/s");
  }

  // Peak: the fastest of nine 512^3 products.
  {
    constexpr std::size_t n = 512;
    const Tensor a = Tensor::randn({n, n}, rng);
    const Tensor bm = Tensor::randn({n, n}, rng);
    Tensor c({n, n});
    double us = 1e300;
    for (int i = 0; i < 9; ++i) {
      const double t0 = now_us();
      simd.gemm(a.data().data(), bm.data().data(), c.data().data(), n, n, n);
      us = std::min(us, now_us() - t0);
    }
    const double peak = 2.0 * n * n * n / us / 1e3;
    m.add("tensor.gemm_peak_gflops", peak, "GFLOP/s");
    for (const Metric& x : m.items()) {
      if (x.name == "tensor.gemm_gflops.decode_b32") {
        m.add("tensor.decode_peak_frac", x.value / peak, "share");
        break;
      }
    }
  }
}

/// Replays one epoch of Orchestrator::train_round call by call on a twin
/// system, timing each step, and checks every round's loss against the
/// orchestrator's own run bit for bit.
void probe_core(std::uint64_t seed, Result& r) {
  const auto ref = make_train_setup(seed);
  const auto twin = make_train_setup(seed);
  ref->loader->reshuffle();
  twin->loader->reshuffle();
  const std::size_t rounds = ref->loader->batch_count();

  std::vector<float> ref_losses;
  for (std::size_t b = 0; b < rounds; ++b) {
    ref_losses.push_back(
        ref->system->orchestrator().train_round(ref->loader->batch(b).images).loss);
  }

  auto& sys = *twin->system;
  auto& agg = sys.aggregator();
  auto& edge = sys.edge();
  orco::wsn::Channel channel(sys.config().channel);
  orco::wsn::TransmissionLedger ledger;
  orco::tensor::BackendScope scope(edge.backend());
  using orco::wsn::Direction;
  enum Span { kEncode, kReconstruct, kResidual, kTrainStep, kApplyGrad,
              kCodec, kChannel, kRound, kSpans };
  std::array<double, kSpans> total{};
  double t = 0.0;
  const auto lap = [&](Span s) {
    const double now = now_us();
    total[s] += now - t;
    t = now;
  };
  const auto send = [&](std::size_t bytes, Direction d) {
    channel.send(bytes, d, ledger);
    lap(kChannel);
  };
  std::size_t mismatches = 0;
  for (std::size_t b = 0; b < rounds; ++b) {
    const auto batch = twin->loader->batch(b);
    const double round_start = now_us();
    t = round_start;
    const auto latent = agg.encode_batch(batch.images, b, /*training=*/true);
    lap(kEncode);
    const auto latent_bytes = latent.serialize();
    lap(kCodec);
    send(latent_bytes.size(), Direction::kUp);
    const auto latent_rx =
        orco::core::LatentBatchMsg::deserialize(latent_bytes);
    lap(kCodec);
    const auto rec = edge.reconstruct(latent_rx, /*training=*/true);
    lap(kReconstruct);
    const auto rec_bytes = rec.serialize();
    lap(kCodec);
    send(rec_bytes.size(), Direction::kDown);
    const auto rec_rx = orco::core::ReconstructionMsg::deserialize(rec_bytes);
    lap(kCodec);
    auto [loss, residual] = agg.evaluate_reconstruction(rec_rx);
    lap(kResidual);
    const auto residual_bytes = residual.serialize();
    lap(kCodec);
    send(residual_bytes.size(), Direction::kUp);
    const auto residual_rx =
        orco::core::ResidualMsg::deserialize(residual_bytes);
    lap(kCodec);
    const auto grad = edge.train_step(residual_rx);
    lap(kTrainStep);
    const auto grad_bytes = grad.serialize();
    lap(kCodec);
    send(grad_bytes.size(), Direction::kDown);
    const auto grad_rx = orco::core::LatentGradMsg::deserialize(grad_bytes);
    lap(kCodec);
    agg.apply_latent_gradient(grad_rx);
    lap(kApplyGrad);
    total[kRound] += now_us() - round_start;
    if (std::memcmp(&loss, &ref_losses[b], sizeof loss) != 0) ++mismatches;
  }
  if (mismatches > 0) {
    r.fail_check(std::to_string(mismatches) + " of " + std::to_string(rounds) +
                 " replayed rounds differ from Orchestrator::train_round");
    ++r.failed;
  }
  const double n = static_cast<double>(rounds);
  double children = 0.0;
  for (int s = kEncode; s < kRound; ++s) children += total[s];
  r.per_layer.add("core.encode_us", total[kEncode] / n, "us");
  r.per_layer.add("core.edge_reconstruct_us", total[kReconstruct] / n, "us");
  r.per_layer.add("core.residual_us", total[kResidual] / n, "us");
  r.per_layer.add("core.edge_train_step_us", total[kTrainStep] / n, "us");
  r.per_layer.add("core.apply_grad_us", total[kApplyGrad] / n, "us");
  r.per_layer.add("core.msg_codec_us", total[kCodec] / n, "us");
  r.per_layer.add("wsn.channel_send_us", total[kChannel] / n, "us");
  r.per_layer.add("core.round_self_us", (total[kRound] - children) / n, "us");
}

}  // namespace

void add_layer_probes(const RunOptions& options, Result& result) {
  // Every probe runs its kernels on this one thread, as a shard worker and
  // the train_online loop do.
  orco::tensor::set_thread_gemm_parallelism(false);
  probe_nn(options.seed, result.per_layer);
  probe_tensor(options.seed, result.per_layer);
  probe_core(options.seed, result);
}

}  // namespace perfbench
