// train_online: §III-B orchestrated training of one cluster, one
// Orchestrator::train_round per mini-batch, on the paper's MNIST-like task
// (synthetic MNIST seeds 11/12, 2000/400 samples, batch 64). The run seed
// picks the model initialisation, the latent noise and the batch order.
#include <algorithm>
#include <cmath>
#include <memory>

#include "data/dataloader.h"
#include "data/synthetic_mnist.h"
#include "stats.h"
#include "tensor/backend.h"
#include "workloads.h"

namespace perfbench {

std::unique_ptr<TrainSetup> make_train_setup(std::uint64_t seed) {
  auto s = std::make_unique<TrainSetup>();
  s->system = std::make_unique<orco::core::OrcoDcsSystem>(
      tenant_config(seed * 7919 + 1));
  orco::data::MnistConfig train;
  train.count = kTrainSamples;
  train.seed = 11;
  s->train = orco::data::make_synthetic_mnist(train);
  orco::data::MnistConfig test;
  test.count = kTestSamples;
  test.seed = 12;
  s->test = orco::data::make_synthetic_mnist(test);
  s->loader = std::make_unique<orco::data::DataLoader>(
      s->train, kTrainBatch, /*shuffle=*/true,
      orco::common::Pcg32(seed ^ 0x10adULL));
  return s;
}

Result run_train_online(const RunOptions& o) {
  Result r;
  std::unique_ptr<TrainSetup> s;
  const double setup_s =
      timed_setups(s, [&] { return make_train_setup(o.seed); });
  const float initial_loss = s->system->evaluate_loss(s->test);
  // Kernels run inline on this thread, as on TrainerRuntime's workers: the
  // figure is one core's training rate, not the GEMM pool's.
  orco::tensor::set_thread_gemm_parallelism(false);

  const std::size_t epochs = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(o.seconds * kEpochsPerSecond)));
  auto& orchestrator = s->system->orchestrator();
  const std::size_t batches = s->loader->batch_count();
  std::vector<double> round_us;
  double epoch_bytes = 0.0;
  const ProcSample p0 = ProcSample::take();
  const double t0 = now_us();
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    s->loader->reshuffle();
    for (std::size_t b = 0; b < batches; ++b) {
      const auto batch = s->loader->batch(b);
      const double start = now_us();
      const orco::core::RoundRecord rec = orchestrator.train_round(batch.images);
      round_us.push_back(now_us() - start);
      if (epoch == 0) {
        epoch_bytes += static_cast<double>(rec.uplink_payload_bytes +
                                           rec.downlink_payload_bytes);
      }
    }
  }
  const double elapsed_s = (now_us() - t0) / 1e6;
  const ProcSample p1 = ProcSample::take();
  const float eval_loss = s->system->evaluate_loss(s->test);
  r.attempted = round_us.size();
  if (!(eval_loss < initial_loss)) {
    r.fail_check("training did not lower the evaluation loss (" +
                 std::to_string(initial_loss) + " -> " +
                 std::to_string(eval_loss) + ")");
    r.failed = 1;
  }

  const double rate = static_cast<double>(round_us.size()) / elapsed_s;
  const double p50 = median(round_us);
  const double p99 = quiet_of(round_us, 99);

  r.detail.add("train_rounds_per_s", rate, "1/s");
  r.detail.add("final_eval_loss", eval_loss, "loss");
  r.detail.add("wire_bytes_per_round",
               epoch_bytes / static_cast<double>(batches), "B");
  r.detail.add("round_p50_us", p50, "us");
  r.detail.add("round_p99_us", p99, "us");
  r.detail.add("setup_s", setup_s, "s");
  r.detail.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.detail.add("fail_ratio",
               static_cast<double>(r.failed) / static_cast<double>(r.attempted),
               "share");
  r.detail.add("host.steal_share", steal_share(p0, p1), "share");
  r.metrics.add("p50_us", p50, "us");
  r.metrics.add("p99_us", p99, "us");
  if (o.traced) {
    r.per_layer.add("host.steal_share", steal_share(p0, p1), "share");
    r.per_layer.add("proc.cpu_ms_per_kreq",
                    (p1.cpu_ms - p0.cpu_ms) / static_cast<double>(r.attempted) *
                        1000.0,
                    "ms");
    r.per_layer.add(
        "proc.ctx_switches_per_req",
        (p1.ctx_switches - p0.ctx_switches) / static_cast<double>(r.attempted),
        "count");
  }
  return r;
}

}  // namespace perfbench
