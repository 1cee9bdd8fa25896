// Multi-cluster serving: one edge runtime multiplexing heterogeneous
// tenants — two MNIST-like image clusters, one GTSRB-like image cluster and
// one scalar-telemetry cluster — behind the sharded, batched front door.
//
//   1. build + briefly train each tenant's OrcoDCS system (online
//      orchestration, as in quickstart.cpp but smaller);
//   2. register every cluster with a ServerRuntime (4 shards);
//   3. fire mixed traffic from concurrent clients;
//   4. graceful shutdown, then print the telemetry report and a sample
//      reconstruction per tenant kind.
//
// Build & run:  ./build/examples/multi_cluster_serving
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "data/metrics.h"
#include "data/synthetic_gtsrb.h"
#include "data/synthetic_mnist.h"
#include "serve/serve.h"

namespace {

using namespace orco;

struct Tenant {
  serve::ClusterId id;
  std::string kind;
  std::shared_ptr<core::OrcoDcsSystem> system;
  data::Dataset eval;  // samples whose encodings we serve back
};

std::shared_ptr<core::OrcoDcsSystem> make_system(std::size_t input_dim,
                                                 std::size_t latent_dim,
                                                 std::uint64_t seed) {
  core::SystemConfig cfg;
  cfg.orco.input_dim = input_dim;
  cfg.orco.latent_dim = latent_dim;
  cfg.orco.decoder_layers = 3;
  cfg.orco.seed = seed;
  cfg.field.device_count = 16;
  cfg.field.radio_range_m = 55.0;
  return std::make_shared<core::OrcoDcsSystem>(cfg);
}

/// Encodes row `i` of the tenant's eval set the way its aggregator would on
/// the uplink (noise-free eval encoding).
tensor::Tensor latent_for(const Tenant& tenant, std::size_t i) {
  const auto batch = tenant.eval.images().slice_rows(i, i + 1);
  return tenant.system->aggregator()
      .encoder()
      .infer(batch)
      .reshaped({tenant.system->config().orco.latent_dim});
}

}  // namespace

int main() {
  // --- 1. Heterogeneous tenants. -----------------------------------------
  std::vector<Tenant> tenants;

  for (std::uint64_t i = 0; i < 2; ++i) {  // two MNIST-like image clusters
    data::MnistConfig dcfg;
    dcfg.count = 300;
    dcfg.seed = 31 + i;
    Tenant t{i + 1, "mnist", make_system(784, 128, 11 + i),
             data::make_synthetic_mnist(dcfg)};
    tenants.push_back(std::move(t));
  }
  {
    data::GtsrbConfig dcfg;
    dcfg.count = 150;
    dcfg.seed = 41;
    Tenant t{3, "gtsrb", make_system(3072, 512, 13),
             data::make_synthetic_gtsrb(dcfg)};
    tenants.push_back(std::move(t));
  }
  {
    // Scalar telemetry: one reading per device, input_dim == device_count
    // (the §II formulation) — tiny model, high request rate.
    data::MnistConfig dcfg;  // reuse the generator as a stand-in field
    dcfg.count = 300;
    dcfg.seed = 51;
    Tenant t{4, "telemetry", make_system(784, 32, 17),
             data::make_synthetic_mnist(dcfg)};
    tenants.push_back(std::move(t));
  }

  std::cout << "training " << tenants.size() << " tenants (brief)...\n";
  for (auto& t : tenants) {
    const auto summary = t.system->train_online(t.eval, /*epochs=*/4);
    t.system->distribute_encoder();
    std::cout << "  cluster " << t.id << " (" << t.kind << "): loss "
              << summary.final_loss << " after " << summary.rounds.size()
              << " rounds\n";
  }

  // --- 2. One serving runtime for all of them. ----------------------------
  serve::ServeConfig cfg;
  cfg.shard_count = 4;
  cfg.queue.max_batch = 16;
  serve::ServerRuntime runtime(cfg);
  for (const auto& t : tenants) {
    runtime.register_cluster(t.id, t.system);
    std::cout << "cluster " << t.id << " (" << t.kind << ") -> shard "
              << runtime.shard_of(t.id) << "\n";
  }
  runtime.start();

  // --- 3. Mixed traffic from concurrent clients. --------------------------
  common::Stopwatch sw;
  const std::size_t per_client = 200;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<serve::DecodeResponse>> inflight;
      for (std::size_t i = 0; i < per_client; ++i) {
        const Tenant& t = tenants[(c + i) % tenants.size()];
        inflight.push_back(
            runtime.submit(t.id, latent_for(t, i % t.eval.size())));
        if (inflight.size() >= 8) {
          for (auto& f : inflight) (void)f.get();
          inflight.clear();
        }
      }
      for (auto& f : inflight) (void)f.get();
    });
  }
  for (auto& c : clients) c.join();
  const double elapsed = sw.seconds();

  // --- 4. Shutdown and report. --------------------------------------------
  runtime.shutdown();
  std::cout << "\n";
  runtime.telemetry().report(elapsed).print(std::cout);

  std::cout << "\nper-tenant sample reconstruction PSNR:\n";
  for (const auto& t : tenants) {
    const auto sample = t.eval.images().slice_rows(0, 8);
    const auto rec = t.system->reconstruct(sample);
    std::cout << "  cluster " << t.id << " (" << t.kind << "): "
              << data::mean_psnr(sample, rec) << " dB\n";
  }
  return 0;
}
