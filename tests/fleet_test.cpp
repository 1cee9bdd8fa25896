// Tests for the multi-edge fleet (src/fleet): consistent-hash ring
// properties (balance + bounded remap), delta-encoded snapshot replication
// (changed-blobs-only shipping, zero-copy apply), the crash-safe cold tier
// (ColdStore + OrcoDcsSystem checkpoint atomicity, truncated-file
// rejection), warm/cold tiering (bounded residency, bitwise-equal cold
// wake, single-flight thundering-herd collapse) and the runtime/trainer
// unregister paths the fleet's demotion relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "fleet/fleet.h"
#include "nn/model_io.h"
#include "serve/serve.h"
#include "train/train.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define ORCO_SANITIZED_BUILD 1
#endif
#elif defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define ORCO_SANITIZED_BUILD 1
#endif

namespace orco::fleet {
namespace {

using serve::DecodeResponse;
using serve::ResponseStatus;
using tensor::Tensor;

#ifdef ORCO_SANITIZED_BUILD
constexpr int kDeadlineStretch = 10;
#else
constexpr int kDeadlineStretch = 1;
#endif

constexpr std::size_t kInputDim = 64;
constexpr std::size_t kLatentDim = 16;

core::SystemConfig tiny_system() {
  core::SystemConfig cfg;
  cfg.orco.input_dim = kInputDim;
  cfg.orco.latent_dim = kLatentDim;
  cfg.orco.decoder_layers = 1;
  cfg.orco.batch_size = 16;
  cfg.orco.seed = 42;
  cfg.field.device_count = 4;
  cfg.field.radio_range_m = 60.0;
  return cfg;
}

FleetConfig tiny_fleet(const std::string& cold_dir) {
  FleetConfig cfg;
  cfg.replicas = 2;
  cfg.vnodes = 64;
  cfg.warm_capacity = 8;
  cfg.cold_dir = cold_dir;
  cfg.system = tiny_system();
  cfg.serve.shard_count = 2;
  return cfg;
}

/// Fresh (pre-cleaned) per-test cold-tier directory: stale records from a
/// previous run must not leak into residency/counter expectations.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/orco_fleet_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

data::Dataset tiny_dataset(std::size_t count, std::uint64_t seed) {
  common::Pcg32 rng(seed);
  Tensor images = Tensor::uniform({count, kInputDim}, rng);
  return data::Dataset("tiny", data::ImageGeometry{1, 8, 8},
                       /*num_classes=*/1, std::move(images),
                       std::vector<std::size_t>(count, 0));
}

// ---- hash ring --------------------------------------------------------------

TEST(HashRingTest, BalancesLoadAcrossReplicas) {
  constexpr std::size_t kReplicas = 4;
  constexpr std::size_t kKeys = 20000;
  HashRing ring(kReplicas, /*vnodes=*/128);
  std::vector<std::size_t> counts(kReplicas, 0);
  for (std::size_t k = 0; k < kKeys; ++k) {
    ++counts[ring.route(k * 2654435761ULL + 7)];
  }
  const double expected = static_cast<double>(kKeys) / kReplicas;
  double chi2 = 0.0;
  for (std::size_t r = 0; r < kReplicas; ++r) {
    const double dev = static_cast<double>(counts[r]) - expected;
    chi2 += dev * dev / expected;
    // Per-replica share within 35% of fair — with 128 vnodes the share's
    // coefficient of variation is ~1/sqrt(128) ~ 9%, so this is a ~4 sigma
    // bound, while a degenerate ring (one replica owning half the space)
    // deviates by 100%.
    EXPECT_NEAR(static_cast<double>(counts[r]), expected, 0.35 * expected)
        << "replica " << r;
  }
  EXPECT_LT(chi2, 2500.0);
}

TEST(HashRingTest, AddingReplicaMovesOnlyKeysToNewReplica) {
  constexpr std::size_t kKeys = 20000;
  HashRing before(4, 128);
  HashRing after = before;
  after.add_replica(4);
  std::size_t moved = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    const std::uint64_t key = k * 0x9e3779b97f4a7c15ULL + 3;
    const std::uint32_t a = before.route(key);
    const std::uint32_t b = after.route(key);
    if (a != b) {
      ++moved;
      // Consistency: a key that changes owner can only have been claimed
      // by the new replica's points.
      EXPECT_EQ(b, 4u) << "key moved between pre-existing replicas";
    }
  }
  // Fair share of a 5th replica is 20%; bound with generous slack.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(static_cast<double>(moved) / kKeys, 0.35);
}

TEST(HashRingTest, RemovingReplicaMovesOnlyItsKeys) {
  constexpr std::size_t kKeys = 20000;
  HashRing before(4, 128);
  HashRing after = before;
  ASSERT_TRUE(after.remove_replica(2));
  ASSERT_FALSE(after.remove_replica(2));
  std::size_t moved = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    const std::uint64_t key = k * 0x9e3779b97f4a7c15ULL + 3;
    const std::uint32_t a = before.route(key);
    const std::uint32_t b = after.route(key);
    if (a == 2u) {
      ++moved;
      EXPECT_NE(b, 2u);
    } else {
      // Every other tenant keeps its owner — the property that makes
      // topology changes cheap for warm state.
      EXPECT_EQ(a, b);
    }
  }
  EXPECT_LT(static_cast<double>(moved) / kKeys, 0.35);
}

TEST(HashRingTest, RoutingIsDeterministic) {
  HashRing a(3, 96);
  HashRing b(3, 96);
  for (std::uint64_t key = 0; key < 512; ++key) {
    EXPECT_EQ(a.route(key), b.route(key));
  }
}

// ---- delta replication ------------------------------------------------------

TEST(ReplicationTest, DeltaShipsOnlyChangedParamsAndAppliesWithoutCopies) {
  core::OrcoDcsSystem system(tiny_system());
  nn::Sequential& decoder = system.edge().decoder();
  const SnapshotImage base = image_of(decoder, 1);
  ASSERT_GT(base.params.size(), 1u);

  // Perturb exactly one parameter tensor.
  decoder.params()[0].value->data()[0] += 1.0f;
  decoder.mark_weights_changed();
  const SnapshotImage next = image_of(decoder, 2);

  const std::uint64_t copies_before = blob_copy_count();
  const SnapshotDelta delta = make_delta(base, next);
  const SnapshotImage applied = apply_delta(base, delta);
  EXPECT_EQ(blob_copy_count(), copies_before)
      << "make_delta/apply_delta must only alias blobs, never copy bytes";

  ASSERT_EQ(delta.changed.size(), 1u);
  EXPECT_EQ(delta.changed_index[0], 0u);
  EXPECT_EQ(delta.param_count, base.params.size());
  EXPECT_FALSE(delta.full());
  EXPECT_EQ(delta.byte_size(), next.params[0].bytes->size());

  ASSERT_EQ(applied.params.size(), next.params.size());
  EXPECT_EQ(applied.version, 2u);
  // Changed slot aliases the delta's blob; unchanged slots alias the base.
  EXPECT_EQ(applied.params[0].bytes.get(), next.params[0].bytes.get());
  for (std::size_t i = 1; i < applied.params.size(); ++i) {
    EXPECT_EQ(applied.params[i].bytes.get(), base.params[i].bytes.get());
  }
  // Materialized bytes are exactly the next generation's.
  for (std::size_t i = 0; i < applied.params.size(); ++i) {
    EXPECT_TRUE(*applied.params[i].bytes == *next.params[i].bytes);
  }
}

TEST(ReplicationTest, BaseVersionMismatchThrows) {
  core::OrcoDcsSystem system(tiny_system());
  nn::Sequential& decoder = system.edge().decoder();
  const SnapshotImage v1 = image_of(decoder, 1);
  decoder.params()[0].value->data()[0] += 1.0f;
  decoder.mark_weights_changed();
  const SnapshotImage v2 = image_of(decoder, 2);
  const SnapshotDelta delta = make_delta(v1, v2);
  // A follower holding v2 (not the delta's base v1) must reject.
  EXPECT_THROW((void)apply_delta(v2, delta), std::exception);
}

TEST(ReplicationTest, LoadImageRestoresWeightsBitwise) {
  core::OrcoDcsSystem trained(tiny_system());
  trained.edge().decoder().params()[0].value->data()[0] += 0.5f;
  trained.edge().decoder().mark_weights_changed();
  const SnapshotImage image = image_of(trained.edge().decoder(), 7);

  auto fresh_cfg = tiny_system();
  fresh_cfg.orco.seed = 99;  // different init; load_image must overwrite it
  core::OrcoDcsSystem fresh(fresh_cfg);
  load_image(fresh.edge().decoder(), image);
  const SnapshotImage round_trip = image_of(fresh.edge().decoder(), 7);
  ASSERT_EQ(round_trip.params.size(), image.params.size());
  for (std::size_t i = 0; i < image.params.size(); ++i) {
    EXPECT_TRUE(*round_trip.params[i].bytes == *image.params[i].bytes);
  }
}

// ---- cold store + crash-safe checkpoints ------------------------------------

TEST(ColdStoreTest, RoundTripsRecordAtomically) {
  ColdStore store(fresh_dir("cold_roundtrip"));
  core::OrcoDcsSystem system(tiny_system());
  ColdRecord record;
  record.model_version = 17;
  record.policy.priority = serve::Priority::kHigh;
  record.policy.queue_quota = 5;
  record.policy.weight = 2.5;
  record.encoder_params = nn::save_params(system.aggregator().encoder());
  record.decoder_params = nn::save_params(system.edge().decoder());
  store.save(77, record);

  EXPECT_TRUE(store.contains(77));
  EXPECT_FALSE(store.contains(78));
  EXPECT_FALSE(std::filesystem::exists(store.path_for(77) + ".tmp"))
      << "atomic write must not leave its temp file behind";

  const ColdRecord loaded = store.load(77);
  EXPECT_EQ(loaded.model_version, 17u);
  EXPECT_EQ(loaded.policy.priority, serve::Priority::kHigh);
  EXPECT_EQ(loaded.policy.queue_quota, 5u);
  EXPECT_DOUBLE_EQ(loaded.policy.weight, 2.5);
  EXPECT_TRUE(loaded.encoder_params == record.encoder_params);
  EXPECT_TRUE(loaded.decoder_params == record.decoder_params);
  EXPECT_EQ(store.saves(), 1u);
  EXPECT_EQ(store.loads(), 1u);

  EXPECT_TRUE(store.remove(77));
  EXPECT_FALSE(store.remove(77));
  EXPECT_FALSE(store.contains(77));
}

TEST(ColdStoreTest, TruncatedRecordIsRejected) {
  ColdStore store(fresh_dir("cold_truncated"));
  core::OrcoDcsSystem system(tiny_system());
  ColdRecord record;
  record.encoder_params = nn::save_params(system.aggregator().encoder());
  record.decoder_params = nn::save_params(system.edge().decoder());
  store.save(5, record);

  // Simulate the torn write the atomic rename prevents.
  const auto full = common::read_file(store.path_for(5));
  common::write_file(store.path_for(5),
                     std::span<const std::byte>(full).first(full.size() / 2));
  EXPECT_THROW((void)store.load(5), std::exception);

  // Wrong-tenant file is rejected too.
  common::write_file(store.path_for(6), full);
  EXPECT_THROW((void)store.load(6), std::exception);
}

TEST(CheckpointTest, SaveIsAtomicAndTruncatedLoadThrows) {
  core::OrcoDcsSystem system(tiny_system());
  const std::string path =
      ::testing::TempDir() + "/orco_fleet_ckpt_atomic.bin";
  system.save_checkpoint(path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "save_checkpoint must rename its temp file away";

  const auto full = common::read_file(path);
  common::write_file(path,
                     std::span<const std::byte>(full).first(full.size() / 2));
  core::OrcoDcsSystem other(tiny_system());
  EXPECT_THROW(other.load_checkpoint(path), std::exception);

  // The intact bytes restore fine — the failure above was the truncation.
  common::write_file(path, full);
  other.load_checkpoint(path);
}

// ---- residency --------------------------------------------------------------

TEST(ResidencyTest, VictimsAreLeastRecentlyStamped) {
  ResidencyManager residency(2);
  std::map<ClusterId, std::uint64_t> stamps;
  residency.add_warm(1);
  stamps[1] = residency.tick();
  residency.add_warm(2);
  stamps[2] = residency.tick();
  residency.add_warm(3);
  stamps[3] = residency.tick();
  EXPECT_TRUE(residency.over_capacity());
  stamps[1] = residency.tick();  // 1 becomes most recent; 2 is now oldest

  const auto victims =
      residency.victims(2, [&](ClusterId id) { return stamps[id]; });
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 2u);
  EXPECT_EQ(victims[1], 3u);

  residency.remove_warm(2);
  EXPECT_FALSE(residency.over_capacity());
  EXPECT_EQ(residency.warm_count(), 2u);
}

// ---- fleet lifecycle --------------------------------------------------------

TEST(FleetTest, ServesRegisteredTenantsAndBoundsResidency) {
  FleetConfig cfg = tiny_fleet(fresh_dir("residency_bound"));
  cfg.warm_capacity = 3;
  EdgeFleet fleet(cfg);
  for (ClusterId id = 1; id <= 8; ++id) fleet.register_tenant(id);
  EXPECT_EQ(fleet.registered_count(), 8u);
  EXPECT_EQ(fleet.resident_count(), 0u);  // registration is lazy
  fleet.start();

  common::Pcg32 rng(7);
  for (ClusterId id = 1; id <= 8; ++id) {
    const Tensor latent = Tensor::uniform({1, kLatentDim}, rng);
    const DecodeResponse response = fleet.submit(id, latent).get();
    EXPECT_EQ(response.status, ResponseStatus::kOk) << "tenant " << id;
    EXPECT_GE(response.model_version, 1u);
    EXPECT_LE(fleet.resident_count(), cfg.warm_capacity);
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.cold_builds, 8u);  // every tenant built once
  EXPECT_GE(stats.demotions, 5u);    // 8 tenants through 3 warm slots
  EXPECT_LE(stats.resident, cfg.warm_capacity);

  // Unknown tenants are refused without growing any state.
  EXPECT_EQ(fleet.submit(999, Tensor({1, kLatentDim})).get().status,
            ResponseStatus::kUnknownCluster);
  fleet.shutdown();
  EXPECT_EQ(fleet.submit(1, Tensor({1, kLatentDim})).get().status,
            ResponseStatus::kShutdown);
}

TEST(FleetTest, ColdWakeReconstructsBitwiseEqual) {
  FleetConfig cfg = tiny_fleet(fresh_dir("cold_bitwise_a"));
  EdgeFleet fleet(cfg);
  fleet.register_tenant(11);
  fleet.start();
  common::Pcg32 rng(21);
  const Tensor latent = Tensor::uniform({1, kLatentDim}, rng);

  const DecodeResponse warm_response = fleet.submit(11, latent).get();
  ASSERT_EQ(warm_response.status, ResponseStatus::kOk);

  ASSERT_TRUE(fleet.demote(11));
  EXPECT_FALSE(fleet.resident(11));
  EXPECT_TRUE(fleet.cold_store().contains(11));

  const DecodeResponse woken_response = fleet.submit(11, latent).get();
  ASSERT_EQ(woken_response.status, ResponseStatus::kOk);
  EXPECT_TRUE(fleet.resident(11));
  EXPECT_TRUE(woken_response.reconstruction.allclose(
      warm_response.reconstruction, 0.0f))
      << "cold wake must reconstruct bitwise-identically to the warm run";
  EXPECT_EQ(woken_response.model_version, warm_response.model_version);

  // And identically to a fleet that never demoted (fresh cold dir).
  FleetConfig always_warm_cfg = tiny_fleet(fresh_dir("cold_bitwise_b"));
  EdgeFleet always_warm(always_warm_cfg);
  always_warm.register_tenant(11);
  always_warm.start();
  const DecodeResponse reference = always_warm.submit(11, latent).get();
  ASSERT_EQ(reference.status, ResponseStatus::kOk);
  EXPECT_TRUE(
      woken_response.reconstruction.allclose(reference.reconstruction, 0.0f));
}

TEST(FleetTest, ThunderingHerdColdWakeLoadsOnce) {
  FleetConfig cfg = tiny_fleet(fresh_dir("single_flight"));
  EdgeFleet fleet(cfg);
  fleet.register_tenant(3);
  fleet.start();
  common::Pcg32 rng(5);
  const Tensor latent = Tensor::uniform({1, kLatentDim}, rng);
  const DecodeResponse warm_response = fleet.submit(3, latent).get();
  ASSERT_EQ(warm_response.status, ResponseStatus::kOk);
  ASSERT_TRUE(fleet.demote(3));
  ASSERT_EQ(fleet.cold_store().loads(), 0u);

  constexpr int kWakers = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::vector<DecodeResponse> responses(kWakers);
  for (int w = 0; w < kWakers; ++w) {
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      responses[w] = fleet.submit(3, latent).get();
    });
  }
  while (ready.load() < kWakers) std::this_thread::yield();
  go.store(true);
  for (auto& thread : threads) thread.join();

  for (int w = 0; w < kWakers; ++w) {
    EXPECT_EQ(responses[w].status, ResponseStatus::kOk) << "waker " << w;
    EXPECT_TRUE(responses[w].reconstruction.allclose(
        warm_response.reconstruction, 0.0f));
  }
  // The herd collapsed onto exactly one cold-tier read.
  EXPECT_EQ(fleet.cold_store().loads(), 1u);
  EXPECT_EQ(fleet.stats().cold_wakes, 1u);
}

TEST(FleetTest, ReplicatesSnapshotsToFollowerWithDeltas) {
  FleetConfig cfg = tiny_fleet(fresh_dir("replication"));
  EdgeFleet fleet(cfg);
  const ClusterId id = 4;
  fleet.register_tenant(id);
  fleet.start();
  fleet.warm(id);

  const std::uint32_t owner = fleet.owner_of(id);
  const std::size_t follower = (owner + 1) % fleet.cell_count();
  const SnapshotImage standby_v1 = fleet.replicated_image(follower, id);
  ASSERT_FALSE(standby_v1.empty()) << "activation publish must replicate";
  EXPECT_EQ(standby_v1.version, 1u);
  EXPECT_GE(fleet.stats().full_ships, 1u);

  // Re-publish the same weights at a later version: the tenant's system is
  // seeded deterministically from (template seed, id), so an identical
  // twin produces a bitwise-identical image — the delta must carry zero
  // blobs and the follower must keep aliasing every standby blob.
  core::SystemConfig twin_cfg = cfg.system;
  twin_cfg.orco.seed = HashRing::mix(twin_cfg.orco.seed ^ id);
  core::OrcoDcsSystem twin(twin_cfg);
  auto snapshot = std::make_shared<train::ModelSnapshot>();
  snapshot->version = 5;
  snapshot->decoder =
      std::shared_ptr<const nn::Sequential>(twin.export_decoder_clone());
  snapshot->latent_dim = kLatentDim;
  snapshot->output_dim = kInputDim;
  const std::uint64_t deltas_before = fleet.stats().deltas_shipped;
  fleet.cell_registry(owner)->publish(id, std::move(snapshot));

  const SnapshotImage standby_v5 = fleet.replicated_image(follower, id);
  EXPECT_EQ(standby_v5.version, 5u);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.deltas_shipped, deltas_before + 1);
  EXPECT_EQ(stats.delta_bytes, 0u) << "identical weights must ship no bytes";
  ASSERT_EQ(standby_v5.params.size(), standby_v1.params.size());
  for (std::size_t i = 0; i < standby_v5.params.size(); ++i) {
    EXPECT_EQ(standby_v5.params[i].bytes.get(), standby_v1.params[i].bytes.get())
        << "unchanged standby blob " << i << " was re-copied";
  }
}

TEST(FleetTest, TrainedFleetServesOneCoherentVersionPerRequest) {
  FleetConfig cfg = tiny_fleet(fresh_dir("trained"));
  cfg.trainer_threads = 1;
  cfg.trainer.queue_capacity = 4;
  EdgeFleet fleet(cfg);
  const ClusterId id = 9;
  fleet.register_tenant(id);
  fleet.start();
  fleet.warm(id);

  train::TrainerRuntime* trainer = fleet.cell_trainer(fleet.owner_of(id));
  ASSERT_NE(trainer, nullptr);
  auto job = trainer->submit_job(id, tiny_dataset(32, 3), /*epochs=*/1);

  common::Pcg32 rng(13);
  std::vector<std::future<DecodeResponse>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(fleet.submit(id, Tensor::uniform({1, kLatentDim}, rng)));
  }
  std::uint64_t max_version = 0;
  for (auto& future : futures) {
    const DecodeResponse response = future.get();
    ASSERT_TRUE(response.status == ResponseStatus::kOk ||
                response.status == ResponseStatus::kShed)
        << to_string(response.status);
    if (response.status == ResponseStatus::kOk) {
      EXPECT_GE(response.model_version, 1u);
      max_version = std::max(max_version, response.model_version);
    }
  }
  const train::TrainResult result = job.get();
  EXPECT_EQ(result.outcome, train::JobOutcome::kCompleted);
  EXPECT_GT(result.published_version, 1u);

  // Post-training traffic serves the published generation (monotonic).
  const DecodeResponse after = fleet.submit(id, Tensor({1, kLatentDim})).get();
  ASSERT_EQ(after.status, ResponseStatus::kOk);
  EXPECT_GE(after.model_version, max_version);
  EXPECT_GE(after.model_version, result.published_version);

  // Demotion persists the trained generation; reactivation resumes it.
  ASSERT_TRUE(fleet.demote(id));
  const DecodeResponse woken = fleet.submit(id, Tensor({1, kLatentDim})).get();
  ASSERT_EQ(woken.status, ResponseStatus::kOk);
  EXPECT_GE(woken.model_version, result.published_version);
}

// ---- unregister paths the fleet's demotion depends on -----------------------

TEST(ServerRuntimeTest, UnregisterClusterReclaimsTenant) {
  serve::ServeConfig cfg;
  cfg.shard_count = 2;
  serve::ServerRuntime runtime(cfg);
  auto system = std::make_shared<core::OrcoDcsSystem>(tiny_system());
  runtime.register_cluster(1, system);
  runtime.start();
  EXPECT_EQ(runtime.submit(1, Tensor({1, kLatentDim})).get().status,
            ResponseStatus::kOk);
  EXPECT_TRUE(runtime.unregister_cluster(1));
  EXPECT_EQ(runtime.submit(1, Tensor({1, kLatentDim})).get().status,
            ResponseStatus::kUnknownCluster);
  EXPECT_FALSE(runtime.unregister_cluster(1));
  // Re-registration after unregister works (the fleet's rewake path).
  runtime.register_cluster(1, system);
  EXPECT_EQ(runtime.submit(1, Tensor({1, kLatentDim})).get().status,
            ResponseStatus::kOk);
  runtime.shutdown();
}

TEST(TrainerRuntimeTest, UnregisterRefusedWhileTenantBusy) {
  train::TrainerConfig cfg;
  cfg.worker_threads = 1;
  train::TrainerRuntime trainer(cfg);
  auto system = std::make_shared<core::OrcoDcsSystem>(tiny_system());
  trainer.register_tenant(1, system);

  // Queued (runtime not started): the tenant is not quiescent.
  auto job = trainer.submit_job(1, tiny_dataset(32, 11), /*epochs=*/1);
  EXPECT_FALSE(trainer.unregister_tenant(1));

  trainer.start();
  EXPECT_EQ(job.get().outcome, train::JobOutcome::kCompleted);
  // The worker decrements its active-job mark just after resolving the
  // future; spin briefly until the tenant reads as quiescent.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5 * kDeadlineStretch);
  bool removed = false;
  while (!removed && std::chrono::steady_clock::now() < deadline) {
    removed = trainer.unregister_tenant(1);
    if (!removed) std::this_thread::yield();
  }
  EXPECT_TRUE(removed);
  EXPECT_FALSE(trainer.unregister_tenant(1));  // already gone
  EXPECT_EQ(trainer.submit_job(1, tiny_dataset(32, 12)).get().outcome,
            train::JobOutcome::kRejected);
  trainer.shutdown();
}

}  // namespace
}  // namespace orco::fleet
