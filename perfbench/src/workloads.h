// The four benchmark workloads and the layer probes a traced run adds.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataloader.h"
#include "data/dataset.h"
#include "harness.h"
#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time of the run
  bool traced = false;    // also fill Result::per_layer
};

/// Open-loop Poisson uplink over 16 single-reading tenants: a ladder of
/// fixed rates with named steps lo and hi, and the highest rate meeting
/// the SLO.
Result run_uplink_sparse(const RunOptions& options);

/// Closed loop: 6 tenants, 2 per shard, take turns sending 32-latent
/// aggregation rounds, one round in flight at a time.
Result run_uplink_rounds(const RunOptions& options);

/// The uplink_sparse lo step while a background TrainerRuntime fine-tunes
/// the tenants round-robin and hot-swaps their snapshots.
Result run_serve_finetune(const RunOptions& options);

/// §III-B orchestrated training of one cluster, one Orchestrator::
/// train_round per batch.
Result run_train_online(const RunOptions& options);

/// The train_online task: one cluster's system and the paper's
/// MNIST-like data, loaded in batches of 64.
constexpr std::size_t kTrainSamples = 2000;
constexpr std::size_t kTestSamples = 400;
constexpr std::size_t kTrainBatch = 64;
/// A train_online run trains a fixed number of epochs, this many per
/// second of --seconds. Fixed work, not a time limit: a round slows about
/// 2x once the model has converged (around epoch 22 on this task), so a
/// time limit would let host speed change what is measured. At 1.5 the
/// run stays mostly before that point: the median round is a fast one and
/// the tail a slow one, both far from the switch.
constexpr double kEpochsPerSecond = 1.5;

struct TrainSetup {
  std::unique_ptr<orco::core::OrcoDcsSystem> system;
  orco::data::Dataset train, test;
  std::unique_ptr<orco::data::DataLoader> loader;  // over `train`
};

/// Builds the task for a run seed; two calls with one seed give systems
/// that train bit for bit alike.
std::unique_ptr<TrainSetup> make_train_setup(std::uint64_t seed);

/// The traced run's per-layer probes of nn, tensor and core+wsn. They run
/// the same on every workload, so every traced run reports every layer.
void add_layer_probes(const RunOptions& options, Result& result);

/// Set-ups per run. Every workload sets up this many times, reports the
/// median as setup_s and measures on the last one, so work moved into
/// set-up shows without one slow start dominating.
constexpr int kSetupRepeats = 5;

/// Runs `make` kSetupRepeats times into `s` (dropping the previous set-up
/// first) and returns the median set-up time in seconds.
template <class T, class Make>
double timed_setups(std::unique_ptr<T>& s, Make&& make) {
  std::vector<double> secs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s.reset();
    const double t0 = now_us();
    s = make();
    secs.push_back((now_us() - t0) / 1e6);
  }
  return median(secs);
}

}  // namespace perfbench
