// Shared harness pieces: the metric list a workload fills in, the JSON
// result line, process/host counters, and the tenant model every serving
// workload uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/orcodcs.h"
#include "tensor/tensor.h"

namespace perfbench {

using orco::tensor::Tensor;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// An ordered name -> (value, unit) list, printed as a JSON object.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// What one benchmark run reports. `metrics` are the end-to-end metrics
/// under the benchmark's shared names; `detail` repeats them under their
/// workload-specific names; `per_layer` is filled only by a traced run.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  // empty when every check passed
  Metrics metrics;
  Metrics detail;
  Metrics per_layer;

  void fail_check(std::string what) { check_failures.push_back(std::move(what)); }
};

/// Microseconds on the steady clock since an arbitrary process-wide origin.
inline double now_us() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

/// Process CPU time, context switches, and the host's steal/total jiffies
/// at one instant (getrusage + /proc/stat); differences of two samples
/// give per-window figures.
struct ProcSample {
  double cpu_ms = 0.0;
  double ctx_switches = 0.0;
  double steal_jiffies = 0.0;
  double total_jiffies = 0.0;

  static ProcSample take();
};

/// Share of host CPU time stolen by the hypervisor between two samples.
double steal_share(const ProcSample& a, const ProcSample& b);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Writes `result` as one JSON line on stdout.
void print_result(const std::string& workload, std::uint64_t seed,
                  bool traced, const Result& result);

// -- tenants ------------------------------------------------------------------

/// The MNIST-like tenant every serving workload uses: latent 128, a
/// 3-layer decoder on the simd backend, its own orco seed.
orco::core::SystemConfig tenant_config(std::uint64_t orco_seed);

/// A tenant's decoder plus its uplink traffic: latents made by encoding
/// synthetic sensor images through the tenant's own encoder, and the
/// offline decode of each latent that sampled responses are checked
/// against.
struct Tenant {
  std::uint64_t id = 0;
  std::shared_ptr<orco::core::OrcoDcsSystem> system;
  std::vector<Tensor> latents;  // each (latent_dim)
  Tensor reference;             // (latents, input_dim)
};

Tenant make_tenant(std::uint64_t id, std::uint64_t seed, std::size_t latents);

/// Largest |a - b| over two equally sized float spans; infinity when the
/// sizes differ.
double max_abs_diff(const Tensor& a, std::span<const float> b);

}  // namespace perfbench
