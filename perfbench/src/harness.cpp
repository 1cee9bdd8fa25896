#include "harness.h"

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "data/synthetic_mnist.h"
#include "tensor/backend.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

ProcSample ProcSample::take() {
  ProcSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_ms = (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)) *
                 1e3 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                 1e3;
  s.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  // First line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal guest guest_nice" in jiffies; guest time is already
  // counted inside user/nice.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  if (stat >> cpu && cpu == "cpu") {
    for (double& f : fields) stat >> f;
    for (double f : fields) s.total_jiffies += f;
    s.steal_jiffies = fields[7];
  }
  return s;
}

double steal_share(const ProcSample& a, const ProcSample& b) {
  const double total = b.total_jiffies - a.total_jiffies;
  return total > 0.0 ? (b.steal_jiffies - a.steal_jiffies) / total : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_metrics(const Metrics& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.items().size(); ++i) {
    const Metric& x = m.items()[i];
    if (i > 0) out += ", ";
    out += json_string(x.name) + ": {\"value\": " + json_number(x.value) +
           ", \"unit\": " + json_string(x.unit) + "}";
  }
  return out + "}";
}

}  // namespace

void print_result(const std::string& workload, std::uint64_t seed,
                  bool traced, const Result& result) {
  std::string checks = "[";
  for (std::size_t i = 0; i < result.check_failures.size(); ++i) {
    if (i > 0) checks += ", ";
    checks += json_string(result.check_failures[i]);
  }
  checks += "]";
  std::ostringstream os;
  os << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
     << ", \"trace\": " << (traced ? 1 : 0)
     << ", \"correct\": " << (result.check_failures.empty() ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"check_failures\": " << checks
     << ", \"build\": {\"simd_isa\": "
     << json_string(orco::tensor::simd_isa())
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE) << "}"
     << ", \"metrics\": " << json_metrics(result.metrics)
     << ", \"detail\": " << json_metrics(result.detail)
     << ", \"per_layer\": " << json_metrics(result.per_layer) << "}";
  std::cout << os.str() << std::endl;
}

orco::core::SystemConfig tenant_config(std::uint64_t orco_seed) {
  orco::core::SystemConfig cfg;
  cfg.orco.input_dim = 784;
  cfg.orco.latent_dim = 128;
  cfg.orco.decoder_layers = 3;
  cfg.orco.batch_size = 64;
  cfg.orco.noise_variance = 0.01f;
  cfg.orco.backend = "simd";
  cfg.orco.seed = orco_seed;
  cfg.field.device_count = 24;
  cfg.field.radio_range_m = 45.0;
  return cfg;
}

Tenant make_tenant(std::uint64_t id, std::uint64_t seed, std::size_t latents) {
  Tenant t;
  t.id = id;
  t.system = std::make_shared<orco::core::OrcoDcsSystem>(
      tenant_config(seed * 7919 + id));
  orco::data::MnistConfig images;
  images.count = latents;
  images.seed = seed * 104729 + id;
  const Tensor encoded =
      t.system->aggregator().encode_inference(
          orco::data::make_synthetic_mnist(images).images());
  t.reference = t.system->edge().decode_inference(encoded);
  t.latents.reserve(latents);
  for (std::size_t i = 0; i < latents; ++i) {
    t.latents.push_back(encoded.row_copy(i));
  }
  return t;
}

double max_abs_diff(const Tensor& a, std::span<const float> b) {
  if (a.numel() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  const auto av = a.data();
  for (std::size_t i = 0; i < b.size(); ++i) {
    worst = std::max(worst, static_cast<double>(std::fabs(av[i] - b[i])));
  }
  return worst;
}

}  // namespace perfbench
