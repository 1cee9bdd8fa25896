// The serving workloads: uplink_sparse (open-loop ladder), uplink_rounds
// (closed loop of 32-latent rounds) and serve_finetune (the sparse lo step
// beside a background TrainerRuntime).
//
// The load generator is two threads: the calling thread submits, one
// collector thread drains the futures in submission order. Latency is
// computed per request as (submit return - due time) + the server's own
// enqueue-to-answer latency (DecodeResponse::latency_us), so the
// collector's in-order draining never adds head-of-line delay to a
// request that was answered early.
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "data/synthetic_mnist.h"
#include "serve/serve.h"
#include "stats.h"
#include "train/train.h"
#include "workloads.h"

namespace perfbench {
namespace {

using orco::serve::DecodeResponse;
using orco::serve::ResponseStatus;
using orco::serve::ServerRuntime;
using orco::serve::Telemetry;

constexpr std::size_t kShards = 3;
constexpr std::size_t kMaxBatch = 32;
constexpr std::size_t kLatentsPerTenant = 64;
constexpr std::size_t kSparseTenants = 16;
constexpr std::size_t kRoundTenants = 6;  // 2 per shard
constexpr std::size_t kRoundLatents = 32;
constexpr std::size_t kFinetuneImages = 128;  // 2 rounds of batch 64 per job
// serve_finetune measures in this many consecutive chunks (see
// least_stolen).
constexpr std::size_t kFinetuneChunks = 10;
// Every kCheckEvery-th response is compared with the offline decode of
// the same latent.
constexpr std::size_t kCheckEvery = 8;
constexpr double kCheckTolerance = 1e-5;
// SLO of the open-loop ladder.
constexpr double kP99LimitUs = 5000.0;
constexpr double kMaxFailRatio = 0.001;
// uplink_rounds counts its rounds in this many equal time slices.
constexpr std::size_t kSlices = 16;

/// One rung of the open-loop ladder; `share` is its fraction of the run.
struct LadderStep {
  const char* name;
  double rate_rps;
  double share;
};
// Ascending fixed rates. lo and hi are the named steps. lo runs longest
// because its percentiles are the gated latency metrics; it sits well
// below the knee, where latency tracks the serve path rather than host
// noise amplified by a near-full queue. The rungs above reach past the
// rate where p99 crosses the SLO, so slo_rate can be read off them.
constexpr std::array<LadderStep, 10> kLadder = {{
    {"lo", 2500.0, 0.46},
    {"5k", 5000.0, 0.06},
    {"hi", 10000.0, 0.06},
    {"15k", 15000.0, 0.06},
    {"20k", 20000.0, 0.06},
    {"25k", 25000.0, 0.06},
    {"30k", 30000.0, 0.06},
    {"35k", 35000.0, 0.06},
    {"40k", 40000.0, 0.06},
    {"45k", 45000.0, 0.06},
}};

struct SteadyClock {
  double now_us() const { return perfbench::now_us(); }
  void sleep_until_us(double t) const {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(t - perfbench::now_us()));
  }
};

/// Time stamps of snapshot publishes, from the registry's publish hook.
struct PublishLog {
  std::mutex mu;
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> at_us;  // (tenant, version)
};

struct ServeSetup {
  std::vector<Tenant> tenants;
  std::vector<orco::data::Dataset> finetune_data;  // serve_finetune only
  PublishLog publishes;
  std::unique_ptr<orco::train::TrainerRuntime> trainer;  // serve_finetune only
  std::unique_ptr<ServerRuntime> runtime;  // declared last: stops first
};

/// `count` tenant ids, the i-th of which routes to shard i % shards under
/// the runtime's own shard_of, so load is spread evenly.
std::vector<std::uint64_t> balanced_ids(const ServerRuntime& runtime,
                                        std::size_t count,
                                        std::uint64_t seed) {
  std::vector<std::uint64_t> ids;
  std::uint64_t next = seed * 1000;
  for (std::size_t i = 0; i < count; ++i) {
    while (runtime.shard_of(next) != i % runtime.shard_count()) ++next;
    ids.push_back(next++);
  }
  return ids;
}

std::unique_ptr<ServeSetup> make_setup(std::size_t tenants,
                                       std::uint64_t seed, bool finetune) {
  auto s = std::make_unique<ServeSetup>();
  orco::serve::ServeConfig cfg;
  cfg.shard_count = kShards;
  cfg.queue.capacity = 1 << 16;  // overload rungs queue, never shed
  cfg.queue.max_batch = kMaxBatch;
  cfg.backend = "simd";
  if (finetune) {
    orco::train::TrainerConfig tcfg;
    tcfg.worker_threads = 1;
    tcfg.serve_backend = "simd";
    s->trainer = std::make_unique<orco::train::TrainerRuntime>(tcfg);
    PublishLog* log = &s->publishes;
    s->trainer->registry()->set_publish_hook(
        [log](std::uint64_t tenant,
              const std::shared_ptr<const orco::train::ModelSnapshot>& snap) {
          const double t = now_us();
          std::lock_guard<std::mutex> lock(log->mu);
          log->at_us[{tenant, snap->version}] = t;
        });
    cfg.model_registry = s->trainer->registry();
  }
  s->runtime = std::make_unique<ServerRuntime>(cfg);
  for (std::uint64_t id : balanced_ids(*s->runtime, tenants, seed)) {
    s->tenants.push_back(make_tenant(id, seed, kLatentsPerTenant));
    Tenant& t = s->tenants.back();
    if (s->trainer) {
      orco::data::MnistConfig images;
      images.count = kFinetuneImages;
      images.seed = seed * 31 + id;
      s->finetune_data.push_back(orco::data::make_synthetic_mnist(images));
      s->trainer->register_tenant(id, t.system);
    }
    s->runtime->register_cluster(id, t.system);
  }
  s->runtime->start();
  if (s->trainer) s->trainer->start();
  // Warm-up: one full batch and one single request per tenant, so plans
  // are compiled and inference contexts have grown before timing.
  std::vector<std::future<DecodeResponse>> warm;
  for (const Tenant& t : s->tenants) {
    for (std::size_t i = 0; i < kMaxBatch; ++i) {
      warm.push_back(s->runtime->submit(t.id, t.latents[i]));
    }
  }
  for (auto& f : warm) f.get();
  for (const Tenant& t : s->tenants) {
    s->runtime->submit(t.id, t.latents[0]).get();
  }
  return s;
}

/// Drains futures in submission order on its own thread, handing each
/// answer and its sequence number to `on_answer`. With `poll`, it checks
/// for answers every kPollUs instead of blocking on each one: a blocked
/// get() costs a wake-up per answer, and those switches compete with the
/// shard workers for cores. The open loop polls, since its latencies come
/// from the server's own stamps; the closed loop blocks, since the next
/// round waits for the collector.
class Collector {
 public:
  using OnAnswer = std::function<void(std::size_t, DecodeResponse&)>;

  Collector(bool poll, OnAnswer on_answer)
      : poll_(poll),
        on_answer_(std::move(on_answer)),
        thread_([this] { loop(); }) {}
  ~Collector() { finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(std::future<DecodeResponse> f) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(f));
    }
    cv_.notify_one();
  }

  /// No more pushes; returns once every pushed future was drained.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    for (std::size_t seq = 0;; ++seq) {
      std::future<DecodeResponse> f;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        f = std::move(queue_.front());
        queue_.pop_front();
      }
      while (poll_ && f.wait_for(std::chrono::seconds(0)) !=
                          std::future_status::ready) {
        std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
      }
      DecodeResponse r = f.get();
      on_answer_(seq, r);
    }
  }

  static constexpr int kPollUs = 500;

  const bool poll_;
  OnAnswer on_answer_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::future<DecodeResponse>> queue_;
  bool closed_ = false;
  std::thread thread_;  // declared last: starts after the members it uses
};

/// Serve counters at one instant; differences of two readings give a
/// measured stretch's share.
struct ServeCounters {
  std::array<double, Telemetry::kStageCount> stage_us{};
  std::array<double, Telemetry::kStageCount> stage_requests{};
  double batches = 0.0;
  double swaps = 0.0;
  double cpu_ms = 0.0;
  double ctx_switches = 0.0;
  double steal_jiffies = 0.0;
  double total_jiffies = 0.0;

  static ServeCounters read(const ServeSetup& s) {
    ServeCounters c;
    const Telemetry& tel = s.runtime->telemetry();
    for (const Tenant& t : s.tenants) {
      const auto stages = tel.stage_snapshot(t.id);
      for (std::size_t i = 0; i < Telemetry::kStageCount; ++i) {
        c.stage_us[i] += static_cast<double>(stages[i].us);
        c.stage_requests[i] += static_cast<double>(stages[i].requests);
      }
      c.swaps += static_cast<double>(tel.tenant_snapshot(t.id).model_swaps);
    }
    c.batches = static_cast<double>(tel.snapshot().batches);
    const ProcSample p = ProcSample::take();
    c.cpu_ms = p.cpu_ms;
    c.ctx_switches = p.ctx_switches;
    c.steal_jiffies = p.steal_jiffies;
    c.total_jiffies = p.total_jiffies;
    return c;
  }

  /// this += (after - before)
  void add_delta(const ServeCounters& before, const ServeCounters& after) {
    for (std::size_t i = 0; i < Telemetry::kStageCount; ++i) {
      stage_us[i] += after.stage_us[i] - before.stage_us[i];
      stage_requests[i] += after.stage_requests[i] - before.stage_requests[i];
    }
    batches += after.batches - before.batches;
    swaps += after.swaps - before.swaps;
    cpu_ms += after.cpu_ms - before.cpu_ms;
    ctx_switches += after.ctx_switches - before.ctx_switches;
    steal_jiffies += after.steal_jiffies - before.steal_jiffies;
    total_jiffies += after.total_jiffies - before.total_jiffies;
  }

  /// Share of host CPU time the hypervisor stole over the counted span.
  double steal_share() const {
    return total_jiffies > 0.0 ? steal_jiffies / total_jiffies : 0.0;
  }
};

/// What a measured stretch of serving produced: per-request counts and
/// sums, samples in submission order, and the counters it moved.
/// Stretches of one step concatenate (uplink_sparse runs lo in chunks
/// spread over the ladder).
struct Stretch {
  double requests = 0.0;
  double e2e_sum = 0.0, late_sum = 0.0, submit_sum = 0.0;
  std::vector<double> e2e_us, late_us, submit_us;  // the kept samples
  std::uint64_t failed = 0;
  double in_full_batches = 0.0;  // requests answered from a full batch
  std::array<double, kShards> shard_requests{};
  ServeCounters counters;  // deltas over the stretch
  std::vector<std::string> check_failures;

  /// Records one answered request; `keep` also keeps its samples.
  void add(const ServeSetup& s, std::size_t tenant, double e2e, double late,
           double submit, std::size_t batch_size, bool ok, bool keep = true) {
    requests += 1.0;
    e2e_sum += e2e;
    late_sum += late;
    submit_sum += submit;
    if (keep) {
      e2e_us.push_back(e2e);
      late_us.push_back(late);
      submit_us.push_back(submit);
    }
    if (!ok) ++failed;
    if (batch_size >= kMaxBatch) in_full_batches += 1.0;
    shard_requests[s.runtime->shard_of(s.tenants[tenant].id)] += 1.0;
  }

  void append(const Stretch& o) {
    requests += o.requests;
    e2e_sum += o.e2e_sum;
    late_sum += o.late_sum;
    submit_sum += o.submit_sum;
    e2e_us.insert(e2e_us.end(), o.e2e_us.begin(), o.e2e_us.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    submit_us.insert(submit_us.end(), o.submit_us.begin(), o.submit_us.end());
    failed += o.failed;
    in_full_batches += o.in_full_batches;
    for (std::size_t i = 0; i < kShards; ++i) {
      shard_requests[i] += o.shard_requests[i];
    }
    counters.add_delta(ServeCounters{}, o.counters);
    check_failures.insert(check_failures.end(), o.check_failures.begin(),
                          o.check_failures.end());
  }
};

/// Concatenates, in time order, the `keep` chunks the host stole least
/// from. A steal episode on this class of VM (10-30% of the host's time
/// for a minute or more) triples tail latency and raises the median by a
/// third; chunks spread over the run let the reported latency come from
/// the stretches the hypervisor left alone, while a slower program is
/// slower in every chunk.
Stretch least_stolen(const std::vector<Stretch>& chunks, std::size_t keep) {
  std::vector<std::size_t> order(chunks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return chunks[a].counters.steal_share() < chunks[b].counters.steal_share();
  });
  order.resize(std::min(keep, order.size()));
  std::sort(order.begin(), order.end());
  Stretch out;
  for (std::size_t i : order) out.append(chunks[i]);
  return out;
}

/// Checks one answer: its status, and every kCheckEvery-th answer's values
/// against the offline decode of the same latent. Returns whether it
/// counts as served correctly.
bool check_answer(const ServeSetup& s, std::size_t tenant, std::size_t latent,
                  std::size_t seq, bool check_values, const DecodeResponse& r,
                  std::vector<std::string>& failures) {
  const auto note = [&](std::string what) {
    if (failures.size() < 8) failures.push_back(std::move(what));
  };
  if (r.status != ResponseStatus::kOk) {
    note(std::string("request answered ") + orco::serve::to_string(r.status));
    return false;
  }
  if (check_values && seq % kCheckEvery == 0) {
    const Tenant& t = s.tenants[tenant];
    const double diff = max_abs_diff(r.reconstruction, t.reference.row(latent));
    if (!(diff <= kCheckTolerance)) {
      note("decode of tenant " + std::to_string(t.id) +
           " differs from the offline decode by " + std::to_string(diff));
      return false;
    }
  }
  return true;
}

/// One served request of an open-loop window, kept for checks that need
/// the submit time (done after the window, when every stamp is written).
struct OpenAnswer {
  std::size_t tenant = 0;
  double server_us = 0.0;
  std::size_t batch_size = 0;
  std::uint64_t version = 0;
  bool ok = false;
};

/// One open-loop window: Poisson arrivals at `rate_rps` for `seconds`,
/// uniform over tenants and their latents. `on_answer` runs on the
/// collector after each answer. Returns the window's stretch; `answers`
/// (when not null) receives every answer in submission order with its
/// timing.
Stretch run_open_window(ServeSetup& s, double rate_rps, double seconds,
                        orco::common::Pcg32& rng, bool check_values,
                        const std::function<void(std::size_t)>& on_answer,
                        std::vector<std::pair<RequestTiming, OpenAnswer>>*
                            answers = nullptr) {
  struct Arrival {
    std::size_t tenant, latent;
  };
  std::vector<double> due;  // offsets from the start, then absolute
  std::vector<Arrival> arrivals;
  for (double t = 0.0;;) {
    const double u = (static_cast<double>(rng.next()) + 0.5) / 4294967296.0;
    t += -std::log(u) / rate_rps * 1e6;
    if (t >= seconds * 1e6) break;
    due.push_back(t);
    arrivals.push_back({rng.next() % s.tenants.size(),
                        rng.next() % kLatentsPerTenant});
  }

  Stretch out;
  std::vector<OpenAnswer> got(due.size());
  std::vector<RequestTiming> timing;
  const ServeCounters before = ServeCounters::read(s);
  {
    Collector collector(/*poll=*/true, [&](std::size_t seq, DecodeResponse& r) {
      OpenAnswer& a = got[seq];
      a.tenant = arrivals[seq].tenant;
      a.server_us = r.latency_us;
      a.batch_size = r.batch_size;
      a.version = r.model_version;
      a.ok = check_answer(s, a.tenant, arrivals[seq].latent, seq, check_values,
                          r, out.check_failures);
      if (on_answer) on_answer(seq);
    });
    const double start = now_us() + 1000.0;
    for (double& t : due) t += start;
    SteadyClock clock;
    timing = pace_open_loop(due, clock, [&](std::size_t i) {
      const Tenant& t = s.tenants[arrivals[i].tenant];
      collector.push(s.runtime->submit(t.id, t.latents[arrivals[i].latent]));
    });
    collector.finish();
  }
  out.counters.add_delta(before, ServeCounters::read(s));
  for (std::size_t i = 0; i < got.size(); ++i) {
    out.add(s, got[i].tenant, timing[i].e2e_us(got[i].server_us),
            timing[i].lateness_us(), timing[i].submit_us(), got[i].batch_size,
            got[i].ok);
    if (answers != nullptr) answers->emplace_back(timing[i], got[i]);
  }
  return out;
}

/// The serve-layer breakdown of a stretch. Stage figures are per request:
/// queue wait is recorded per request; assembly, decode and respond are
/// batch spans every request of the batch waits through, so they are
/// averaged per batch. Whatever the stages and the generator do not cover
/// is serve.unattributed_us: serve.e2e_mean_us = gen.late_mean_us +
/// serve.submit_us.mean + the four stages + serve.unattributed_us.
void add_serve_layers(const Stretch& st, Metrics& m) {
  const ServeCounters& c = st.counters;
  const double n = std::max(1.0, st.requests);
  const double batches = std::max(1.0, c.batches);
  const double queue_wait = c.stage_us[0] / std::max(1.0, c.stage_requests[0]);
  const double assembly = c.stage_us[1] / batches;
  const double decode = c.stage_us[2] / batches;
  const double respond = c.stage_us[3] / batches;
  const double e2e = st.e2e_sum / n;
  const double late = st.late_sum / n;
  const double submit = st.submit_sum / n;
  m.add("serve.e2e_mean_us", e2e, "us");
  m.add("gen.late_mean_us", late, "us");
  m.add("serve.submit_us.mean", submit, "us");
  m.add("serve.submit_us.p50", percentile(st.submit_us, 50), "us");
  m.add("serve.submit_us.p99", percentile(st.submit_us, 99), "us");
  m.add("serve.queue_wait_us", queue_wait, "us");
  m.add("serve.assembly_us", assembly, "us");
  m.add("serve.decode_us", decode, "us");
  m.add("serve.respond_us", respond, "us");
  m.add("serve.unattributed_us",
        e2e - (late + submit + queue_wait + assembly + decode + respond), "us");
  m.add("serve.batch_size.mean", c.stage_requests[2] / batches, "count");
  m.add("serve.batch_full_share", st.in_full_batches / n, "share");
  m.add("serve.shard_share.max",
        *std::max_element(st.shard_requests.begin(), st.shard_requests.end()) /
            n,
        "share");
  m.add("gen.late_p99_us", percentile(st.late_us, 99), "us");
  m.add("proc.cpu_ms_per_kreq", c.cpu_ms / n * 1000.0, "ms");
  m.add("proc.ctx_switches_per_req", c.ctx_switches / n, "count");
}

void add_common(Result& r, double setup_s, double steal) {
  r.detail.add("setup_s", setup_s, "s");
  r.detail.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.detail.add("fail_ratio",
               r.attempted > 0 ? static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted)
                               : 0.0,
               "share");
  r.detail.add("host.steal_share", steal, "share");
}

void absorb(Result& r, const Stretch& st) {
  r.attempted += static_cast<std::uint64_t>(st.requests);
  r.failed += st.failed;
  for (const auto& f : st.check_failures) r.fail_check(f);
}

}  // namespace

Result run_uplink_sparse(const RunOptions& o) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // precise arrival sleeps
  Result r;
  std::unique_ptr<ServeSetup> s;
  const double setup_s = timed_setups(
      s, [&] { return make_setup(kSparseTenants, o.seed, false); });
  orco::common::Pcg32 rng(o.seed, 0x5a5a);
  const ProcSample p0 = ProcSample::take();

  // lo runs in one chunk before each higher rung, so its samples spread
  // over the whole run instead of one stretch of host weather.
  const LadderStep& lo = kLadder.front();
  const double lo_chunk_s =
      o.seconds * lo.share / static_cast<double>(kLadder.size() - 1);
  std::vector<Stretch> lo_chunks;
  std::vector<StepOutcome> outcomes;
  double hi_p50 = 0.0, hi_p99 = 0.0;
  for (std::size_t i = 1; i < kLadder.size(); ++i) {
    lo_chunks.push_back(run_open_window(*s, lo.rate_rps, lo_chunk_s, rng,
                                        /*check_values=*/true, nullptr));
    absorb(r, lo_chunks.back());

    const LadderStep& step = kLadder[i];
    const Stretch st = run_open_window(*s, step.rate_rps,
                                       o.seconds * step.share, rng,
                                       /*check_values=*/true, nullptr);
    absorb(r, st);
    StepOutcome out;
    out.rate_rps = step.rate_rps;
    out.p99_us = quiet_of(st.e2e_us, 99);
    out.fail_ratio = static_cast<double>(st.failed) /
                     std::max(1.0, st.requests);
    out.backlog_growing = backlog_growing(st.e2e_us);
    outcomes.push_back(out);
    r.detail.add(std::string("ladder.") + step.name + ".p99_us", out.p99_us,
                 "us");
    if (std::string(step.name) == "hi") {
      hi_p50 = quiet_of(st.e2e_us, 50);
      hi_p99 = out.p99_us;
    }
  }
  const ProcSample p1 = ProcSample::take();
  const Stretch lo_all = least_stolen(lo_chunks, (lo_chunks.size() + 1) / 2);
  const double lo_p50 = quiet_of(lo_all.e2e_us, 50);
  const double lo_p99 = quiet_of(lo_all.e2e_us, 99);
  StepOutcome lo_out;
  lo_out.rate_rps = lo.rate_rps;
  lo_out.p99_us = lo_p99;
  lo_out.fail_ratio = static_cast<double>(lo_all.failed) /
                      std::max(1.0, lo_all.requests);
  outcomes.insert(outcomes.begin(), lo_out);
  r.detail.add("lat_p50_us.lo", lo_p50, "us");
  r.detail.add("lat_p99_us.lo", lo_p99, "us");
  r.detail.add("lat_p50_us.hi", hi_p50, "us");
  r.detail.add("lat_p99_us.hi", hi_p99, "us");
  r.detail.add("slo_rate_rps", slo_rate(outcomes, kP99LimitUs, kMaxFailRatio),
               "1/s");
  add_common(r, setup_s, steal_share(p0, p1));
  r.detail.add("host.steal_share.lo_kept", lo_all.counters.steal_share(),
               "share");
  r.metrics.add("p50_us", lo_p50, "us");
  r.metrics.add("p99_us", lo_p99, "us");
  if (o.traced) {
    add_serve_layers(lo_all, r.per_layer);
    r.per_layer.add("host.steal_share", steal_share(p0, p1), "share");
  }
  return r;
}

Result run_serve_finetune(const RunOptions& o) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Result r;
  std::unique_ptr<ServeSetup> s;
  const double setup_s = timed_setups(
      s, [&] { return make_setup(kSparseTenants, o.seed, true); });
  orco::common::Pcg32 rng(o.seed, 0xf1e7);
  auto& trainer = *s->trainer;
  const auto stats0 = trainer.stats();

  // Round-robin fine-tuning: one job in flight, the next tenant's job is
  // queued as soon as the previous one resolves (checked by the
  // collector, off the submit path).
  std::size_t next_job = 0;
  std::future<orco::train::TrainResult> job;
  const auto submit_next = [&] {
    const std::size_t t = next_job++ % s->tenants.size();
    job = trainer.submit_job(s->tenants[t].id, s->finetune_data[t], 1);
  };
  submit_next();
  std::uint64_t jobs_failed = 0;
  const ProcSample p0 = ProcSample::take();
  const double t0 = now_us();
  std::vector<std::pair<RequestTiming, OpenAnswer>> answers;
  std::vector<Stretch> chunks;
  for (std::size_t c = 0; c < kFinetuneChunks; ++c) {
    chunks.push_back(run_open_window(
        *s, kLadder.front().rate_rps,
        o.seconds / static_cast<double>(kFinetuneChunks), rng,
        /*check_values=*/false,
        [&](std::size_t seq) {
          if (seq % 32 == 0 && job.wait_for(std::chrono::seconds(0)) ==
                                   std::future_status::ready) {
            if (job.get().outcome != orco::train::JobOutcome::kCompleted) {
              ++jobs_failed;
            }
            submit_next();
          }
        },
        &answers));
    absorb(r, chunks.back());
  }
  const double elapsed_s = (now_us() - t0) / 1e6;
  const auto stats1 = trainer.stats();
  const ProcSample p1 = ProcSample::take();
  // Stop the trainer now, so no publish races the checks or teardown.
  if (job.valid()) job.wait();
  trainer.shutdown();

  // Versions, per tenant in submission order: a served version never
  // decreases and is one the registry published. The first answer
  // carrying a new version gives its swap lag from the publish stamp.
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> published;
  {
    std::lock_guard<std::mutex> lock(s->publishes.mu);
    published = s->publishes.at_us;
  }
  std::vector<std::uint64_t> last(s->tenants.size(), 0);
  std::vector<double> swap_lag;
  for (const auto& [timing, a] : answers) {
    if (!a.ok) continue;
    const std::uint64_t id = s->tenants[a.tenant].id;
    const auto pub = published.find({id, a.version});
    if (a.version < last[a.tenant] || pub == published.end()) {
      r.fail_check("tenant " + std::to_string(id) + " served version " +
                   std::to_string(a.version) + " after " +
                   std::to_string(last[a.tenant]) +
                   (pub == published.end() ? ", never published" : ""));
      ++r.failed;
    } else if (a.version > last[a.tenant] && last[a.tenant] != 0) {
      swap_lag.push_back(timing.submit_end_us + a.server_us - pub->second);
    }
    last[a.tenant] = a.version;
  }
  if (jobs_failed > 0) {
    r.fail_check(std::to_string(jobs_failed) + " fine-tune jobs did not complete");
  }

  const double rounds =
      static_cast<double>(stats1.rounds_run - stats0.rounds_run);
  Stretch all;
  for (const Stretch& c : chunks) all.append(c);
  const Stretch kept = least_stolen(chunks, (chunks.size() + 1) / 2);
  const double lo_p50 = quiet_of(kept.e2e_us, 50);
  const double lo_p99 = quiet_of(kept.e2e_us, 99);
  r.detail.add("lat_p50_us.lo", lo_p50, "us");
  r.detail.add("lat_p99_us.lo", lo_p99, "us");
  r.detail.add("finetune_rounds_per_s", rounds / elapsed_s, "1/s");
  add_common(r, setup_s, steal_share(p0, p1));
  r.detail.add("host.steal_share.lo_kept", kept.counters.steal_share(),
               "share");
  r.metrics.add("p50_us", lo_p50, "us");
  r.metrics.add("p99_us", lo_p99, "us");
  if (o.traced) {
    add_serve_layers(kept, r.per_layer);
    r.per_layer.add("host.steal_share", steal_share(p0, p1), "share");
    r.per_layer.add("train.rounds_run", rounds, "count");
    r.per_layer.add(
        "train.snapshots_published",
        static_cast<double>(stats1.snapshots_published -
                            stats0.snapshots_published),
        "count");
    r.per_layer.add("serve.model_swaps", all.counters.swaps, "count");
    r.per_layer.add("train.swap_lag_us.p50", median(swap_lag), "us");
  }
  return r;
}

Result run_uplink_rounds(const RunOptions& o) {
  Result r;
  std::unique_ptr<ServeSetup> s;
  const double setup_s = timed_setups(
      s, [&] { return make_setup(kRoundTenants, o.seed, false); });
  orco::common::Pcg32 rng(o.seed, 0x40d5);

  // Closed loop: the tenants take turns in a fixed cyclic order, one round
  // of kRoundLatents in flight at a time. The calling thread submits a
  // round once the collector has seen the previous one answered in full.
  // Balanced placement puts consecutive tenants on consecutive shards, so
  // every shard decodes full batches of tenants whose weights went cold
  // since their last turn. One round at a time keeps the loop to about
  // one busy core: with a round per tenant in flight the three shards
  // saturate three of the host's cores, and the round latency then tracks
  // whatever else the host runs (two busy cores beside it added 76%;
  // one round at a time, nothing). A round's latency runs from the start
  // of its first submit to the last answer.
  struct Round {
    std::size_t tenant = 0;
    double start_us = 0.0;
    std::array<RequestTiming, kRoundLatents> timing;
    std::array<std::size_t, kRoundLatents> latent{};
  };
  std::mutex mu;
  std::condition_variable cv;
  Round rd;                 // the round in flight
  bool in_flight = false;   // guarded by mu
  Stretch st;
  std::vector<double> round_latency, round_done;

  const ServeCounters before = ServeCounters::read(*s);
  const ProcSample p0 = ProcSample::take();
  const double t0 = now_us();
  const double end = t0 + o.seconds * 1e6;
  // Host counters at the kSlices slice boundaries, taken by the submitter.
  const double slice_us = o.seconds * 1e6 / static_cast<double>(kSlices);
  std::vector<ProcSample> marks = {p0};
  {
    double done = 0.0;  // collector side: last answer of the round so far
    Collector collector(/*poll=*/false, [&](std::size_t seq,
                                            DecodeResponse& resp) {
      const std::size_t k = seq % kRoundLatents;
      if (k == 0) done = 0.0;
      // The submitter wrote the round before pushing its futures and does
      // not touch it again until the round is released below.
      const RequestTiming& tm = rd.timing[k];
      const bool ok = check_answer(*s, rd.tenant, rd.latent[k], seq,
                                   /*check_values=*/true, resp,
                                   st.check_failures);
      // Keep every 16th request's samples: enough for the per-layer
      // percentiles, and harness memory stays flat however fast the
      // shards run, so peak_rss_mb measures the program.
      st.add(*s, rd.tenant, tm.e2e_us(resp.latency_us), tm.lateness_us(),
             tm.submit_us(), resp.batch_size, ok, /*keep=*/seq % 16 == 0);
      done = std::max(done, tm.submit_end_us + resp.latency_us);
      if (k + 1 < kRoundLatents) return;
      round_latency.push_back(done - rd.start_us);
      round_done.push_back(done);
      {
        std::lock_guard<std::mutex> lock(mu);
        in_flight = false;
      }
      cv.notify_one();
    });
    for (std::size_t next = 0; now_us() < end; ++next) {
      if (now_us() >= t0 + slice_us * static_cast<double>(marks.size())) {
        marks.push_back(ProcSample::take());
      }
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !in_flight; });
        in_flight = true;
      }
      rd.tenant = next % s->tenants.size();
      const Tenant& tenant_ref = s->tenants[rd.tenant];
      rd.start_us = now_us();
      for (std::size_t k = 0; k < kRoundLatents; ++k) {
        rd.latent[k] = rng.next() % kLatentsPerTenant;
        rd.timing[k].due_us = rd.start_us;
        rd.timing[k].submit_start_us = now_us();
        auto f = s->runtime->submit(tenant_ref.id, tenant_ref.latents[rd.latent[k]]);
        rd.timing[k].submit_end_us = now_us();
        collector.push(std::move(f));
      }
    }
    collector.finish();
  }
  st.counters.add_delta(before, ServeCounters::read(*s));
  const ProcSample p1 = ProcSample::take();
  absorb(r, st);

  // As in the open loop, figures come from the half of the time slices
  // the host stole least from (see least_stolen): rounds answered in those
  // slices, and their readings per second.
  while (marks.size() <= kSlices) marks.push_back(p1);
  std::vector<std::size_t> by_steal(kSlices);
  for (std::size_t k = 0; k < kSlices; ++k) by_steal[k] = k;
  std::stable_sort(by_steal.begin(), by_steal.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal_share(marks[a], marks[a + 1]) <
                            steal_share(marks[b], marks[b + 1]);
                   });
  std::vector<bool> kept(kSlices, false);
  for (std::size_t i = 0; i < kSlices / 2; ++i) kept[by_steal[i]] = true;
  std::vector<double> per_slice, kept_latency;
  std::vector<double> readings(kSlices, 0.0);
  for (std::size_t i = 0; i < round_done.size(); ++i) {
    const auto k = static_cast<std::size_t>((round_done[i] - t0) / slice_us);
    if (k >= kSlices || !kept[k]) continue;
    readings[k] += static_cast<double>(kRoundLatents);
    kept_latency.push_back(round_latency[i]);
  }
  for (std::size_t k = 0; k < kSlices; ++k) {
    if (kept[k]) per_slice.push_back(readings[k] / (slice_us / 1e6));
  }
  const double p50 = median(kept_latency);
  const double p99 = quiet_of(kept_latency, 99);
  r.detail.add("readings_per_s", median(per_slice), "1/s");
  r.detail.add("round_p50_us", p50, "us");
  r.detail.add("round_p99_us", p99, "us");
  add_common(r, setup_s, steal_share(p0, p1));
  r.metrics.add("p50_us", p50, "us");
  r.metrics.add("p99_us", p99, "us");
  if (o.traced) {
    add_serve_layers(st, r.per_layer);
    r.per_layer.add("host.steal_share", steal_share(p0, p1), "share");
  }
  return r;
}

}  // namespace perfbench
