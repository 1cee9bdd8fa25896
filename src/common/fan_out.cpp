#include "common/fan_out.h"

#include <exception>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/logging.h"

namespace orco::common {

namespace {

constexpr std::uint64_t kFieldMask = (std::uint64_t{1} << 24) - 1;
constexpr unsigned kCountShift = 24;
constexpr unsigned kGenerationShift = 48;
constexpr std::uint64_t kGenerationMask = 0xffff;

/// CPUs this process may run on: its affinity mask where the OS exposes
/// one (taskset, cpuset cgroups), else every online CPU.
std::size_t usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// The fan-out a core of which the calling thread occupies, if any.
thread_local const FanOut* t_occupied = nullptr;

}  // namespace

FanOut::Occupancy::Occupancy(FanOut& fan)
    : fan_(t_occupied == &fan ? nullptr : &fan), prev_(t_occupied) {
  if (fan_ == nullptr) return;
  t_occupied = fan_;
  fan_->occupants_.fetch_add(1, std::memory_order_relaxed);
}

FanOut::Occupancy::~Occupancy() {
  if (fan_ == nullptr) return;
  fan_->occupants_.fetch_sub(1, std::memory_order_relaxed);
  t_occupied = prev_;
}

FanOut::FanOut(std::size_t helpers)
    : helper_count_(helpers), cores_(helpers + 1) {}

FanOut::~FanOut() {
  stop_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& t : threads_) t.join();
}

FanOut& FanOut::global() {
  // Leaked on purpose (see header).
  static FanOut* fan_out = new FanOut(usable_cpus() - 1);
  return *fan_out;
}

void FanOut::start_helpers() noexcept {
  started_ = true;
  const std::uint32_t epoch = epoch_.load(std::memory_order_relaxed);
  try {
    threads_.reserve(helper_count_);
    for (std::size_t i = 0; i < helper_count_; ++i) {
      threads_.emplace_back([this, epoch] { helper_loop(epoch); });
    }
  } catch (const std::exception& e) {
    // The caller still runs every chunk nobody else claims.
    try {
      ORCO_LOG_WARN("fan-out started " << threads_.size() << " of "
                                       << helper_count_
                                       << " helper threads: " << e.what());
    } catch (...) {
    }
  }
}

void FanOut::helper_loop(std::uint32_t seen_epoch) {
  for (;;) {
    epoch_.wait(seen_epoch, std::memory_order_acquire);
    seen_epoch = epoch_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    working_.fetch_add(1, std::memory_order_relaxed);
    drain(/*helper=*/true);
    working_.fetch_sub(1, std::memory_order_relaxed);
  }
}

// ORCO_HOT_PATH BEGIN (fan-out dispatch: atomics and futex waits only)
void FanOut::run(ChunkFn fn, void* ctx, std::size_t chunks) {
  if (chunks == 0) return;
  Occupancy occupy(*this);
  const std::size_t busy_cores = occupants_.load(std::memory_order_relaxed);
  if (chunks == 1 || chunks > kMaxChunks || helper_count_ == 0 ||
      busy_cores >= cores_ || busy_.load(std::memory_order_relaxed) ||
      busy_.exchange(true, std::memory_order_acquire)) {
    for (std::size_t i = 0; i < chunks; ++i) fn(ctx, i);
    return;
  }
  if (!started_) start_helpers();
  fn_ = fn;
  ctx_ = ctx;
  done_.store(0, std::memory_order_relaxed);
  generation_ = (generation_ + 1) & kGenerationMask;
  work_.store((generation_ << kGenerationShift) |
                  (static_cast<std::uint64_t>(chunks) << kCountShift),
              std::memory_order_release);
  jobs_.fetch_add(1, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  // Wake one helper per free core (and per chunk beyond the caller's).
  std::size_t wake = cores_ - busy_cores;
  if (wake > chunks - 1) wake = chunks - 1;
  if (wake >= threads_.size()) {
    epoch_.notify_all();
  } else {
    for (std::size_t i = 0; i < wake; ++i) epoch_.notify_one();
  }

  const std::size_t mine = drain(/*helper=*/false);
  const auto held = static_cast<std::uint32_t>(chunks - mine);
  for (std::uint32_t d = done_.load(std::memory_order_acquire); d != held;
       d = done_.load(std::memory_order_acquire)) {
    done_.wait(d, std::memory_order_acquire);
  }
  busy_.store(false, std::memory_order_release);
}

bool FanOut::oversubscribed() const noexcept {
  return occupants_.load(std::memory_order_relaxed) +
             working_.load(std::memory_order_relaxed) >
         cores_;
}

std::size_t FanOut::drain(bool helper) noexcept {
  std::size_t ran = 0;
  std::uint64_t w = work_.load(std::memory_order_acquire);
  for (;;) {
    const std::uint64_t next = w & kFieldMask;
    if (next >= ((w >> kCountShift) & kFieldMask)) return ran;
    if (helper && oversubscribed()) return ran;
    if (!work_.compare_exchange_weak(w, w + 1, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      continue;
    }
    // The claim keeps this job in flight until the chunk is counted, so
    // fn_ and ctx_ are the ones published with the word just claimed.
    fn_(ctx_, static_cast<std::size_t>(next));
    ++ran;
    if (helper) {
      done_.fetch_add(1, std::memory_order_release);
      done_.notify_one();
    }
    w = work_.load(std::memory_order_acquire);
  }
}
// ORCO_HOT_PATH END

}  // namespace orco::common
