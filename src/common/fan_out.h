// Caller-participating fan-out: the one parallel mechanism of the kernels.
//
// A job is a function pointer, a context pointer and a chunk count. The
// calling thread publishes the job, then claims and runs chunks exactly
// like each helper thread does; it waits only for chunks a helper already
// holds. Chunks are claimed from one atomic word that packs (generation,
// chunk count, next index), so a helper that wakes late can never run a
// chunk of a finished job: a finished job's word has next == count, and a
// new job's word carries a new generation. Helpers block on
// std::atomic::wait between jobs (no spinning), so an idle fan-out costs no
// CPU.
//
// Work-conserving by construction: one job is in flight at a time. A
// caller that finds the fan-out busy runs all of its chunks inline at once
// instead of queueing behind another job or waiting for a helper.
//
// Helpers only take cores nobody else is computing on. A fan-out has
// helpers + 1 cores; every thread inside run(), run_here() or an
// Occupancy scope occupies one, and so does every helper working on a job. A job wakes at most as many
// helpers as there are free cores (none: it runs inline), and a helper
// takes another chunk only while occupants and working helpers together
// fit in the cores. So concurrent callers (say, serving shards decoding
// side by side) never get their cores taken by another caller's helpers.
//
// Dispatch allocates nothing. The helper threads are started lazily by the
// first job that reaches them, which allocates once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace orco::common {

/// One chunk of a fan-out job. Must not throw: a chunk runs on whichever
/// thread claims it, and an exception escaping a helper ends the process.
using ChunkFn = void (*)(void* ctx, std::size_t chunk);

class FanOut {
 public:
  /// The largest chunk count one job may carry; run() executes a larger
  /// job inline.
  static constexpr std::size_t kMaxChunks = (std::size_t{1} << 24) - 1;

  /// A fan-out with `helpers` helper threads over helpers + 1 cores (0
  /// runs every job inline). No thread starts before the first dispatched
  /// job.
  explicit FanOut(std::size_t helpers);
  /// Stops and joins the helpers. No job may be in flight.
  ~FanOut();

  FanOut(const FanOut&) = delete;
  FanOut& operator=(const FanOut&) = delete;

  /// The process fan-out the GEMM drivers use: one helper fewer than the
  /// CPUs this process may run on (its affinity mask). Constructed on first use and deliberately never destroyed,
  /// so a GEMM running during static destruction never meets joined
  /// helpers; the OS reclaims the threads at exit.
  static FanOut& global();

  std::size_t helpers() const noexcept { return helper_count_; }

  /// Runs fn(ctx, i) exactly once for every i in [0, chunks) and returns
  /// when all of them have finished. The caller runs chunks itself; the
  /// helpers join in as they wake. When another job is in flight, when no
  /// core is free, when there are no helpers, or for a single chunk, every
  /// chunk runs inline on the caller in ascending order.
  void run(ChunkFn fn, void* ctx, std::size_t chunks);

  /// run() for a callable taking the chunk index, passed by reference and
  /// invoked in place: no copy, no type erasure.
  template <class F>
  void run(std::size_t chunks, F& f) {
    run(&invoke<F>, const_cast<void*>(static_cast<const void*>(&f)), chunks);
  }

  /// Runs f(0) .. f(chunks - 1) inline on the caller, occupying its core
  /// meanwhile so that no job's helpers take it. For kernels that do not
  /// fan out but still compete for the cores.
  template <class F>
  void run_here(std::size_t chunks, F& f) {
    Occupancy occupy(*this);
    for (std::size_t i = 0; i < chunks; ++i) f(i);
  }

  /// Occupies one core of a fan-out for the calling thread while in scope:
  /// its jobs' helpers leave that core alone. run() and run_here() hold
  /// one; a serving shard holds one while it answers a batch. A thread
  /// holds at most one core of a fan-out, so the kernels it runs inside
  /// an Occupancy do not count it twice.
  class Occupancy {
   public:
    explicit Occupancy(FanOut& fan = global());
    ~Occupancy();
    Occupancy(const Occupancy&) = delete;
    Occupancy& operator=(const Occupancy&) = delete;

   private:
    FanOut* fan_;         // null when the thread already held a core of it
    const FanOut* prev_;  // the fan-out occupied before this scope
  };

  /// Jobs handed to the helpers so far (jobs run inline are not counted).
  std::uint64_t jobs_dispatched() const noexcept {
    return jobs_.load(std::memory_order_relaxed);
  }

 private:
  template <class F>
  static void invoke(void* ctx, std::size_t chunk) {
    (*static_cast<F*>(ctx))(chunk);
  }

  /// Starts the helper threads. Never throws: a helper that cannot be
  /// started (no thread, no memory) only means less parallelism.
  void start_helpers() noexcept;
  void helper_loop(std::uint32_t seen_epoch);
  /// Claims and runs chunks of the current job until none is left;
  /// returns how many this thread ran. Helpers also count each finished
  /// chunk in done_, and stop claiming once the cores are oversubscribed.
  std::size_t drain(bool helper) noexcept;
  /// Whether occupants and working helpers overfill the cores.
  bool oversubscribed() const noexcept;

  const std::size_t helper_count_;
  const std::size_t cores_;

  // generation:16 | chunk count:24 | next unclaimed index:24.
  std::atomic<std::uint64_t> work_{0};
  // The in-flight job's callee, written only by the slot owner before it
  // publishes work_ and read only after a successful claim.
  ChunkFn fn_ = nullptr;
  void* ctx_ = nullptr;
  // Chunks of the current job finished by helpers.
  std::atomic<std::uint32_t> done_{0};
  // Bumped once per published job (and at stop); helpers wait on it.
  std::atomic<std::uint32_t> epoch_{0};
  // The single job slot: true while a job is in flight.
  std::atomic<bool> busy_{false};
  std::atomic<bool> stop_{false};
  // Threads holding an Occupancy, and helpers inside a job.
  std::atomic<std::size_t> occupants_{0};
  std::atomic<std::size_t> working_{0};
  std::atomic<std::uint64_t> jobs_{0};
  // Owned by whoever holds the slot.
  std::uint64_t generation_ = 0;
  bool started_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace orco::common
