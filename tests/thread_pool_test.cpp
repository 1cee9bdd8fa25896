// Dedicated coverage for the two concurrency substrates in common/: the
// kernels' caller-participating FanOut (chunk coverage at boundary counts,
// the inline fallbacks, the one-job-at-a-time rule, the free-core gate,
// concurrent callers, a helper start that runs out of memory) and the
// ThreadPool's future-returning submit() the serving runtime depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/fan_out.h"
#include "common/thread_pool.h"

namespace {

// When set, the next operator new on this thread throws std::bad_alloc.
thread_local bool t_fail_next_alloc = false;

void* test_alloc(std::size_t size) {
  if (t_fail_next_alloc) {
    t_fail_next_alloc = false;
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Global replacements, so a test can fail one allocation on purpose.
void* operator new(std::size_t size) { return test_alloc(size); }
void* operator new[](std::size_t size) { return test_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace orco::common {
namespace {

// Every chunk index in [0, chunks) must run exactly once, whatever the
// relation between chunk count and helper count.
void expect_exact_coverage(FanOut& fan, std::size_t chunks) {
  std::vector<std::atomic<int>> hits(chunks + 1);
  auto visit = [&](std::size_t i) { hits[i].fetch_add(1); };
  fan.run(chunks, visit);
  for (std::size_t i = 0; i < chunks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "chunk " << i << " of " << chunks;
  }
  EXPECT_EQ(hits[chunks].load(), 0);
}

TEST(FanOutChunkingTest, CoversBoundaryChunkCounts) {
  FanOut fan(3);
  for (const std::size_t chunks : {1u, 2u, 3u, 4u, 5u, 17u, 1000u}) {
    expect_exact_coverage(fan, chunks);
  }
}

TEST(FanOutChunkingTest, SingleHelperStillCovers) {
  FanOut fan(1);
  expect_exact_coverage(fan, 17);
}

TEST(FanOutChunkingTest, ZeroChunksIsANoop) {
  FanOut fan(2);
  bool called = false;
  auto visit = [&](std::size_t) { called = true; };
  fan.run(0, visit);
  EXPECT_FALSE(called);
  EXPECT_EQ(fan.jobs_dispatched(), 0u);
}

TEST(FanOutInlineTest, NoHelpersRunsInAscendingOrderOnTheCaller) {
  FanOut fan(0);
  const auto tid = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool same_thread = true;
  auto visit = [&](std::size_t i) {
    same_thread = same_thread && std::this_thread::get_id() == tid;
    order.push_back(i);
  };
  fan.run(10, visit);
  EXPECT_TRUE(same_thread);
  std::vector<std::size_t> expect(10);
  std::iota(expect.begin(), expect.end(), std::size_t{0});
  EXPECT_EQ(order, expect);
  EXPECT_EQ(fan.jobs_dispatched(), 0u);
}

TEST(FanOutInlineTest, SingleChunkRunsInlineWithoutWakingHelpers) {
  FanOut fan(3);
  const auto tid = std::this_thread::get_id();
  std::thread::id ran_on;
  auto visit = [&](std::size_t) { ran_on = std::this_thread::get_id(); };
  fan.run(1, visit);
  EXPECT_EQ(ran_on, tid);
  EXPECT_EQ(fan.jobs_dispatched(), 0u);
}

TEST(FanOutDispatchTest, HelpersTakeChunksWhileTheCallerWorks) {
  // The caller's first chunk blocks until some other thread has run a
  // chunk, so the job can only finish if a helper joins in.
  FanOut fan(2);
  const auto tid = std::this_thread::get_id();
  std::atomic<int> by_helpers{0};
  auto visit = [&](std::size_t) {
    if (std::this_thread::get_id() != tid) {
      by_helpers.fetch_add(1);
      return;
    }
    while (by_helpers.load() == 0) std::this_thread::yield();
  };
  fan.run(8, visit);
  EXPECT_GE(by_helpers.load(), 1);
  EXPECT_EQ(fan.jobs_dispatched(), 1u);
}

TEST(FanOutDispatchTest, ACallerMeetingABusyFanOutRunsInlineAtOnce) {
  // While one job holds the fan-out (its chunk 0 is parked), a second
  // caller must not wait for it: every chunk of its job runs inline.
  FanOut fan(2);
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  auto blocking = [&](std::size_t i) {
    if (i != 0) return;
    parked.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  std::thread owner([&] { fan.run(4, blocking); });
  while (!parked.load()) std::this_thread::yield();

  const auto tid = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool same_thread = true;
  auto visit = [&](std::size_t i) {
    same_thread = same_thread && std::this_thread::get_id() == tid;
    order.push_back(i);
  };
  fan.run(6, visit);
  EXPECT_TRUE(same_thread);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(fan.jobs_dispatched(), 1u);

  release.store(true);
  owner.join();
}

TEST(FanOutDispatchTest, BackToBackJobsNeverRunAStaleChunk) {
  // Many short jobs in a row, each with its own context: a helper that
  // wakes late must never run a chunk against a finished job's context.
  FanOut fan(3);
  for (std::size_t job = 0; job < 2000; ++job) {
    const std::size_t chunks = 1 + job % 7;
    std::vector<std::atomic<int>> hits(chunks);
    auto visit = [&](std::size_t i) {
      ASSERT_LT(i, chunks);
      hits[i].fetch_add(1);
    };
    fan.run(chunks, visit);
    for (std::size_t i = 0; i < chunks; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "job " << job << " chunk " << i;
    }
  }
}

TEST(FanOutDispatchTest, ConcurrentCallersEachCoverTheirOwnJob) {
  // More cores than callers, so the free-core gate never keeps every
  // caller inline and some job always reaches the helpers.
  FanOut fan(4);
  constexpr int kCallers = 4;
  constexpr int kJobs = 300;
  std::vector<std::thread> callers;
  std::atomic<int> bad{0};
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int job = 0; job < kJobs; ++job) {
        const std::size_t chunks = 2 + static_cast<std::size_t>(job + t) % 9;
        std::vector<std::atomic<int>> hits(chunks);
        auto visit = [&](std::size_t i) { hits[i].fetch_add(1); };
        fan.run(chunks, visit);
        for (std::size_t i = 0; i < chunks; ++i) {
          if (hits[i].load() != 1) bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(fan.jobs_dispatched(), 1u);
}

/// Parks one thread inside fan.run_here() (occupying a core) until
/// released.
class Occupant {
 public:
  explicit Occupant(FanOut& fan)
      : thread_([this, &fan] {
          auto park = [this](std::size_t) {
            parked_.store(true);
            while (!release_.load()) std::this_thread::yield();
          };
          fan.run_here(1, park);
        }) {
    while (!parked_.load()) std::this_thread::yield();
  }
  ~Occupant() {
    release_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> parked_{false};
  std::atomic<bool> release_{false};
  std::thread thread_;
};

TEST(FanOutGateTest, ACallerFindingEveryCoreOccupiedRunsInline) {
  // One helper, two cores: with another thread inside a kernel, the only
  // free core is the caller's own, so the job must not wake the helper.
  FanOut fan(1);
  Occupant other(fan);
  const auto tid = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool same_thread = true;
  auto visit = [&](std::size_t i) {
    same_thread = same_thread && std::this_thread::get_id() == tid;
    order.push_back(i);
  };
  fan.run(5, visit);
  EXPECT_TRUE(same_thread);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(fan.jobs_dispatched(), 0u);
}

TEST(FanOutGateTest, AnOccupancyScopeHoldsACore) {
  // A thread inside an Occupancy scope (a serving shard answering a batch)
  // holds its core even between kernels.
  FanOut fan(1);
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread shard([&] {
    const FanOut::Occupancy busy(fan);
    held.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!held.load()) std::this_thread::yield();
  std::atomic<int> count{0};
  auto visit = [&](std::size_t) { count.fetch_add(1); };
  fan.run(4, visit);
  EXPECT_EQ(count.load(), 4);
  EXPECT_EQ(fan.jobs_dispatched(), 0u);
  release.store(true);
  shard.join();
}

TEST(FanOutGateTest, AThreadHoldsAtMostOneCore) {
  // Nested scopes and the kernels run inside them count the thread once,
  // so the helper's core stays free for its job.
  FanOut fan(1);
  const FanOut::Occupancy outer(fan);
  const FanOut::Occupancy inner(fan);
  std::atomic<int> count{0};
  auto visit = [&](std::size_t) { count.fetch_add(1); };
  fan.run(4, visit);
  EXPECT_EQ(count.load(), 4);
  EXPECT_EQ(fan.jobs_dispatched(), 1u);
}

TEST(FanOutGateTest, HelpersNeverOverfillTheCores) {
  // Three helpers, four cores, one of them occupied by another thread: at
  // most three threads (the caller and two helpers) may run chunks at
  // once, however many helpers wake.
  FanOut fan(3);
  Occupant other(fan);
  std::atomic<int> running{0};
  std::atomic<int> most{0};
  auto visit = [&](std::size_t) {
    const int now = running.fetch_add(1) + 1;
    int seen = most.load();
    while (now > seen && !most.compare_exchange_weak(seen, now)) {
    }
    for (int spin = 0; spin < 2000; ++spin) std::this_thread::yield();
    running.fetch_sub(1);
  };
  for (int job = 0; job < 20; ++job) fan.run(24, visit);
  EXPECT_LE(most.load(), 3);
  EXPECT_EQ(fan.jobs_dispatched(), 20u);
}

TEST(FanOutStartTest, AHelperStartOutOfMemoryLeavesTheFanOutUsable) {
  // The first job starts the helpers; its first allocation (the thread
  // vector) fails. The job must still complete on the caller, and the
  // fan-out must stay free for the next job.
  FanOut fan(2);
  std::vector<std::atomic<int>> hits(8);
  auto visit = [&](std::size_t i) { hits[i].fetch_add(1); };
  t_fail_next_alloc = true;
  fan.run(hits.size(), visit);
  EXPECT_FALSE(t_fail_next_alloc) << "no allocation was attempted";
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  for (int job = 0; job < 3; ++job) fan.run(hits.size(), visit);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 4);
  EXPECT_EQ(fan.jobs_dispatched(), 4u);
}

TEST(FanOutGlobalTest, GlobalFanOutIsStableAndSizedToTheHost) {
  FanOut* first = &FanOut::global();
  FanOut* second = &FanOut::global();
  EXPECT_EQ(first, second);
  std::size_t cpus = std::thread::hardware_concurrency();
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  cpus = static_cast<std::size_t>(CPU_COUNT(&set));
#endif
  EXPECT_EQ(first->helpers(), cpus > 1 ? cpus - 1 : 0u);
  std::atomic<int> count{0};
  auto visit = [&](std::size_t) { count.fetch_add(1); };
  first->run(64, visit);
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolSubmitTest, ReturnsTaskResultThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolSubmitTest, VoidTasksComplete) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  auto future = pool.submit([&] { ran.store(true); });
  future.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolSubmitTest, ExceptionsPropagateThroughFutureGet) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("task exploded"); });
  try {
    (void)future.get();
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task exploded");
  }
}

TEST(ThreadPoolSubmitTest, ManyConcurrentTasksAllRun) {
  ThreadPool pool(4);
  std::vector<std::future<std::size_t>> futures;
  for (std::size_t i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  std::size_t sum = 0;
  for (auto& f : futures) sum += f.get();
  std::size_t expect = 0;
  for (std::size_t i = 0; i < 64; ++i) expect += i * i;
  EXPECT_EQ(sum, expect);
}

}  // namespace
}  // namespace orco::common
