// Hand-checked oracles for the benchmark's statistics (stats.h). Every
// expected value below is worked out by hand from the inputs next to it.
//
//   perfbench_stats_test    (exit status 0 when every check holds)
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void expect_eq(double got, double want, const char* what) {
  if (got != want) {
    std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++g_failures;
  }
}

void expect_true(bool got, const char* what) {
  if (!got) {
    std::printf("FAIL %s\n", what);
    ++g_failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentile() {
  using perfbench::percentile;
  // Nearest rank over 1..100: the q-th percentile is q itself.
  expect_eq(percentile(one_to(100), 50), 50, "p50 of 1..100");
  expect_eq(percentile(one_to(100), 99), 99, "p99 of 1..100");
  expect_eq(percentile(one_to(100), 100), 100, "p100 of 1..100");
  expect_eq(percentile(one_to(100), 0), 1, "p0 of 1..100");
  // 1..10: rank ceil(0.99 * 10) = 10, ceil(0.5 * 10) = 5.
  expect_eq(percentile(one_to(10), 99), 10, "p99 of 1..10");
  expect_eq(percentile(one_to(10), 50), 5, "p50 of 1..10");
  // {1,2,3}: rank ceil(1.5) = 2.
  expect_eq(percentile({3, 1, 2}, 50), 2, "p50 of three");
  expect_eq(percentile({}, 50), 0, "percentile of nothing");
}

void test_median() {
  using perfbench::median;
  expect_eq(median({1, 2, 3, 4}), 2.5, "median of four");
  expect_eq(median({7, 1, 3}), 3, "median of three");
  expect_eq(median({}), 0, "median of nothing");
}

void test_window_statistics() {
  // Four windows of five; window maxima 100, 2, 3, 4.
  const std::vector<double> v = {1, 1, 1, 1, 100, 2, 2, 2, 2, 2,
                                 3, 3, 3, 3, 3,   4, 4, 4, 4, 4};
  expect_true(perfbench::window_percentiles(v, 4, 100) ==
                  std::vector<double>({100, 2, 3, 4}),
              "per-window maxima");
  // More windows than samples: one sample per window.
  expect_true(perfbench::window_percentiles({5, 1, 9}, 10, 99) ==
                  std::vector<double>({5, 1, 9}),
              "windows capped at the sample count");
}

void test_quiet_of() {
  using perfbench::quiet_of;
  // p50 needs 20 samples per window: 80 samples make 4 windows of 20.
  // Window k holds 20 copies of (k + 1) * 10 except the second, stalled
  // window at 1000: window medians 10, 1000, 30, 40; lower quartile
  // (nearest rank 1 of 4) 10.
  std::vector<double> v;
  for (double x : {10.0, 1000.0, 30.0, 40.0}) v.insert(v.end(), 20, x);
  expect_eq(quiet_of(v, 50), 10, "quiet p50 over four windows");
  // p99 needs 1000 samples per window: 80 samples are one window, the
  // plain p99 (rank ceil(79.2) = 80: the largest, 1000).
  expect_eq(quiet_of(v, 99), 1000, "one window below 1000 samples");
  // 16 000 samples give the 16-window cap for p99; windows alternate
  // 1..1000 and 1..1000 + 5000 (a stall in every other window). Each
  // window's p99 is 990 or 5990; the lower quartile of eight of each is
  // 990.
  std::vector<double> w;
  for (int k = 0; k < 16; ++k) {
    for (int i = 1; i <= 1000; ++i) w.push_back(i + (k % 2 ? 5000.0 : 0.0));
  }
  expect_eq(quiet_of(w, 99), 990, "stalls in half the windows");
}

/// A simulated clock: sleeping jumps to the target, submitting costs a
/// fixed time.
struct FakeClock {
  double now = 0.0;
  double now_us() const { return now; }
  void sleep_until_us(double t) { now = t; }
};

void test_due_time_latency_with_lagging_generator() {
  // Due every 100 us, but each submit takes 250 us: request i starts at
  // 250 i, so its lateness is 250 i - 100 i = 150 i.
  FakeClock clock;
  const std::vector<double> due = {0, 100, 200, 300, 400};
  const auto t = perfbench::pace_open_loop(
      due, clock, [&](std::size_t) { clock.now += 250.0; });
  expect_eq(t[0].lateness_us(), 0, "first request on time");
  expect_eq(t[1].lateness_us(), 150, "lateness of request 1");
  expect_eq(t[4].lateness_us(), 600, "lateness of request 4");
  expect_eq(t[4].submit_us(), 250, "submit time of request 4");
  // With a 50 us server answer, request 4 completes at 1250 + 50 and was
  // due at 400: 900 us end to end, of which the server saw only 50.
  expect_eq(t[4].e2e_us(50), 900, "e2e counts from the due time");

  // A generator that keeps up sleeps to each due time exactly.
  FakeClock fast;
  const auto u = perfbench::pace_open_loop(
      due, fast, [&](std::size_t) { fast.now += 10.0; });
  for (const auto& x : u) expect_eq(x.lateness_us(), 0, "no lateness");
  expect_eq(u[3].e2e_us(50), 60, "e2e of an on-time request");
}

void test_backlog() {
  const std::vector<double> steady(16, 300.0);
  expect_true(!perfbench::backlog_growing(steady), "steady queue");
  // 1000..8000 in eight: first quarter median 1500, last 7500 > 3500.
  const std::vector<double> growing = {1000, 2000, 3000, 4000,
                                       5000, 6000, 7000, 8000};
  expect_true(perfbench::backlog_growing(growing), "growing queue");
  // Last quarter 700..800 (median 750) is below 2 * 150 + 500 = 800.
  const std::vector<double> mild = {100, 200, 300, 400, 500, 600, 700, 800};
  expect_true(!perfbench::backlog_growing(mild), "mild rise is not backlog");
}

void test_slo_rate() {
  using perfbench::StepOutcome;
  using perfbench::slo_rate;
  // p99 = rate - 3000 through (5k, 2 ms), (7k, 4 ms), (9k, 6 ms): the line
  // reaches the 5 ms limit at 8000 rps.
  const std::vector<StepOutcome> line = {
      {5000, 2000, 0.0, false}, {7000, 4000, 0.0, false},
      {9000, 6000, 0.0, false}};
  expect_eq(slo_rate(line, 5000, 0.001), 8000, "crossing of the fitted line");
  // Noisy points around the same line: (5k, 2.5), (7k, 3), (9k, 6.5) ms
  // have mean (7000, 4000), sxy = 8e6 and sxx = 8e6, so slope 1 us per
  // rps and the crossing 7000 + (5000 - 4000) / 1 = 8000.
  const std::vector<StepOutcome> noisy = {
      {5000, 2500, 0.0, false}, {7000, 3000, 0.0, false},
      {9000, 6500, 0.0, false}};
  expect_eq(slo_rate(noisy, 5000, 0.001), 8000, "fit averages step noise");
  // The line stays under the limit over the ladder: capped at the top.
  expect_eq(slo_rate(line, 9000, 0.001), 9000, "capped at the top step");
  // A backlog at 9k removes it and every step above: the 5k-7k line
  // crosses 5 ms at 8000, capped to 7000.
  std::vector<StepOutcome> backlog = line;
  backlog[2].backlog_growing = true;
  backlog.push_back({11000, 1000, 0.0, false});
  expect_eq(slo_rate(backlog, 5000, 0.001), 7000, "backlog ends the ladder");
  // Failures end the ladder the same way.
  std::vector<StepOutcome> failing = line;
  failing[1].fail_ratio = 0.01;
  expect_eq(slo_rate(failing, 5000, 0.001), 5000, "failures end the ladder");
  // Even the lowest step misses the limit.
  expect_eq(slo_rate(line, 1000, 0.001), 0, "no rate meets the limit");
  expect_eq(slo_rate({{5000, 9000, 0.0, false}}, 5000, 0.001), 0,
            "one failing step");
  expect_eq(slo_rate({{5000, 900, 0.0, false}}, 5000, 0.001), 5000,
            "one passing step");
}

}  // namespace

int main() {
  test_percentile();
  test_median();
  test_window_statistics();
  test_quiet_of();
  test_due_time_latency_with_lagging_generator();
  test_backlog();
  test_slo_rate();
  if (g_failures == 0) std::printf("perfbench_stats_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
