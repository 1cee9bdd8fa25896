// The benchmark's own statistics: percentiles, medians, the open-loop
// pacing rule, due-time latency, backlog detection and SLO step selection.
//
// Everything here is pure (no clocks, no threads) or takes its clock as a
// parameter, so stats_test.cpp can check it against hand-computed oracles,
// including a generator that lags its schedule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least q% of
/// the samples are <= it (q in [0, 100]; q = 0 gives the minimum). Returns
/// 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

/// Median with the midpoint rule for even counts (Python's
/// statistics.median). Returns 0 for an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Splits `samples` (in arrival order) into `windows` consecutive slices
/// of near-equal size and returns each slice's q-percentile.
inline std::vector<double> window_percentiles(const std::vector<double>& samples,
                                              std::size_t windows, double q) {
  std::vector<double> out;
  if (samples.empty()) return out;
  windows = std::max<std::size_t>(1, std::min(windows, samples.size()));
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = samples.size() * w / windows;
    const std::size_t hi = samples.size() * (w + 1) / windows;
    out.push_back(percentile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(lo),
                            samples.begin() + static_cast<std::ptrdiff_t>(hi)),
        q));
  }
  return out;
}

/// The q-percentile of a quiet stretch of the run: `samples` (in arrival
/// order) are cut into as many windows as leave at least ten samples
/// beyond the q-percentile in each (at most 16), and the lower quartile
/// (nearest rank) of the per-window percentiles is returned. A host stall
/// must hit three quarters of the windows to move it; a slower program
/// moves every window.
///
/// The closed loops (uplink_rounds, train_online) report the plain median
/// instead: their per-window medians are bimodal on this class of host,
/// fast stretches of a second or less beside a slower majority, and the
/// lower quartile falls on the boundary between the two modes. Over ten
/// seeds it spread 20% where the plain median spread 4-8%.
inline double quiet_of(const std::vector<double>& samples, double q) {
  const double per_window = 10.0 / std::max(1e-9, 1.0 - q / 100.0);
  const auto windows = static_cast<std::size_t>(std::clamp(
      std::floor(static_cast<double>(samples.size()) / per_window), 1.0, 16.0));
  return percentile(window_percentiles(samples, windows, q), 25);
}

/// Timestamps (microseconds on one clock) of one open-loop request.
struct RequestTiming {
  double due_us = 0.0;           // when the schedule said to send it
  double submit_start_us = 0.0;  // when the generator actually called submit
  double submit_end_us = 0.0;    // when submit returned

  /// How late the generator ran for this request.
  double lateness_us() const { return submit_start_us - due_us; }
  double submit_us() const { return submit_end_us - submit_start_us; }
  /// End-to-end latency from the due time: generator lag, the submit call,
  /// then the server's own enqueue-to-answer latency. Counting from the due
  /// time means a stall also charges every request that was due behind it.
  double e2e_us(double server_latency_us) const {
    return submit_end_us - due_us + server_latency_us;
  }
};

/// The open-loop pacing rule: for each due time in order, wait until it
/// (never waiting when already late) and submit. `clock` provides
/// now_us() and sleep_until_us(t); `submit(i)` sends request i. A slow
/// submit delays the requests behind it, and their lateness records it.
template <class Clock, class Submit>
std::vector<RequestTiming> pace_open_loop(const std::vector<double>& due_us,
                                          Clock& clock, Submit&& submit) {
  std::vector<RequestTiming> out(due_us.size());
  for (std::size_t i = 0; i < due_us.size(); ++i) {
    if (clock.now_us() < due_us[i]) clock.sleep_until_us(due_us[i]);
    out[i].due_us = due_us[i];
    out[i].submit_start_us = clock.now_us();
    submit(i);
    out[i].submit_end_us = clock.now_us();
  }
  return out;
}

/// True when the backlog grew during a step: the median latency of the last
/// quarter of requests (in due order) exceeds twice the first quarter's
/// plus `slack_us`. A stable queue keeps the two quarters alike; an
/// overloaded one makes latency climb with time.
inline bool backlog_growing(const std::vector<double>& e2e_in_due_order,
                            double slack_us = 500.0) {
  const std::size_t n = e2e_in_due_order.size();
  if (n < 8) return false;
  const auto quarter = [&](std::size_t q) {
    return median(std::vector<double>(
        e2e_in_due_order.begin() + static_cast<std::ptrdiff_t>(n * q / 4),
        e2e_in_due_order.begin() + static_cast<std::ptrdiff_t>(n * (q + 1) / 4)));
  };
  return quarter(3) > 2.0 * quarter(0) + slack_us;
}

/// One open-loop ladder step's verdict inputs.
struct StepOutcome {
  double rate_rps = 0.0;
  double p99_us = 0.0;
  double fail_ratio = 0.0;
  bool backlog_growing = false;
};

/// The highest rate that meets the SLO: p99 <= p99_limit_us, fail_ratio
/// <= max_fail_ratio and no growing backlog. `steps` are in ascending rate.
///
/// Steps from the first one that fails or builds a backlog upward are out.
/// Over the rest, the p99 limit is met up to where the least-squares line
/// through their (rate, p99) points crosses it. Batching makes p99 climb
/// gently with rate, so a crossing read from one pair of neighbouring
/// steps would jump with every noisy step; the line through all of them
/// does not. The result is capped to the range of the remaining steps and
/// is 0 when even the lowest step misses the limit.
inline double slo_rate(const std::vector<StepOutcome>& steps,
                       double p99_limit_us, double max_fail_ratio) {
  std::vector<StepOutcome> ok;
  for (const auto& s : steps) {
    if (s.fail_ratio > max_fail_ratio || s.backlog_growing) break;
    ok.push_back(s);
  }
  if (ok.empty()) return 0.0;
  const double lowest = ok.front().rate_rps;
  const double highest = ok.back().rate_rps;
  if (ok.size() == 1) return ok[0].p99_us <= p99_limit_us ? lowest : 0.0;
  double mx = 0.0, my = 0.0;
  for (const auto& s : ok) {
    mx += s.rate_rps;
    my += s.p99_us;
  }
  mx /= static_cast<double>(ok.size());
  my /= static_cast<double>(ok.size());
  double sxy = 0.0, sxx = 0.0;
  for (const auto& s : ok) {
    sxy += (s.rate_rps - mx) * (s.p99_us - my);
    sxx += (s.rate_rps - mx) * (s.rate_rps - mx);
  }
  const double slope = sxy / sxx;
  if (slope <= 0.0) return my <= p99_limit_us ? highest : 0.0;
  const double crossing = mx + (p99_limit_us - my) / slope;
  if (crossing < lowest) return 0.0;
  return std::min(crossing, highest);
}

}  // namespace perfbench
