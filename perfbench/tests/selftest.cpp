// Self-test of the benchmark's statistics and span recording. Run with
// `python3 perfbench/run.py --selftest` (which also runs test_compare.py).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void test_percentile() {
  using perfbench::percentile;
  const std::vector<double> v{15, 20, 35, 40, 50};
  expect(percentile(v, 5) == 15, "nearest rank: p5 of 5 values is the 1st");
  expect(percentile(v, 30) == 20, "nearest rank: p30 of 5 values is the 2nd");
  expect(percentile(v, 40) == 20, "nearest rank: p40 of 5 values is the 2nd");
  expect(percentile(v, 50) == 35, "nearest rank: p50 of 5 values is the 3rd");
  expect(percentile(v, 100) == 50, "nearest rank: p100 is the maximum");
  std::vector<double> h;
  for (int i = 100; i >= 1; --i) h.push_back(i);
  expect(percentile(h, 99) == 99, "p99 of 1..100 (unsorted input) is 99");
  expect(percentile(h, 90) == 90, "p90 of 1..100 is 90");
  expect(std::isnan(percentile({}, 50)), "percentile of nothing is NaN");
}

void test_tail_rule() {
  using perfbench::samples_beyond;
  using perfbench::tail_supported;
  expect(samples_beyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  expect(tail_supported(1000, 99), "p99 supported by 1000 samples");
  expect(!tail_supported(999, 99), "p99 not supported by 999 samples");
  expect(tail_supported(100, 90), "p90 supported by 100 samples");
  expect(!tail_supported(99, 90), "p90 not supported by 99 samples");
  expect(!tail_supported(0, 50), "nothing supports any tail");
  const perfbench::Summary s = perfbench::summarize({3, 1, 2}, 90);
  expect(s.n == 3 && s.p50 == 2 && s.tail == 3 && !s.tail_ok,
         "summary of 3 values: median 2, p90 3, tail unsupported");
}

void test_window_rates() {
  using perfbench::window_rates;
  // 10 calls of 100 ms carrying 8 samples each: two 0.5-s stretches at
  // 80 samples/s.
  const std::vector<double> even(10, 100.0);
  auto r = window_rates(even, 8.0, 0.5);
  expect(r.size() == 2 && std::fabs(r[0] - 80.0) < 1e-9 &&
             std::fabs(r[1] - 80.0) < 1e-9,
         "steady calls give a steady rate per stretch");
  // A call crossing a cut counts fractionally: 300 ms + 300 ms in 0.5-s
  // stretches -> 1 + 2/3 calls in the first (0.2 s of the second call).
  r = window_rates({300.0, 300.0, 400.0}, 1.0, 0.5);
  expect(r.size() == 2 && std::fabs(r[0] - (1.0 + 2.0 / 3.0) / 0.5) < 1e-9,
         "a call crossing a cut counts on both sides");
  expect(std::fabs(r[0] + r[1] - 2 * 3.0 / 1.0) < 1e-9,
         "stretch rates add up to the calls made");
  expect(window_rates({100.0}, 1.0, 0.5).empty(), "no whole stretch, no rate");
  // One slow call moves the mean rate but not the median of the stretches.
  std::vector<double> spiky(40, 100.0);
  spiky[3] = 1000.0;
  r = window_rates(spiky, 1.0, 0.5);
  std::vector<double> sorted = r;
  std::sort(sorted.begin(), sorted.end());
  expect(sorted[sorted.size() / 2] == 10.0, "median stretch ignores a stall");
}

void test_closed_loop_rate() {
  using perfbench::closed_loop_rate;
  // Answers every 2 ms from 1 ms on: 500 per second; those outside the
  // stretch do not count.
  std::vector<double> t;
  for (int i = 0; i < 100; ++i) t.push_back(1.0 + 2.0 * i);
  expect(std::fabs(closed_loop_rate(t, 0.0, 1000.0) - 500.0) < 1e-9,
         "evenly spaced answers give their rate");
  std::reverse(t.begin(), t.end());
  t.push_back(5000.0);
  t.push_back(50.0);
  t.push_back(50.5);
  expect(std::fabs(closed_loop_rate(t, 100.0, 1000.0) - 500.0) < 1e-9,
         "order does not matter and answers outside the stretch are left out");
  expect(std::isnan(closed_loop_rate({3.0}, 0.0, 10.0)) &&
             std::isnan(closed_loop_rate({3.0, 3.0}, 0.0, 10.0)),
         "fewer than two answers spanning a time give no rate");
}

void test_poisson() {
  using perfbench::poisson_schedule;
  const auto a = poisson_schedule(42, 500.0, 4.0, 64, 2);
  const auto b = poisson_schedule(42, 500.0, 4.0, 64, 2);
  const auto c = poisson_schedule(43, 500.0, 4.0, 64, 2);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i)
    same = a[i].due_s == b[i].due_s && a[i].input == b[i].input &&
           a[i].conn == b[i].conn;
  expect(same, "same seed gives the same schedule, mix and connections");
  bool differ = a.size() != c.size();
  for (std::size_t i = 0; !differ && i < a.size(); ++i)
    differ = a[i].due_s != c[i].due_s;
  expect(differ, "another seed gives another schedule");
  bool ordered = true, in_range = true;
  std::size_t conn0 = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].due_s < a[i - 1].due_s) ordered = false;
    if (a[i].due_s < 0 || a[i].due_s >= 4.0 || a[i].input >= 64 || a[i].conn >= 2)
      in_range = false;
    conn0 += a[i].conn == 0;
  }
  expect(ordered && in_range, "arrivals ascending and within bounds");
  // 2000 expected arrivals; 5 standard deviations is about +-224.
  expect(a.size() > 1776 && a.size() < 2224, "count matches rate x duration");
  expect(conn0 > a.size() / 3 && conn0 < 2 * a.size() / 3,
         "requests spread over both connections");
  expect(poisson_schedule(1, 0.0, 1.0, 4, 1).empty(), "zero rate, no arrivals");
}

void test_ladder() {
  using perfbench::RungResult;
  using perfbench::select_max_rate;
  const double limit = 5.0;
  // Latency rises with rate; 1500 misses the limit.
  const std::vector<RungResult> table{
      {500, 2.0, false}, {1000, 3.0, false}, {1500, 9.0, false}};
  auto c = select_max_rate(table, limit);
  expect(c.max_rate == 1000 && c.passed == 2,
         "highest passing rung below the first failure");
  expect(std::fabs(c.interpolated - (1000.0 + 500.0 / 3.0)) < 1e-9,
         "interpolated limit crossing between 1000 (3 ms) and 1500 (9 ms)");
  // A growing backlog fails a rung whatever its p99.
  c = select_max_rate({{500, 2.0, false}, {1000, 3.0, true}}, limit);
  expect(c.max_rate == 500 && c.interpolated == 500,
         "a growing backlog fails the rung");
  c = select_max_rate({{500, 2.0, false}, {1000, 8.0, true}}, limit);
  expect(c.max_rate == 500 && std::fabs(c.interpolated - 750.0) < 1e-9,
         "a backlogged rung past the limit still places the crossing");
  // Rungs above the first failure never count, even if they pass.
  c = select_max_rate({{500, 2.0, false}, {1000, 7.0, false}, {1500, 4.0, false}},
                      limit);
  expect(c.max_rate == 500, "no rung counts above the first failure");
  // A rejected request makes p99 infinite.
  c = select_max_rate(
      {{500, 2.0, false}, {1000, std::numeric_limits<double>::infinity(), false}},
      limit);
  expect(c.max_rate == 500 && c.interpolated == 500,
         "an infinite p99 (a failed request) fails the rung");
  c = select_max_rate({{500, 6.0, false}}, limit);
  expect(c.max_rate == 0 && c.passed == 0, "first rung failing gives 0");
  c = select_max_rate(table, 100.0);
  expect(c.max_rate == 1500 && c.interpolated == 1500,
         "every rung passing gives the top rung");
}

void test_trace() {
  perfbench::Tracer t(true);
  const std::int64_t root = t.record("root", 0, 10'000'000, 7, -1);
  t.record("a", 1'000'000, 4'000'000, 7, root);
  t.record("b", 3'000'000, 6'000'000, 7, root);  // overlaps a
  const auto s = t.summarize();
  expect(std::fabs(s.at("root").duration_ms[0] - 10.0) < 1e-9,
         "span duration");
  expect(std::fabs(s.at("root").self_ms[0] - 5.0) < 1e-9,
         "self time subtracts the union of the children");
  {
    perfbench::ScopedSpan outer(t, "outer", 1);
    perfbench::ScopedSpan inner(t, "inner", 1);
  }
  expect(t.size() == 5, "scoped spans recorded");
  perfbench::Tracer off(false);
  { perfbench::ScopedSpan s2(off, "x"); }
  expect(off.size() == 0, "a disabled tracer records nothing");
}

}  // namespace

int main() {
  test_percentile();
  test_tail_rule();
  test_window_rates();
  test_closed_loop_rate();
  test_poisson();
  test_ladder();
  test_trace();
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "OK", g_failures);
  return g_failures == 0 ? 0 : 1;
}
