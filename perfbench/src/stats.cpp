#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t k = nearest_rank(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

bool tail_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

Summary summarize(const std::vector<double>& values, double tail_p) {
  Summary s;
  s.n = values.size();
  s.tail_p = tail_p;
  s.p50 = percentile(values, 50.0);
  s.tail = percentile(values, tail_p);
  s.tail_ok = tail_supported(s.n, tail_p);
  return s;
}

std::vector<double> window_rates(const std::vector<double>& durations_ms,
                                 double units_per_call, double window_s) {
  std::vector<double> out;
  double filled_s = 0.0;  // of the current stretch
  double calls = 0.0;     // completed in it, fractionally
  for (double ms : durations_ms) {
    double left_s = ms * 1e-3;
    while (left_s > 0.0) {
      const double take = std::min(left_s, window_s - filled_s);
      calls += take / (ms * 1e-3);
      filled_s += take;
      left_s -= take;
      if (filled_s >= window_s * (1.0 - 1e-12)) {
        out.push_back(calls * units_per_call / window_s);
        filled_s = 0.0;
        calls = 0.0;
      }
    }
  }
  return out;
}

double closed_loop_rate(std::vector<double> arrivals_ms, double begin_ms,
                        double end_ms) {
  std::erase_if(arrivals_ms,
                [=](double t) { return t < begin_ms || t >= end_ms; });
  if (arrivals_ms.size() < 2) return std::numeric_limits<double>::quiet_NaN();
  const auto [lo, hi] = std::minmax_element(arrivals_ms.begin(), arrivals_ms.end());
  if (*hi <= *lo) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(arrivals_ms.size() - 1) / ((*hi - *lo) * 1e-3);
}

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix64::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix64::below(std::uint64_t n) { return next() % n; }

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      double duration_s, std::uint32_t pool,
                                      std::uint32_t conns) {
  std::vector<Arrival> out;
  if (rate_per_s <= 0.0 || duration_s <= 0.0 || pool == 0 || conns == 0)
    return out;
  out.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  SplitMix64 rng(seed);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate_per_s;
    if (t >= duration_s) break;
    Arrival a;
    a.due_s = t;
    a.input = static_cast<std::uint32_t>(rng.below(pool));
    a.conn = static_cast<std::uint32_t>(rng.below(conns));
    out.push_back(a);
  }
  return out;
}

bool rung_passes(const RungResult& r, double limit_ms) {
  return !r.backlog_growing && r.p99_ms <= limit_ms;
}

LadderChoice select_max_rate(const std::vector<RungResult>& rungs,
                             double limit_ms) {
  LadderChoice c;
  for (const RungResult& r : rungs) {
    if (!rung_passes(r, limit_ms)) {
      if (c.passed == 0) return c;
      const RungResult& ok = rungs[static_cast<std::size_t>(c.passed - 1)];
      c.interpolated = ok.rate_per_s;
      if (std::isfinite(r.p99_ms) && r.p99_ms > limit_ms) {
        const double frac = (limit_ms - ok.p99_ms) / (r.p99_ms - ok.p99_ms);
        c.interpolated += frac * (r.rate_per_s - ok.rate_per_s);
      }
      return c;
    }
    c.max_rate = r.rate_per_s;
    c.interpolated = r.rate_per_s;
    ++c.passed;
  }
  return c;
}

}  // namespace perfbench
