// Statistics shared by every workload of the benchmark: nearest-rank
// percentiles with the "at least ten samples beyond the tail" rule, the
// seeded Poisson arrival schedule of the open-loop generator, and the
// selection of the highest sustainable rate from a ladder of fixed rates.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in (0, 100]) of `values`: the smallest value
/// such that at least p% of the samples are <= it. Empty input -> NaN.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// How many samples lie strictly beyond the nearest-rank p-th percentile
/// position of `n` samples: n - ceil(p/100 * n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// True when `n` samples leave at least 10 samples beyond percentile p,
/// the rule for reporting that percentile as a tail.
[[nodiscard]] bool tail_supported(std::size_t n, double p);

/// Median plus a stated tail percentile of one set of timings.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_p = 0.0;  ///< which percentile `tail` is
  double tail = 0.0;
  bool tail_ok = false;  ///< tail_supported(n, tail_p)
};

/// Summarises `values` with the median and percentile `tail_p`.
[[nodiscard]] Summary summarize(const std::vector<double>& values,
                                double tail_p);

/// Work rate of back-to-back calls, stretch by stretch: the calls'
/// durations laid end to end are cut into stretches of `window_s` seconds
/// (a call crossing a cut counts fractionally on both sides), and each
/// whole stretch yields units completed per second. Their median is a
/// throughput that a few slow seconds of the host do not move.
[[nodiscard]] std::vector<double> window_rates(
    const std::vector<double>& durations_ms, double units_per_call,
    double window_s);

/// Completion rate of a closed loop over the stretch [begin_ms, end_ms)
/// from its answers' arrival times (ms from the loop's start, any order):
/// the answers after the first that arrived in the stretch, over the time
/// from the first to the last of them, per second. NaN when fewer than two
/// answers span a time.
[[nodiscard]] double closed_loop_rate(std::vector<double> arrivals_ms,
                                      double begin_ms, double end_ms);

/// Deterministic 64-bit generator (splitmix64): the same seed gives the
/// same stream on every platform and standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// One request of an open-loop arrival schedule.
struct Arrival {
  double due_s = 0.0;        ///< offset from the phase start
  std::uint32_t input = 0;   ///< index into the request pool
  std::uint32_t conn = 0;    ///< connection that sends it
};

/// Poisson arrivals at `rate_per_s` over [0, duration_s): exponential
/// gaps, each arrival drawing a pool index in [0, pool) and a connection
/// in [0, conns). The same (seed, rate, duration, pool, conns) always
/// gives the same schedule.
[[nodiscard]] std::vector<Arrival> poisson_schedule(std::uint64_t seed,
                                                    double rate_per_s,
                                                    double duration_s,
                                                    std::uint32_t pool,
                                                    std::uint32_t conns);

/// The measured outcome of one ladder rung.
struct RungResult {
  double rate_per_s = 0.0;
  double p99_ms = std::numeric_limits<double>::infinity();
  bool backlog_growing = false;
};

/// True when the rung meets the latency limit with no growing backlog.
[[nodiscard]] bool rung_passes(const RungResult& r, double limit_ms);

/// The ladder result: `rungs` must be in ascending rate order as run.
/// `max_rate` is the highest rung rate reached without a failure below it
/// (0 when the first rung fails); `interpolated` places the crossing of
/// the limit linearly by p99 between that rung and the first failing one
/// (at the passing rung when the failing one's p99 is within the limit,
/// i.e. it failed on backlog alone, or is infinite).
struct LadderChoice {
  double max_rate = 0.0;
  double interpolated = 0.0;
  int passed = 0;  ///< rungs passed before the first failure
};
[[nodiscard]] LadderChoice select_max_rate(const std::vector<RungResult>& rungs,
                                           double limit_ms);

}  // namespace perfbench
