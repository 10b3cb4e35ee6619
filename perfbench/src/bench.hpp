// Shared surface of the benchmark's workloads: run options, the result
// record every workload fills, the pinned execution context, and the
// host fingerprint. main.cpp parses the command line and prints; each
// workload lives in its own translation unit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/context.hpp"
#include "trace.hpp"

namespace perfbench {

/// Rates and limits of the open-loop ingress workload. They are fixed once
/// in perfbench/spec.json and passed in by run.py; never derived from the
/// run being measured.
struct IngressRates {
  double light_rps = 0.0;
  double loaded_rps = 0.0;
  std::vector<double> ladder_rps;
  double p99_limit_ms = 0.0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch files (checkpoint) live here
  std::string trace_out;  ///< Chrome trace JSON path (traced run)
  std::string result_out; ///< full result record path
  std::string commit;     ///< source revision, as run.py found it
  std::string worker_exe; ///< the dchag_ingress_worker binary
  IngressRates ingress;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  ///< samples behind the value (0 = not a sample stat)
};

/// What one workload run produced. `end_to_end` holds the metrics every
/// workload reports under the same names (the benchmark's contract);
/// `detail` holds the workload's own named metrics; `per_layer` the
/// traced run's breakdown.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< failed output checks
  /// Measurement caveats (too few samples for a tail, a ladder that never
  /// met its limit on a slow host): printed, never a failed check.
  std::vector<std::string> warnings;
  std::vector<Metric> end_to_end;
  std::vector<Metric> detail;
  std::vector<Metric> per_layer;

  /// Records a failed output check once per distinct message.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    for (const std::string& f : failures)
      if (f == what) return;
    failures.push_back(what);
  }
  /// Records a measurement caveat once per distinct message.
  void warn_unless(bool ok, const std::string& what) {
    if (ok) return;
    for (const std::string& w : warnings)
      if (w == what) return;
    warnings.push_back(what);
  }
  [[nodiscard]] bool correct() const { return failures.empty(); }
};

Report run_ingress_open(const Options& opt);
Report run_dchag_serve(const Options& opt);
Report run_dchag_train(const Options& opt);

/// Kernel backend blocked (single-threaded per caller: rank threads and
/// worker processes are the parallelism, so 4 ranks or 2 workers do not
/// oversubscribe 4 cores) and synchronous, unpipelined comm. Built from
/// defaults, never from DCHAG_* environment variables.
[[nodiscard]] dchag::runtime::Context pinned_context();

/// Peak resident set in MB: the larger of this process and its reaped
/// children (ingress worker processes).
[[nodiscard]] double peak_rss_mb();

/// Host fingerprint as "key": value JSON members (no braces).
[[nodiscard]] std::string host_fingerprint_json(const Options& opt);

/// Seconds between two steady-clock nanosecond stamps, and milliseconds.
[[nodiscard]] inline double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}
[[nodiscard]] inline double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

/// GEMM shape [m, k] x [k, n].
struct GemmShape {
  std::int64_t m = 0, k = 0, n = 0;
};

/// Achieved GFLOP/s of ops::matmul over `shapes` (each repeated until it
/// has run for a few milliseconds), under the calling thread's context.
[[nodiscard]] double gemm_gflops(const std::vector<GemmShape>& shapes);

/// Median of a set of values (used for repeated set-up timings).
[[nodiscard]] double median(std::vector<double> v);

/// Bit-identical comparison of two float buffers of equal shape.
[[nodiscard]] bool bit_identical(const float* a, const float* b,
                                 std::size_t n);

}  // namespace perfbench
