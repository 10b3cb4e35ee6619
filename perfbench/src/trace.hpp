// In-memory span recorder for the benchmark's traced run. Spans are
// recorded from the benchmark's own code around calls into the system's
// public functions; each has a name, start, end, parent span and the
// request or step id it belongs to. They stay in memory until the run
// ends, when they are summarised (per-name durations and self times) and
// written out as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary fixed epoch (steady clock).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the parent span, -1 = root
  std::uint64_t id = 0;      ///< request or step id
  std::uint32_t track = 0;   ///< rank or thread lane, for the viewer
};

/// Per-name aggregate of the recorded spans.
struct SpanStats {
  std::vector<double> duration_ms;
  std::vector<double> self_ms;  ///< duration minus the children's cover
};

class Tracer {
 public:
  static constexpr std::int64_t kNoSpan = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span starting now; returns its index (kNoSpan if disabled).
  std::int64_t open(const char* name, std::uint64_t id, std::int64_t parent,
                    std::uint32_t track = 0);
  /// Closes an open span at the current time.
  void close(std::int64_t index);
  /// Records a finished span with explicit times (spans whose start and
  /// end happen on different threads).
  std::int64_t record(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint64_t id,
                      std::int64_t parent, std::uint32_t track = 0);

  /// Duration and self time of every closed span, grouped by name.
  [[nodiscard]] std::map<std::string, SpanStats> summarize() const;
  [[nodiscard]] std::size_t size() const;
  /// Writes every span as Chrome trace-event JSON ("X" events, µs).
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Prints one line per span name: count, median duration and median self
/// time in milliseconds.
void print_span_table(const std::map<std::string, SpanStats>& spans);

/// RAII span; parent defaults to the innermost ScopedSpan open on this
/// thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t id = 0,
             std::uint32_t track = 0);
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t id,
             std::int64_t parent, std::uint32_t track);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::int64_t index_;
  std::int64_t saved_parent_;
};

}  // namespace perfbench
