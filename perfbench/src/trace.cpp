#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

thread_local std::int64_t t_current_span = Tracer::kNoSpan;

}  // namespace

std::int64_t Tracer::open(const char* name, std::uint64_t id,
                          std::int64_t parent, std::uint32_t track) {
  if (!enabled_) return kNoSpan;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t, -1, parent, id, track});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::close(std::int64_t index) {
  if (index == kNoSpan) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

std::int64_t Tracer::record(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::uint64_t id,
                            std::int64_t parent, std::uint32_t track) {
  if (!enabled_) return kNoSpan;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, id, track});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SpanStats> Tracer::summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children's intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0 || s.end_ns < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = p.end_ns < 0 ? s.end_ns : std::min(s.end_ns, p.end_ns);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    SpanStats& st = out[s.name];
    st.duration_ms.push_back(dur);
    st.self_ms.push_back(dur - static_cast<double>(covered) * 1e-6);
  }
  return out;
}

void print_span_table(const std::map<std::string, SpanStats>& spans) {
  std::printf("-- spans (median ms)\n  %-26s %8s %12s %12s\n", "name", "count",
              "duration", "self");
  for (const auto& [name, st] : spans) {
    auto mid = [](std::vector<double> v) {
      std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2),
                       v.end());
      return v[v.size() / 2];
    };
    std::printf("  %-26s %8zu %12.4f %12.4f\n", name.c_str(),
                st.duration_ms.size(), mid(st.duration_ms), mid(st.self_ms));
  }
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"span\": %zu, \"parent\": %lld, \"id\": %llu}}",
                 first ? "" : ",\n", s.name.c_str(), s.track,
                 static_cast<double>(s.start_ns - base) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::uint64_t id,
                       std::uint32_t track)
    : ScopedSpan(tracer, name, id, t_current_span, track) {}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::uint64_t id,
                       std::int64_t parent, std::uint32_t track)
    : tracer_(tracer),
      index_(tracer.open(name, id, parent, track)),
      saved_parent_(t_current_span) {
  if (index_ != Tracer::kNoSpan) t_current_span = index_;
}

ScopedSpan::~ScopedSpan() {
  tracer_.close(index_);
  t_current_span = saved_parent_;
}

}  // namespace perfbench
