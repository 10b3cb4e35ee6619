#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <ctime>
#include <sstream>

#include "bench.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace perfbench {

dchag::runtime::Context pinned_context() {
  return dchag::runtime::ContextBuilder()
      .kernels({dchag::runtime::KernelBackend::kBlocked, 1})
      .comm({dchag::runtime::CommMode::kSync, 1})
      .build();
}

double peak_rss_mb() {
  rusage self{};
  rusage kids{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &kids);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

double gemm_gflops(const std::vector<GemmShape>& shapes) {
  namespace ops = dchag::tensor::ops;
  double flops = 0.0;
  double seconds = 0.0;
  dchag::tensor::Rng rng(7);
  for (const GemmShape& g : shapes) {
    const dchag::tensor::Tensor a = rng.normal_tensor({g.m, g.k});
    const dchag::tensor::Tensor b = rng.normal_tensor({g.k, g.n});
    (void)ops::matmul(a, b);  // warm-up
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    int reps = 0;
    while (t1 - t0 < 20'000'000 || reps < 3) {
      (void)ops::matmul(a, b);
      ++reps;
      t1 = now_ns();
    }
    flops += 2.0 * static_cast<double>(g.m * g.k * g.n) * reps;
    seconds += seconds_between(t0, t1);
  }
  return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool bit_identical(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

std::string host_fingerprint_json(const Options& opt) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      ::sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  utsname un{};
  ::uname(&un);
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  ::gmtime_r(&now, &tm);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &tm);
  std::ostringstream os;
  os << "\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"usable_cpus\": " << usable << ", \"compiler\": \""
     << PERFBENCH_COMPILER << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"kernel\": \"" << un.sysname << " " << un.release
     << "\", \"machine\": \"" << un.machine << "\", \"date\": \"" << date
     << "\", \"commit\": \"" << opt.commit << "\"";
  return os.str();
}

}  // namespace perfbench
