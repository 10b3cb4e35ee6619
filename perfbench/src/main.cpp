// dchag_perfbench: runs one workload of the repository benchmark and
// prints its metrics. Normally started by perfbench/run.py, which builds
// it, checks the host for strays and passes the frozen settings:
//
//   dchag_perfbench --workload ingress_open|dchag_serve|dchag_train
//       --seed N --seconds S --trace 0|1 --work-dir DIR --worker-exe PATH
//       [--trace-out FILE] [--result-out FILE] [--commit REV]
//       [--light-rps R --loaded-rps R --ladder-rps R,R,... --p99-limit-ms L]
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (the end-to-end ones with --trace 0,
// the per-layer ones with --trace 1). The exit code is 0 only when every
// output check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

/// Every per-layer metric, in report order. A workload that does not run
/// a layer reports 0 for it (that layer does no work there).
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> kList = {
      {"ingress.queue_ms", "ms"},
      {"ingress.max_queue_depth", "count"},
      {"ingress.dispatch_to_reply_ms", "ms"},
      {"ingress.transport_ms", "ms"},
      {"ingress.overhead_ms", "ms"},
      {"ingress.accepted", "count"},
      {"ingress.completed", "count"},
      {"ingress.rejected", "count"},
      {"ingress.redispatches", "count"},
      {"ingress.worker_restarts", "count"},
      {"ingress.generator_lag_ms", "ms"},
      {"serve.engine_b1_ms", "ms"},
      {"serve.engine_b8_per_sample_ms", "ms"},
      {"serve.batch_amortization", "ratio"},
      {"serve.arena_reuse_ratio", "ratio"},
      {"serve.steady_allocs", "count"},
      {"core.frontend_ms", "ms"},
      {"core.local_partial_ms", "ms"},
      {"core.gather_wait_ms", "ms"},
      {"core.rank_skew_ms", "ms"},
      {"model.tokenizer_ms", "ms"},
      {"model.tree_ms", "ms"},
      {"model.final_agg_ms", "ms"},
      {"model.encoder_head_ms", "ms"},
      {"comm.all_gather_ms", "ms"},
      {"comm.calls_per_step", "count"},
      {"comm.bytes_per_step", "bytes"},
      {"comm.backward_calls", "count"},
      {"tensor.gemm_gflops", "GFLOP/s"},
      {"tensor.flops_per_sample", "flop"},
      {"tensor.achieved_gflops", "GFLOP/s"},
      {"train.forward_ms", "ms"},
      {"train.backward_ms", "ms"},
      {"train.optim_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return kList;
}

std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(std::stod(item));
  return out;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "dchag_perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--workload") o.workload = v;
    else if (key == "--seed") o.seed = std::stoull(v);
    else if (key == "--seconds") o.seconds = std::stod(v);
    else if (key == "--trace") o.trace = v == "1";
    else if (key == "--work-dir") o.work_dir = v;
    else if (key == "--worker-exe") o.worker_exe = v;
    else if (key == "--trace-out") o.trace_out = v;
    else if (key == "--result-out") o.result_out = v;
    else if (key == "--commit") o.commit = v;
    else if (key == "--light-rps") o.ingress.light_rps = std::stod(v);
    else if (key == "--loaded-rps") o.ingress.loaded_rps = std::stod(v);
    else if (key == "--ladder-rps") o.ingress.ladder_rps = parse_list(v);
    else if (key == "--p99-limit-ms") o.ingress.p99_limit_ms = std::stod(v);
    else usage("unknown option " + key);
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.workload == "ingress_open" &&
      (o.ingress.light_rps <= 0 || o.ingress.loaded_rps <= 0 ||
       o.ingress.ladder_rps.empty() || o.ingress.p99_limit_ms <= 0))
    usage("ingress_open needs --light-rps, --loaded-rps, --ladder-rps and "
          "--p99-limit-ms");
  return o;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms, bool with_n) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"";
    if (with_n) out += ", \"n\": " + std::to_string(ms[i].n);
    out += "}";
  }
  return out + "}";
}

/// The full per-layer list, zero where the workload has no such layer.
std::vector<Metric> complete_per_layer(const Report& rep) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_metrics()) {
    Metric m{name, 0.0, unit, 0};
    for (const Metric& got : rep.per_layer)
      if (got.name == name) m = got;
    out.push_back(m);
  }
  return out;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("-- %s\n", title);
  for (const Metric& m : ms) {
    if (m.n > 0)
      std::printf("  %-32s %16.6f %-10s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.n);
    else
      std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  // Nothing below may depend on DCHAG_* variables of the caller.
  dchag::runtime::Context::set_process_default(pinned_context());

  Report rep;
  try {
    if (opt.workload == "ingress_open") rep = run_ingress_open(opt);
    else if (opt.workload == "dchag_serve") rep = run_dchag_serve(opt);
    else if (opt.workload == "dchag_train") rep = run_dchag_train(opt);
    else usage("unknown workload " + opt.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dchag_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }

  const double failed_ratio =
      rep.attempted == 0 ? 1.0
                         : static_cast<double>(rep.failed) /
                               static_cast<double>(rep.attempted);
  const std::string host = host_fingerprint_json(opt);
  std::printf("== %s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("host: {%s}\n", host.c_str());
  const std::vector<Metric> layers = complete_per_layer(rep);
  if (!opt.trace) {
    std::vector<Metric> detail = rep.detail;
    detail.push_back({"setup_s", rep.end_to_end.empty() ? 0.0 : rep.end_to_end[0].value, "s",
                      rep.end_to_end.empty() ? 0 : rep.end_to_end[0].n});
    detail.push_back({"failed_ratio", failed_ratio, "ratio", rep.attempted});
    detail.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 0});
    print_metrics("end-to-end (workload names)", detail);
    print_metrics("end-to-end (benchmark contract)", rep.end_to_end);
  } else {
    print_metrics("per-layer (traced run)", layers);
  }
  std::printf("checks: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (const std::string& f : rep.failures) std::printf("  FAILED: %s\n", f.c_str());
  for (const std::string& w : rep.warnings) std::printf("  WARNING: %s\n", w.c_str());

  const std::vector<Metric>& reported = opt.trace ? layers : rep.end_to_end;
  if (!opt.result_out.empty()) {
    std::ofstream out(opt.result_out);
    out << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
        << ", \"seconds\": " << json_number(opt.seconds)
        << ", \"trace\": " << (opt.trace ? 1 : 0) << ",\n \"host\": {" << host
        << "},\n \"settings\": {\"kernel_backend\": \"blocked\", "
           "\"comm_mode\": \"sync\"";
    if (opt.workload == "ingress_open") {
      out << ", \"light_rps\": " << json_number(opt.ingress.light_rps)
          << ", \"loaded_rps\": " << json_number(opt.ingress.loaded_rps)
          << ", \"ladder_rps\": [";
      for (std::size_t i = 0; i < opt.ingress.ladder_rps.size(); ++i)
        out << (i ? ", " : "") << json_number(opt.ingress.ladder_rps[i]);
      out << "], \"p99_limit_ms\": " << json_number(opt.ingress.p99_limit_ms);
    }
    out << "},\n \"correct\": " << (rep.correct() ? "true" : "false")
        << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
        << ", \"failed_ratio\": " << json_number(failed_ratio)
        << ",\n \"detail\": " << metrics_json(rep.detail, true)
        << ",\n \"metrics\": " << metrics_json(reported, true) << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              rep.correct() ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              metrics_json(reported, false).c_str());
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}
