// Workload `dchag_train`: train::train_forecast at 4 ranks over
// comm::World with few channels (8, from data::WeatherGenerator, 32x64),
// batch 8: forward + backward + Adam on the autograd tape, one
// closed-loop caller. With few channels the ViT encoder, the backward
// pass and the optimizer's writes dominate, and the planned serving path
// is bypassed, so a serving-only change must leave this workload alone.
// It is also where the paper's communication-free backward is checked.
#include <barrier>
#include <cmath>
#include <cstdio>
#include <set>

#include "bench.hpp"
#include "core/dchag_frontend.hpp"
#include "data/weather.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"
#include "train/loops.hpp"

namespace perfbench {

using dchag::tensor::Index;
using dchag::tensor::Tensor;

namespace {

constexpr int kRanks = 4;
constexpr Index kBatch = 8;
constexpr std::size_t kPool = 8;
constexpr Index kChunkSteps = 4;
constexpr int kSetupTrials = 5;
/// samples_per_s is the median over stretches of this much step time.
constexpr double kRateWindowS = 2.0;

dchag::data::WeatherConfig weather_config() {
  dchag::data::WeatherConfig wc;
  wc.num_variables = 2;
  wc.levels_per_variable = 3;
  wc.surface_variables = 2;  // 8 channels
  return wc;                 // 32 x 64 grid
}

dchag::model::ModelConfig model_config() {
  const dchag::data::WeatherConfig wc = weather_config();
  dchag::model::ModelConfig cfg = dchag::model::ModelConfig::tiny();
  cfg.image_h = wc.height;
  cfg.image_w = wc.width;
  return cfg;
}

std::unique_ptr<dchag::model::ForecastModel> build(std::uint64_t seed,
                                                   dchag::comm::Communicator& comm) {
  dchag::tensor::Rng rng(seed);
  return dchag::core::make_dchag_forecast(
      model_config(), weather_config().channels(), comm,
      {/*tree_units=*/1, dchag::model::AggLayerKind::kCrossAttention}, rng);
}

using Pool = std::vector<dchag::data::WeatherGenerator::Pair>;

dchag::train::LoopConfig loop_config(Index steps) {
  dchag::train::LoopConfig lc;
  lc.steps = steps;
  lc.batch = kBatch;
  return lc;
}

/// Values of the parameters replicated across ranks (everything outside
/// the rank-local tokenizer and partial tree), in registration order.
std::vector<std::vector<float>> replicated_values(
    const dchag::model::ForecastModel& model) {
  const auto& fe =
      dynamic_cast<const dchag::core::DchagFrontEnd&>(model.frontend());
  std::set<const float*> local;
  for (const auto& p : fe.parameters()) local.insert(p.value().data());
  for (const auto& p : fe.final_aggregator().parameters())
    local.erase(p.value().data());
  std::vector<std::vector<float>> out;
  for (const auto& p : model.parameters()) {
    const Tensor& v = p.value();
    if (local.count(v.data()) == 0)
      out.emplace_back(v.data(), v.data() + v.numel());
  }
  return out;
}

/// Per-rank record of one world's run.
struct RankLog {
  std::vector<float> losses;
  std::vector<std::vector<float>> replicated;
  std::uint64_t run_calls = 0;      ///< comm calls inside the train steps
  std::uint64_t forward_calls = 0;  ///< comm calls of one forward
  std::uint64_t backward_calls = 0;
};

/// Cross-rank checks: losses finite and identical at every step,
/// replicated parameters identical after the run.
void check_ranks(const std::vector<RankLog>& logs, Report& rep) {
  const RankLog& r0 = logs[0];
  bool finite = true;
  for (float l : r0.losses) finite = finite && std::isfinite(l);
  rep.check(finite, "loss finite at every step");
  for (std::size_t r = 1; r < logs.size(); ++r) {
    const RankLog& rr = logs[r];
    rep.check(rr.losses.size() == r0.losses.size() &&
                  bit_identical(rr.losses.data(), r0.losses.data(),
                                r0.losses.size()),
              "loss identical on every rank at every step");
    bool same = rr.replicated.size() == r0.replicated.size();
    for (std::size_t i = 0; same && i < r0.replicated.size(); ++i)
      same = rr.replicated[i].size() == r0.replicated[i].size() &&
             bit_identical(rr.replicated[i].data(), r0.replicated[i].data(),
                           r0.replicated[i].size());
    rep.check(same, "replicated parameters identical across ranks");
  }
}

/// Runs train_forecast in chunks of kChunkSteps on every rank until rank 0
/// has spent `seconds` in timed chunks (after `warm_steps` untimed ones).
/// Rank 0's step times come from the data callback: a step lasts from
/// one next_pair call to the next (or to the chunk's return).
std::vector<double> train_loop(dchag::comm::Communicator& comm,
                               dchag::model::ForecastModel& fm,
                               const Pool& pool, const dchag::runtime::Context& ctx,
                               double seconds, Index warm_steps,
                               std::barrier<>& sync, bool& stop, RankLog& log) {
  std::vector<double> step_ms;
  Index global = 0;
  std::int64_t prev = 0;
  const bool rank0 = comm.rank() == 0;
  bool timing = false;
  auto next_pair = [&](Index step) {
    if (rank0 && timing) {
      const std::int64_t t = now_ns();
      if (step > 0) step_ms.push_back(ms_between(prev, t));
      prev = t;
    }
    const auto& p = pool[static_cast<std::size_t>(global + step) % pool.size()];
    return std::make_pair(p.now, p.future);
  };
  auto chunk = [&](Index steps) {
    const auto c0 = comm.stats().total_calls();
    const auto curve = dchag::train::train_forecast(fm, loop_config(steps),
                                                    next_pair, ctx);
    if (rank0 && timing) step_ms.push_back(ms_between(prev, now_ns()));
    if (timing) log.run_calls += comm.stats().total_calls() - c0;
    log.losses.insert(log.losses.end(), curve.losses.begin(), curve.losses.end());
    global += steps;
  };
  if (warm_steps > 0) chunk(warm_steps);
  timing = true;
  double spent = 0.0;
  std::uint64_t timed_steps = 0;
  for (;;) {
    const std::int64_t t0 = now_ns();
    chunk(kChunkSteps);
    timed_steps += static_cast<std::uint64_t>(kChunkSteps);
    spent += seconds_between(t0, now_ns());
    if (rank0) stop = spent >= seconds;
    sync.arrive_and_wait();  // every rank reads rank 0's decision
    const bool done = stop;
    sync.arrive_and_wait();
    if (done) break;
  }
  // One more forward and backward outside the timed window: the forward's
  // collective count, and the backward's, which must be zero.
  const auto& p = pool[0];
  const Tensor local = fm.frontend().select_input(p.now);
  const auto c0 = comm.stats().total_calls();
  const auto out = fm.forward(local, p.future);
  const auto c1 = comm.stats().total_calls();
  out.loss.backward();
  log.forward_calls = c1 - c0;
  log.backward_calls = comm.stats().total_calls() - c1;
  fm.zero_grad();
  log.run_calls -= log.forward_calls * timed_steps;
  return step_ms;
}

/// Traced steps: the train_forecast loop body called directly
/// (ForecastModel::forward, Variable::backward, Adam::step) with spans,
/// then the front end's layer calls, for `seconds` on rank 0's clock.
struct TracedCounts {
  std::uint64_t calls = 0, bytes = 0, backward_calls = 0, flops = 0;
};

void traced_steps(dchag::comm::Communicator& comm, dchag::model::ForecastModel& fm,
                  const Pool& pool, double seconds, std::barrier<>& sync,
                  bool& stop, Tracer& tracer,
                  std::vector<std::vector<double>>& local_partial,
                  TracedCounts& counts) {
  namespace ops = dchag::tensor::ops;
  const auto track = static_cast<std::uint32_t>(comm.rank());
  auto twin = twin_tokenizer(model_config(), weather_config().channels(), comm);
  dchag::train::Adam opt(fm.parameters(), loop_config(1).adam);
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t step = 0;; ++step) {
    const auto& p = pool[step % pool.size()];
    const Tensor local = fm.frontend().select_input(p.now);
    comm.barrier();
    const std::uint64_t f0 = ops::flops_executed();
    const auto s0 = comm.stats();
    {
      ScopedSpan st(tracer, "train.step", step, track);
      opt.zero_grad();
      dchag::model::ForecastModel::Output out;
      {
        ScopedSpan s(tracer, "train.forward", step, track);
        out = fm.forward(local, p.future);
      }
      const auto sb = comm.stats().total_calls();
      {
        ScopedSpan s(tracer, "train.backward", step, track);
        out.loss.backward();
      }
      counts.backward_calls += comm.stats().total_calls() - sb;
      {
        ScopedSpan s(tracer, "train.optim", step, track);
        opt.step();
      }
    }
    const auto s1 = comm.stats();
    comm.barrier();
    if (comm.rank() == 0) {
      counts.flops = ops::flops_executed() - f0;
      counts.calls = s1.total_calls() - s0.total_calls();
      counts.bytes = s1.total_payload_bytes() - s0.total_payload_bytes();
    }
    local_partial.emplace_back(kRanks, 0.0);  // this rank's own rows
    trace_frontend_layers(tracer, comm, fm, *twin, local, step,
                          local_partial.back());
    if (comm.rank() == 0) stop = now_ns() >= end;
    sync.arrive_and_wait();
    const bool done = stop;
    sync.arrive_and_wait();
    if (done) break;
  }
}

}  // namespace

Report run_dchag_train(const Options& opt) {
  Report rep;
  const dchag::runtime::Context ctx = pinned_context();
  dchag::runtime::Scope scope(ctx);

  // Inputs before any timing.
  dchag::data::WeatherGenerator gen(weather_config(), opt.seed);
  Pool pool;
  for (std::size_t i = 0; i < kPool; ++i) pool.push_back(gen.sample_pair(kBatch, 1.0f));

  // Set-up: world, per-rank model build and the first train step, whose
  // loss must be finite and identical on every rank.
  std::vector<double> setup_s;
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    std::vector<RankLog> logs(kRanks);
    const std::int64_t t0 = now_ns();
    dchag::comm::World world(kRanks);
    world.run([&](dchag::comm::Communicator& comm) {
      auto fm = build(opt.seed, comm);
      const auto curve = dchag::train::train_forecast(
          *fm, loop_config(1),
          [&](Index) { return std::make_pair(pool[0].now, pool[0].future); }, ctx);
      logs[static_cast<std::size_t>(comm.rank())].losses = curve.losses;
    });
    setup_s.push_back(seconds_between(t0, now_ns()));
    const std::size_t before = rep.failures.size();
    check_ranks(logs, rep);
    ++rep.attempted;
    if (rep.failures.size() != before) ++rep.failed;
  }

  Tracer tracer(opt.trace);
  std::vector<RankLog> logs(kRanks);
  std::vector<double> step_ms;
  std::vector<std::vector<double>> lp_rows[kRanks];
  TracedCounts counts[kRanks];
  std::barrier<> sync(kRanks);
  bool stop = false;
  dchag::comm::World world(kRanks);
  world.run([&](dchag::comm::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    auto fm = build(opt.seed, comm);
    const double timed = opt.trace ? 0.25 * opt.seconds : opt.seconds;
    std::vector<double> ms =
        train_loop(comm, *fm, pool, ctx, timed, /*warm_steps=*/2, sync, stop, logs[r]);
    if (r == 0) step_ms = std::move(ms);
    if (opt.trace) {
      dchag::runtime::Scope s(ctx);
      traced_steps(comm, *fm, pool, 0.45 * opt.seconds, sync, stop, tracer,
                   lp_rows[r], counts[r]);
    }
    logs[r].replicated = replicated_values(*fm);
  });

  const std::uint64_t steps = logs[0].losses.size();
  rep.attempted += steps;
  const std::size_t before = rep.failures.size();
  check_ranks(logs, rep);
  for (const RankLog& l : logs) {
    rep.check(l.backward_calls == 0, "backward issues no collectives (paper 3.3)");
    rep.check(l.run_calls == 0,
              "train steps issue only their forwards' collectives");
  }
  if (rep.failures.size() != before) rep.failed += steps;

  const Summary s = summarize(step_ms, 90.0);
  const std::vector<double> rates = window_rates(step_ms, kBatch, kRateWindowS);
  const double sps = median(rates);
  if (!opt.trace) {
    rep.warn_unless(s.tail_ok, "p90_ms: fewer than 10 samples beyond p90");
    rep.detail = {{"samples_per_s", sps, "samples/s", rates.size()},
                  {"p50_ms", s.p50, "ms", s.n},
                  {"p90_ms", s.tail, "ms", s.n},
                  {"comm.backward_calls",
                   static_cast<double>(logs[0].backward_calls), "count", 1}};
    rep.end_to_end = {
        {"setup_s", median(setup_s), "s", setup_s.size()},
        {"p50_ms", s.p50, "ms", s.n},
        {"rate_per_s", sps, "1/s", rates.size()},
        {"peak_rss_mb", peak_rss_mb(), "MB", 0},
    };
  } else {
    std::uint64_t backward_calls = 0;
    for (const TracedCounts& c : counts) backward_calls += c.backward_calls;
    rep.check(backward_calls == 0, "backward issues no collectives (paper 3.3)");
    // Every rank recorded its own row per step; merge by step index.
    std::vector<std::vector<double>> lp(lp_rows[0].size(),
                                        std::vector<double>(kRanks, 0.0));
    for (std::size_t r = 0; r < kRanks; ++r)
      for (std::size_t i = 0; i < lp.size() && i < lp_rows[r].size(); ++i)
        lp[i][r] = lp_rows[r][i][r];
    const auto spans = tracer.summarize();
    print_span_table(spans);
    add_frontend_metrics(spans, "train.forward", lp, rep);
    const double step = span_median(spans, "train.step");
    auto L = [&](const char* name, double v, const char* unit) {
      rep.per_layer.push_back({name, v, unit, 0});
    };
    L("train.forward_ms", span_median(spans, "train.forward"), "ms");
    L("train.backward_ms", span_median(spans, "train.backward"), "ms");
    L("train.optim_ms", span_median(spans, "train.optim"), "ms");
    L("comm.calls_per_step", static_cast<double>(counts[0].calls), "count");
    L("comm.bytes_per_step", static_cast<double>(counts[0].bytes), "bytes");
    L("comm.backward_calls", static_cast<double>(backward_calls), "count");
    L("tensor.flops_per_sample", static_cast<double>(counts[0].flops) / kBatch,
      "flop");
    L("tensor.achieved_gflops",
      static_cast<double>(counts[0].flops) / (step * 1e-3) * 1e-9, "GFLOP/s");
    const Index bs = kBatch * model_config().seq_len();
    const Index d = model_config().embed_dim;
    L("tensor.gemm_gflops",
      gemm_gflops({{bs, d, 4 * d}, {bs, 4 * d, d}, {bs, d, d}}), "GFLOP/s");
    L("trace.overhead_pct", 100.0 * (step / s.p50 - 1.0), "%");
    if (!opt.trace_out.empty()) tracer.write_chrome_json(opt.trace_out);
  }
  return rep;
}

}  // namespace perfbench
