// Workload `dchag_serve`: serve::SpmdEngine at 4 ranks on many channels
// (128 bands from data::HyperspectralGenerator, 32x32, batch 8), planned
// forward, one closed-loop caller. This is the paper's regime: per-call
// time grows with the channel count, so the per-channel tokenizer and the
// partial aggregation tree do most of the work and the forward-only
// AllGather and final cross-attention sit on the blocking path.
#include <cstdio>

#include "bench.hpp"
#include "core/dchag_frontend.hpp"
#include "data/hyperspectral.hpp"
#include "layers.hpp"
#include "serve/spmd_engine.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"

namespace perfbench {

using dchag::tensor::Index;
using dchag::tensor::Tensor;

namespace {

constexpr int kRanks = 4;
constexpr Index kBands = 128;
constexpr Index kImage = 32;
constexpr Index kBatch = 8;
constexpr std::size_t kPool = 4;
constexpr int kSetupTrials = 5;
/// samples_per_s is the median over stretches of this much call time.
constexpr double kRateWindowS = 2.0;

dchag::model::ModelConfig model_config() {
  dchag::model::ModelConfig cfg = dchag::model::ModelConfig::tiny();
  cfg.image_h = kImage;
  cfg.image_w = kImage;
  return cfg;
}

dchag::serve::SpmdEngine::RankModelFactory factory(std::uint64_t seed) {
  return [seed](dchag::comm::Communicator& comm) {
    dchag::tensor::Rng rng(seed);
    return dchag::core::make_dchag_forecast(
        model_config(), kBands, comm,
        {/*tree_units=*/1, dchag::model::AggLayerKind::kCrossAttention}, rng);
  };
}

bool same_tensor(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         bit_identical(a.data(), b.data(), static_cast<std::size_t>(a.numel()));
}

/// The unplanned answers (eval-mode model, no freeze, no arena: what
/// EngineOptions{.plan = false} runs) for every pool batch, computed on a
/// separate world before anything is timed.
std::vector<Tensor> reference_answers(std::uint64_t seed,
                                      const std::vector<Tensor>& pool,
                                      const dchag::runtime::Context& ctx) {
  std::vector<Tensor> out(pool.size());
  dchag::comm::World world(kRanks);
  world.run([&](dchag::comm::Communicator& comm) {
    dchag::runtime::Scope scope(ctx);
    dchag::autograd::NoGradGuard no_grad;
    auto model = factory(seed)(comm);
    model->eval();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const Tensor pred =
          model->predict(model->frontend().select_input(pool[i]), 1.0f).value();
      if (comm.rank() == 0) out[i] = pred.clone();
    }
  });
  return out;
}

/// Traced breakdown on a world built exactly as SpmdEngine builds its
/// ranks (frozen model, rank-private arena, the engine's context).
void trace_layers(std::uint64_t seed, const std::vector<Tensor>& pool,
                  const dchag::runtime::Context& ctx, int reps, Tracer& tracer,
                  Report& rep) {
  namespace ops = dchag::tensor::ops;
  namespace plan = dchag::tensor::plan;
  std::vector<std::vector<double>> local_partial(
      static_cast<std::size_t>(reps), std::vector<double>(kRanks, 0.0));
  std::uint64_t calls = 0, bytes = 0, allocs = 0, flops = 0;
  double reuse = 0.0;
  dchag::comm::World world(kRanks);
  world.run([&](dchag::comm::Communicator& comm) {
    dchag::runtime::Scope scope(ctx);
    dchag::autograd::NoGradGuard no_grad;
    auto model = factory(seed)(comm);
    model->freeze_for_serving();
    auto twin = twin_tokenizer(model_config(), kBands, comm);
    twin->freeze_for_serving();
    plan::Arena arena;
    plan::ArenaScope arena_scope(arena);
    const auto track = static_cast<std::uint32_t>(comm.rank());
    std::vector<Tensor> local;
    for (const Tensor& x : pool) local.push_back(model->frontend().select_input(x));

    for (std::size_t i = 0; i < 2; ++i)  // warm-up: arena lanes, packs
      (void)model->predict(local[i % local.size()], 1.0f);
    std::uint64_t steady_allocs = 0;
    for (int r = 0; r < reps; ++r) {
      const Tensor& x = local[static_cast<std::size_t>(r) % local.size()];
      trace_frontend_layers(tracer, comm, *model, *twin, x,
                            static_cast<std::uint64_t>(r),
                            local_partial[static_cast<std::size_t>(r)]);
      const auto s0 = comm.stats();
      const std::uint64_t f0 = ops::flops_executed();
      const std::uint64_t a0 = plan::thread_buffer_allocations();
      {
        ScopedSpan s(tracer, "model.predict", static_cast<std::uint64_t>(r),
                     track);
        (void)model->predict(x, 1.0f);
      }
      steady_allocs += plan::thread_buffer_allocations() - a0;
      const auto s1 = comm.stats();
      comm.barrier();
      if (comm.rank() == 0) {
        calls = s1.total_calls() - s0.total_calls();
        bytes = s1.total_payload_bytes() - s0.total_payload_bytes();
        flops = ops::flops_executed() - f0;
      }
      comm.barrier();
    }
    if (comm.rank() == 0) {
      allocs = steady_allocs;
      const auto st = arena.stats();
      reuse = static_cast<double>(st.reused) /
              static_cast<double>(std::max<std::uint64_t>(1, st.fresh + st.reused));
    }
  });
  const auto spans = tracer.summarize();
  print_span_table(spans);
  add_frontend_metrics(spans, "model.predict", local_partial, rep);
  const double predict_ms = span_median(spans, "model.predict");
  auto L = [&](const char* name, double v, const char* unit) {
    rep.per_layer.push_back({name, v, unit, 0});
  };
  L("comm.calls_per_step", static_cast<double>(calls), "count");
  L("comm.bytes_per_step", static_cast<double>(bytes), "bytes");
  L("serve.arena_reuse_ratio", reuse, "ratio");
  L("serve.steady_allocs", static_cast<double>(allocs), "count");
  L("tensor.flops_per_sample", static_cast<double>(flops) / kBatch, "flop");
  L("tensor.achieved_gflops",
    static_cast<double>(flops) / (predict_ms * 1e-3) * 1e-9, "GFLOP/s");
}

}  // namespace

Report run_dchag_serve(const Options& opt) {
  Report rep;
  const dchag::runtime::Context ctx = pinned_context();
  dchag::runtime::Scope scope(ctx);

  // Inputs and the unplanned reference answers, before any timing.
  dchag::data::HyperspectralConfig hc;
  hc.channels = kBands;
  hc.height = kImage;
  hc.width = kImage;
  dchag::data::HyperspectralGenerator gen(hc, opt.seed);
  std::vector<Tensor> pool;
  for (std::size_t i = 0; i < kPool; ++i) pool.push_back(gen.sample_batch(kBatch));
  const std::vector<Tensor> expected = reference_answers(opt.seed, pool, ctx);

  // Set-up: construct the engine (world, per-rank model build, freeze) up
  // to the first correct answer; the last instance is measured.
  std::vector<double> setup_s;
  std::unique_ptr<dchag::serve::SpmdEngine> engine;
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    engine.reset();
    const std::int64_t t0 = now_ns();
    engine = std::make_unique<dchag::serve::SpmdEngine>(
        kRanks, factory(opt.seed), dchag::serve::SpmdEngineConfig{}, ctx);
    const Tensor out = engine->run(pool[0], {}, 1.0f);
    const bool ok = same_tensor(out, expected[0]);
    setup_s.push_back(seconds_between(t0, now_ns()));
    ++rep.attempted;
    if (!ok) ++rep.failed;
    rep.check(ok, "set-up answer bit-identical to the unplanned reference");
  }
  for (int i = 0; i < 3; ++i) (void)engine->run(pool[static_cast<std::size_t>(i) % kPool], {}, 1.0f);

  Tracer tracer(opt.trace);
  Tracer untraced(false);
  // One closed-loop caller; each answer is checked outside its timing.
  auto closed_loop = [&](double seconds, bool traced) {
    std::vector<double> ms;
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t i = 0; now_ns() < end; ++i) {
      const Tensor& x = pool[i % kPool];
      Tensor out;
      {
        ScopedSpan s(traced ? tracer : untraced, "serve.spmd_run", i);
        const std::int64_t t0 = now_ns();
        out = engine->run(x, {}, 1.0f);
        ms.push_back(ms_between(t0, now_ns()));
      }
      const bool ok = same_tensor(out, expected[i % kPool]);
      ++rep.attempted;
      if (!ok) ++rep.failed;
      rep.check(ok, "every SpmdEngine answer bit-identical to the unplanned "
                    "reference");
    }
    return ms;
  };

  if (!opt.trace) {
    const std::vector<double> ms = closed_loop(opt.seconds, false);
    engine.reset();
    const Summary s = summarize(ms, 90.0);
    rep.warn_unless(s.tail_ok, "p90_ms: fewer than 10 samples beyond p90");
    const std::vector<double> rates = window_rates(ms, kBatch, kRateWindowS);
    const double sps = median(rates);
    rep.detail = {{"samples_per_s", sps, "samples/s", rates.size()},
                  {"p50_ms", s.p50, "ms", s.n},
                  {"p90_ms", s.tail, "ms", s.n}};
    rep.end_to_end = {
        {"setup_s", median(setup_s), "s", setup_s.size()},
        {"p50_ms", s.p50, "ms", s.n},
        {"rate_per_s", sps, "1/s", rates.size()},
        {"peak_rss_mb", peak_rss_mb(), "MB", 0},
    };
  } else {
    const std::vector<double> plain = closed_loop(0.2 * opt.seconds, false);
    const std::vector<double> traced = closed_loop(0.2 * opt.seconds, true);
    engine.reset();
    const double call_ms = median(plain);
    const int reps = std::clamp(
        static_cast<int>(0.5 * opt.seconds * 1e3 / (3.0 * call_ms)), 10, 200);
    trace_layers(opt.seed, pool, ctx, reps, tracer, rep);
    const dchag::tensor::Index bsd = kBatch * model_config().seq_len();
    rep.per_layer.push_back(
        {"tensor.gemm_gflops",
         gemm_gflops({{bsd * (kBands / kRanks), 32, 32}, {bsd, 16, 32}}),
         "GFLOP/s", 0});
    rep.per_layer.push_back({"trace.overhead_pct",
                             100.0 * (median(traced) / call_ms - 1.0), "%", 0});
  }
  if (opt.trace && !opt.trace_out.empty()) tracer.write_chrome_json(opt.trace_out);
  return rep;
}

}  // namespace perfbench
