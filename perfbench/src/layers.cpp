#include "layers.hpp"

#include <algorithm>

#include "core/dchag_frontend.hpp"
#include "parallel/dist_tokenizer.hpp"
#include "tensor/rng.hpp"

namespace perfbench {

using dchag::autograd::Variable;
using dchag::tensor::Shape;
using dchag::tensor::Tensor;

std::unique_ptr<dchag::model::PatchTokenizer> twin_tokenizer(
    const dchag::model::ModelConfig& cfg, std::int64_t total_channels,
    const dchag::comm::Communicator& comm) {
  dchag::tensor::Rng rng(0x7717);
  return std::make_unique<dchag::model::PatchTokenizer>(
      cfg, dchag::parallel::channel_shard(total_channels, comm.size(), comm.rank()),
      rng);
}

void trace_frontend_layers(Tracer& tracer, dchag::comm::Communicator& comm,
                           const dchag::model::ForecastModel& model,
                           const dchag::model::PatchTokenizer& twin,
                           const Tensor& local, std::uint64_t id,
                           std::vector<double>& local_partial_ms) {
  const auto& fe =
      dynamic_cast<const dchag::core::DchagFrontEnd&>(model.frontend());
  const auto track = static_cast<std::uint32_t>(comm.rank());
  const std::int64_t B = local.dim(0);
  const std::int64_t S = model.config().seq_len();
  const std::int64_t D = model.config().embed_dim;

  comm.barrier();
  {
    ScopedSpan s(tracer, "core.local_partial", id, track);
    const std::int64_t t0 = now_ns();
    (void)fe.forward_local_partial(local);
    local_partial_ms[static_cast<std::size_t>(comm.rank())] =
        ms_between(t0, now_ns());
  }
  comm.barrier();
  Variable tokens;
  {
    ScopedSpan s(tracer, "model.tokenizer", id, track);
    tokens = twin.forward(local);  // [B, Cl, S, D]
  }
  const Variable bscd = dchag::autograd::permute(tokens, {0, 2, 1, 3});
  comm.barrier();
  Variable partial;
  {
    ScopedSpan s(tracer, "model.tree", id, track);
    partial = fe.partial_tree().forward(bscd);  // [B, S, D]
  }
  comm.barrier();
  std::vector<float> gathered(static_cast<std::size_t>(B * S * D * comm.size()));
  {
    ScopedSpan s(tracer, "comm.all_gather", id, track);
    const Tensor& send = partial.value();
    comm.all_gather({send.data(), static_cast<std::size_t>(send.numel())},
                    gathered);
  }
  // The final aggregator's input layout [B, S, P, D]; its cost does not
  // depend on the values, so the gathered buffer is reused as-is.
  const Variable final_in = Variable::input(Tensor::from_data(
      Shape{B, S, comm.size(), D}, std::move(gathered)));
  comm.barrier();
  {
    ScopedSpan s(tracer, "model.final_agg", id, track);
    (void)fe.final_aggregator().forward(final_in);
  }
  comm.barrier();
  {
    ScopedSpan s(tracer, "core.frontend", id, track);
    (void)model.frontend().forward(local);
  }
  comm.barrier();
}

double span_median(const std::map<std::string, SpanStats>& spans,
                   const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : median(it->second.duration_ms);
}

void add_frontend_metrics(const std::map<std::string, SpanStats>& spans,
                          const std::string& whole,
                          const std::vector<std::vector<double>>& local_partial,
                          Report& rep) {
  std::vector<double> skew;
  for (const auto& per_rank : local_partial) {
    if (per_rank.empty()) continue;
    const auto [lo, hi] = std::minmax_element(per_rank.begin(), per_rank.end());
    skew.push_back(*hi - *lo);
  }
  const double frontend = span_median(spans, "core.frontend");
  const double partial = span_median(spans, "core.local_partial");
  const double final_agg = span_median(spans, "model.final_agg");
  auto L = [&](const char* name, double v) {
    rep.per_layer.push_back({name, v, "ms", 0});
  };
  L("core.frontend_ms", frontend);
  L("core.local_partial_ms", partial);
  L("core.gather_wait_ms", frontend - partial - final_agg);
  L("core.rank_skew_ms", median(skew));
  L("model.tokenizer_ms", span_median(spans, "model.tokenizer"));
  L("model.tree_ms", span_median(spans, "model.tree"));
  L("model.final_agg_ms", final_agg);
  L("model.encoder_head_ms", span_median(spans, whole) - frontend);
  L("comm.all_gather_ms", span_median(spans, "comm.all_gather"));
}

}  // namespace perfbench
