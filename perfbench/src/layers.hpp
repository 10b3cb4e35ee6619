// The per-layer breakdown of one D-CHAG rank, shared by the dchag_serve
// and dchag_train traced runs. Every call is a public function of the
// system timed from here: the rank's tokenizer, partial aggregation tree,
// a direct AllGather of the [B, S, D] representation, the final
// cross-attention, the whole front end, and the rank-local partial stage.
#pragma once

#include <map>
#include <vector>

#include "bench.hpp"
#include "comm/communicator.hpp"
#include "model/foundation.hpp"
#include "model/tokenizer.hpp"

namespace perfbench {

/// A tokenizer with the same shape as the rank's own (same config and
/// channel ids, so the same GEMMs); DchagFrontEnd does not expose its
/// tokenizer, so the benchmark times an identical one.
[[nodiscard]] std::unique_ptr<dchag::model::PatchTokenizer> twin_tokenizer(
    const dchag::model::ModelConfig& cfg, std::int64_t total_channels,
    const dchag::comm::Communicator& comm);

/// One pass of the layer calls on this rank, each between barriers so the
/// ranks start it together, recorded as spans with `id` on track rank.
/// `local_partial_ms[rank]` receives this rank's local-partial time.
void trace_frontend_layers(Tracer& tracer, dchag::comm::Communicator& comm,
                           const dchag::model::ForecastModel& model,
                           const dchag::model::PatchTokenizer& twin,
                           const dchag::tensor::Tensor& local,
                           std::uint64_t id,
                           std::vector<double>& local_partial_ms);

/// core.* / model.* / comm.all_gather_ms from the recorded spans;
/// `whole_ms` is the span name of the model call the front end sits in
/// (its median minus the front end's is model.encoder_head_ms).
void add_frontend_metrics(const std::map<std::string, SpanStats>& spans,
                          const std::string& whole,
                          const std::vector<std::vector<double>>& local_partial,
                          Report& rep);

/// Median duration of the spans called `name` (0 when none).
[[nodiscard]] double span_median(const std::map<std::string, SpanStats>& spans,
                                 const std::string& name);

}  // namespace perfbench
