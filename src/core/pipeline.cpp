#include "core/pipeline.hpp"

#include <string>

#include "core/features.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace pdnn::core {

WorstCasePipeline::WorstCasePipeline(const pdn::PowerGrid& grid,
                                     const WorstCaseNoiseNet& model,
                                     PipelineOptions options)
    : grid_(grid),
      model_(model),
      options_(options),
      spatial_(grid),
      distance_(distance_feature(grid)) {
  // The convs accept any map size, so an artifact trained on another design
  // would otherwise run and serve a plausible but wrong map.
  const ModelConfig& cfg = model_.config();
  const pdn::DesignSpec& spec = grid.spec();
  PDN_CHECK(cfg.tile_rows == spec.tile_rows && cfg.tile_cols == spec.tile_cols,
            "WorstCasePipeline: artifact architecture mismatch: model tiles " +
                std::to_string(cfg.tile_rows) + " x " +
                std::to_string(cfg.tile_cols) + ", grid '" + spec.name +
                "' tiles " + std::to_string(spec.tile_rows) + " x " +
                std::to_string(spec.tile_cols));
  PDN_CHECK(cfg.distance_channels == distance_.c(),
            "WorstCasePipeline: artifact architecture mismatch: model "
            "distance_channels " +
                std::to_string(cfg.distance_channels) + ", grid '" +
                spec.name + "' bumps " + std::to_string(distance_.c()));
  nn::NoGradGuard no_grad;
  distance_reduced_ =
      model_.reduce_distance(nn::Var(distance_)).value();
}

PreparedRequest WorstCasePipeline::prepare(
    const vectors::CurrentTrace& trace) const {
  obs::StageTimer stage;
  PreparedRequest out;

  // 1) Spatial compression: node-level loads -> tile current maps.
  const std::vector<util::MapF> maps = spatial_.current_maps(trace);
  out.spatial_seconds = stage.lap("pipeline.spatial");

  // 2) Temporal compression: Algorithm 1 on the total-current sequence.
  const TemporalCompressionResult tc =
      compress_temporal(total_current_sequence(maps), options_.temporal);
  out.temporal_seconds = stage.lap("pipeline.temporal");

  // Feature assembly is charged to the temporal stage boundary; it is a
  // copy, not a compression step.
  out.currents =
      stack_current_maps(maps, tc.kept, model_.config().current_scale);
  out.kept_steps = static_cast<int>(tc.kept.size());
  return out;
}

util::MapF WorstCasePipeline::infer(const PreparedRequest& request,
                                    PredictionTiming* timing) const {
  obs::StageTimer stage;
  std::vector<util::MapF> maps = infer_batch({&request});
  const double inference_s = stage.lap("pipeline.inference");
  if (timing) {
    timing->spatial_seconds = request.spatial_seconds;
    timing->temporal_seconds = request.temporal_seconds;
    timing->inference_seconds = inference_s;
    timing->total_seconds = request.spatial_seconds +
                            request.temporal_seconds + inference_s;
    timing->kept_steps = request.kept_steps;
  }
  return std::move(maps.front());
}

std::vector<util::MapF> WorstCasePipeline::infer_batch(
    const std::vector<const PreparedRequest*>& batch) const {
  PDN_CHECK(!batch.empty(), "infer_batch: empty batch");
  obs::TraceSpan span("pipeline.infer_batch", "width",
                      static_cast<std::int64_t>(batch.size()));
  nn::NoGradGuard no_grad;

  // Fuse every request's compressed steps through ONE subnet-2 conv pass:
  // T is a pure batch axis for the fusion net, so the concatenation only
  // changes how much work one im2col/GEMM lowering amortizes, never the
  // per-step bits.
  std::vector<nn::Tensor> stacks;
  stacks.reserve(batch.size());
  for (const PreparedRequest* r : batch) {
    PDN_CHECK(r != nullptr && r->currents.defined(),
              "infer_batch: undefined prepared request");
    stacks.push_back(r->currents);
  }
  const nn::Tensor all_steps = nn::Tensor::concat_n(stacks);
  const nn::Var fused = model_.fuse_currents(nn::Var(all_steps));

  // Per-request temporal reductions over each request's own step range,
  // then one [B, 4, m, n] subnet-3 pass over the stacked features.
  const nn::Var d_tilde{distance_reduced_};
  std::vector<nn::Tensor> features;
  features.reserve(batch.size());
  int offset = 0;
  for (const PreparedRequest* r : batch) {
    const int steps = r->currents.n();
    const nn::Var slice{fused.value().narrow_n(offset, steps)};
    offset += steps;
    const nn::Var stats = WorstCaseNoiseNet::temporal_stats(slice);
    features.push_back(
        nn::concat_channels({d_tilde, stats}).value());
  }
  const nn::Var stacked{nn::Tensor::concat_n(features)};
  const nn::Var pred = model_.predict_noise(stacked);

  const float noise_scale = model_.config().noise_scale;
  std::vector<util::MapF> out;
  out.reserve(batch.size());
  for (int i = 0; i < static_cast<int>(batch.size()); ++i) {
    out.push_back(tensor_to_map(pred.value().narrow_n(i, 1), noise_scale));
  }
  return out;
}

util::MapF WorstCasePipeline::predict(const vectors::CurrentTrace& trace,
                                      PredictionTiming* timing) const {
  // One StageTimer drives the total so the stage times reported through
  // `timing` come from the same clock source as the trace spans.
  obs::StageTimer total;
  const PreparedRequest request = prepare(trace);
  util::MapF result = infer(request, timing);
  const double total_s = total.lap("pipeline.predict");
  if (timing) timing->total_seconds = total_s;
  return result;
}

}  // namespace pdnn::core
