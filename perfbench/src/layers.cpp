#include "layers.hpp"

#include <cstdio>
#include <string>
#include <thread>

#include "core/features.hpp"
#include "core/spatial.hpp"
#include "core/temporal.hpp"
#include "linalg/gemm.hpp"
#include "nn/conv.hpp"
#include "nn/ops.hpp"
#include "nn/quant_state.hpp"
#include "obs/obs.hpp"
#include "quant/quantize.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace pdnn;

namespace {

/// A span's median duration as a per-layer metric. The spans come
/// round-robin over `designs` designs; each design's median weighs the same.
void span_metric(Report& report, const std::string& metric,
                 const std::string& span, std::size_t designs) {
  const Samples d = spans().durations_us(span);
  report.metric(metric, stream_percentile(d, designs, 50.0), "us",
                static_cast<std::int64_t>(d.size()));
}

}  // namespace

void stage_probe(const std::vector<const DesignRig*>& rigs, double seconds,
                 Report& report) {
  PDN_CHECK(obs::enabled(), "stage_probe: counters need obs enabled");
  constexpr int kBatch = 8;
  const std::size_t designs = rigs.size();
  std::vector<core::SpatialCompressor> spatial;
  std::vector<nn::Var> d_tilde(designs);
  for (const DesignRig* rig : rigs) spatial.emplace_back(*rig->grid);
  // Subnet 1 runs once per design at pipeline construction; time it a few
  // times here, round-robin over the designs like every other span.
  for (int k = 0; k < 5; ++k) {
    for (std::size_t r = 0; r < designs; ++r) {
      nn::NoGradGuard no_grad;
      const nn::Var distance(rigs[r]->pipeline->distance());
      const std::int64_t t0 = now_ns();
      nn::Var reduced = rigs[r]->artifact.model->reduce_distance(distance);
      spans().add("model.reduce_distance", t0, now_ns());
      if (k == 0) d_tilde[r] = std::move(reduced);
    }
  }

  Samples kept;
  std::int64_t requests = 0, pool_runs = 0, pool_chunks = 0, chunk_nanos = 0;
  std::int64_t request_id = 0;
  const std::int64_t begin = now_ns();
  for (int i = 0; seconds_between(begin, now_ns()) < seconds || i < kBatch;
       ++i) {
    for (std::size_t r = 0; r < designs; ++r) {
      const DesignRig& rig = *rigs[r];
      const core::WorstCaseNoiseNet& model = *rig.artifact.model;
      const auto t = static_cast<std::size_t>(i) % rig.traces.size();
      const vectors::CurrentTrace& trace = rig.traces[t];
      const std::int64_t req = ++request_id;
      const std::int64_t parent = spans().reserve_id();

      // Algorithm 1 stages through the public core functions; the feature
      // stack is charged to temporal, as prepare() charges it.
      const std::int64_t t0 = now_ns();
      const std::vector<util::MapF> maps = spatial[r].current_maps(trace);
      const std::int64_t t1 = now_ns();
      const core::TemporalCompressionResult tc = core::compress_temporal(
          core::total_current_sequence(maps), rig.pipeline->options().temporal);
      const nn::Tensor currents = core::stack_current_maps(
          maps, tc.kept, model.config().current_scale);
      const std::int64_t t2 = now_ns();
      spans().add("core.spatial", t0, t1, parent, req);
      spans().add("core.temporal", t1, t2, parent, req);
      kept.add(static_cast<double>(tc.kept.size()));

      // The served path, with the pool counters of exactly these calls.
      const obs::CounterSnapshot c0 = obs::snapshot_counters();
      const std::int64_t t3 = now_ns();
      const core::PreparedRequest prepared = rig.pipeline->prepare(trace);
      const std::int64_t t4 = now_ns();
      const util::MapF map = rig.pipeline->infer(prepared);
      const std::int64_t t5 = now_ns();
      const obs::CounterSnapshot c1 = obs::snapshot_counters();
      spans().add("core.prepare", t3, t4, parent, req);
      spans().add("core.infer", t4, t5, parent, req);
      pool_runs += obs::counter_reading(c0, c1, obs::Counter::kPoolRuns);
      pool_chunks += obs::counter_reading(c0, c1, obs::Counter::kPoolChunks);
      chunk_nanos += obs::counter_reading(c0, c1, obs::Counter::kPoolChunkNanos);
      ++requests;
      report.check(maps_identical(map, rig.reference[t]));

      // The model's subnets, called stage by stage.
      nn::NoGradGuard no_grad;
      const std::int64_t t6 = now_ns();
      const nn::Var fused = model.fuse_currents(nn::Var(prepared.currents));
      const std::int64_t t7 = now_ns();
      const nn::Var stats = core::WorstCaseNoiseNet::temporal_stats(fused);
      const std::int64_t t8 = now_ns();
      const nn::Var pred =
          model.predict_noise(nn::concat_channels({d_tilde[r], stats}));
      const std::int64_t t9 = now_ns();
      spans().add("model.fuse_currents", t6, t7, parent, req);
      spans().add("model.temporal_stats", t7, t8, parent, req);
      spans().add("model.predict_noise", t8, t9, parent, req);
      spans().add_with_id(parent, "bench.probe_request", t0, t9, 0, req);
      report.check(maps_identical(
          core::tensor_to_map(pred.value(), model.config().noise_scale),
          rig.reference[t]));

      if (i % kBatch == kBatch - 1 && rig.traces.size() >= kBatch) {
        std::vector<core::PreparedRequest> batch;
        std::vector<const core::PreparedRequest*> ptrs;
        for (int b = 0; b < kBatch; ++b) {
          batch.push_back(rig.pipeline->prepare(rig.traces[b]));
        }
        for (const auto& p : batch) ptrs.push_back(&p);
        const std::int64_t b0 = now_ns();
        const std::vector<util::MapF> out = rig.pipeline->infer_batch(ptrs);
        const std::int64_t b1 = now_ns();
        spans().add("core.infer_batch", b0, b1, 0, 0);
        for (int b = 0; b < kBatch; ++b) {
          report.check(maps_identical(out[b], rig.reference[b]));
        }
      }
    }
  }

  span_metric(report, "core.prepare.us", "core.prepare", designs);
  span_metric(report, "core.spatial.us", "core.spatial", designs);
  span_metric(report, "core.temporal.us", "core.temporal", designs);
  report.metric("core.temporal.kept_steps", kept.mean(), "count",
                static_cast<std::int64_t>(kept.size()));
  span_metric(report, "core.infer.us", "core.infer", designs);
  const Samples batch_us = spans().durations_us("core.infer_batch");
  report.metric("core.infer_batch.us_per_req",
                stream_percentile(batch_us, designs, 50.0) / kBatch,
                "us", static_cast<std::int64_t>(batch_us.size()));
  span_metric(report, "model.fuse_currents.us", "model.fuse_currents",
              designs);
  span_metric(report, "model.temporal_stats.us", "model.temporal_stats",
              designs);
  span_metric(report, "model.predict_noise.us", "model.predict_noise",
              designs);
  span_metric(report, "model.reduce_distance.us", "model.reduce_distance",
              designs);
  report.metric("pool.runs_per_req",
                static_cast<double>(pool_runs) / static_cast<double>(requests),
                "count", requests);
  report.metric("pool.chunk_us_mean",
                pool_chunks > 0 ? static_cast<double>(chunk_nanos) /
                                      static_cast<double>(pool_chunks) * 1e-3
                                : 0.0,
                "us", pool_chunks);
}

namespace {

/// One production conv/deconv layer, keyed by module path. The shape
/// follows from the path and the ModelConfig (model.cpp): fusion_net runs
/// every compressed step as a batch sample at C2 channels; prediction_net
/// runs one request at C3 channels over the tile grid and its two stride-2
/// levels.
struct LayerShape {
  std::string path;
  bool deconv = false;
  int batch = 1;
  int cin = 0, cout = 0;
  int h = 0, w = 0;  ///< input spatial size
  int stride = 1;
  int output_padding = 0;
  nn::PadMode mode = nn::PadMode::kReplicate;

  int out_h() const {
    return deconv ? nn::conv_transpose_out_size(h, 3, stride, 1,
                                                output_padding)
                  : nn::conv_out_size(h, 3, stride, 1);
  }
  int out_w() const {
    return deconv ? nn::conv_transpose_out_size(w, 3, stride, 1,
                                                output_padding)
                  : nn::conv_out_size(w, 3, stride, 1);
  }
  /// Multiply-adds x2: conv per output pixel, deconv per input pixel.
  double flops() const {
    const double pixels = deconv ? static_cast<double>(h) * w
                                 : static_cast<double>(out_h()) * out_w();
    return 2.0 * batch * cin * cout * 9.0 * pixels;
  }
  /// Bytes of the fp32 column matrix the im2col lowering materializes
  /// (conv: cin*9 x Ho*Wo per sample; deconv: cout*9 x H*W per sample).
  double im2col_bytes() const {
    const double rows = deconv ? cout * 9.0 : cin * 9.0;
    const double cols = deconv ? static_cast<double>(h) * w
                               : static_cast<double>(out_h()) * out_w();
    return 4.0 * batch * rows * cols;
  }
  /// Descriptor key in the style of LBANN's ConvFwdParams.as_filename():
  /// x shape, w shape, y shape, pad, stride, dilation, groups, direction.
  std::string key() const {
    const int wc0 = deconv ? cin : cout;
    const int wc1 = deconv ? cout : cin;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "conv2d_%d_%d_%d_%d_%d_%d_3_3_%d_%d_%d_%d_1_1_%d_%d_1_1_1_%s"
                  "_%s",
                  batch, cin, h, w, wc0, wc1, batch, cout, out_h(), out_w(),
                  stride, stride, deconv ? "bwddata" : "fwd",
                  deconv ? "zero" : (mode == nn::PadMode::kZero ? "zero"
                                                                : "repl"));
    return buf;
  }
};

std::vector<LayerShape> layer_shapes(const core::ModelConfig& cfg,
                                     int fusion_batch) {
  const int m = cfg.tile_rows, n = cfg.tile_cols;
  const int m1 = nn::conv_out_size(m, 3, 2, 1), n1 = nn::conv_out_size(n, 3, 2, 1);
  const int m2 = nn::conv_out_size(m1, 3, 2, 1), n2 = nn::conv_out_size(n1, 3, 2, 1);
  const int c2 = cfg.c2, c3 = cfg.c3, t = fusion_batch;
  auto conv = [](std::string p, int b, int ci, int co, int h, int w, int s) {
    LayerShape l;
    l.path = std::move(p);
    l.batch = b, l.cin = ci, l.cout = co, l.h = h, l.w = w, l.stride = s;
    return l;
  };
  auto deconv = [&](std::string p, int b, int ci, int co, int h, int w) {
    LayerShape l = conv(std::move(p), b, ci, co, h, w, 2);
    l.deconv = true;
    l.output_padding = 1;
    l.mode = nn::PadMode::kZero;
    return l;
  };
  return {
      conv("fusion_net.enc1", t, 1, c2, m, n, 1),
      conv("fusion_net.enc2", t, c2, c2, m, n, 2),
      deconv("fusion_net.dec1", t, c2, c2, m1, n1),
      conv("fusion_net.dec2", t, c2, 1, m, n, 1),
      conv("prediction_net.in_conv", 1, 4, c3, m, n, 1),
      conv("prediction_net.down1_a", 1, c3, c3, m, n, 2),
      conv("prediction_net.down1_b", 1, c3, c3, m1, n1, 1),
      conv("prediction_net.down2_a", 1, c3, c3, m1, n1, 2),
      conv("prediction_net.down2_b", 1, c3, c3, m2, n2, 1),
      deconv("prediction_net.up1", 1, c3, c3, m2, n2),
      conv("prediction_net.up1_conv", 1, 2 * c3, c3, m1, n1, 1),
      deconv("prediction_net.up2", 1, c3, c3, m1, n1),
      conv("prediction_net.up2_conv", 1, 2 * c3, c3, m, n, 1),
      conv("prediction_net.out_conv", 1, c3, 1, m, n, 1),
  };
}

const nn::Parameter& find_param(std::vector<nn::Parameter*>& params,
                                const std::string& name) {
  for (const nn::Parameter* p : params) {
    if (p->name == name) return *p;
  }
  throw util::CheckError("conv_replay: no parameter " + name);
}

nn::Tensor random_tensor(std::vector<int> shape, util::Rng& rng) {
  nn::Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return t;
}

constexpr double kReplaySeconds = 0.04;
constexpr int kReplayCalls = 20;

}  // namespace

void conv_replay(const DesignRig& rig, int fusion_batch, Report& report) {
  // Kernel peaks first: the denominators of achieved-over-peak.
  {
    constexpr int kN = 256;
    std::vector<float> a(kN * kN, 0.5f), b(kN * kN, 0.25f), c(kN * kN);
    const Samples us = time_calls(
        [&] {
          linalg::gemm_nn(kN, kN, kN, 1.0f, a.data(), kN, b.data(), kN, 0.0f,
                          c.data(), kN);
        },
        0.2, 10);
    const double flops = 2.0 * kN * kN * kN;
    report.metric("linalg.gemm.peak_gflops", flops / (us.median() * 1e3),
                  "GFLOP/s", static_cast<std::int64_t>(us.size()));
    std::vector<std::int8_t> qa(kN * kN, 3), qb(kN * kN, -5);
    std::vector<std::int32_t> qc(kN * kN);
    const Samples qus = time_calls(
        [&] {
          linalg::gemm_s8(kN, kN, kN, qa.data(), kN, qb.data(), kN, qc.data(),
                          kN);
        },
        0.2, 10);
    report.metric("linalg.gemm_s8.peak_gops", flops / (qus.median() * 1e3),
                  "GOP/s", static_cast<std::int64_t>(qus.size()));
  }

  core::WorstCaseNoiseNet& model = *rig.artifact.model;
  std::vector<nn::Parameter*> params = model.parameters();
  util::Rng rng(0x5eed);
  obs::JsonValue table = obs::JsonValue::array();
  nn::NoGradGuard no_grad;
  for (const LayerShape& l : layer_shapes(model.config(), fusion_batch)) {
    const nn::Parameter& weight = find_param(params, l.path + ".weight");
    const nn::Parameter& bias = find_param(params, l.path + ".bias");
    const std::vector<int> wshape =
        l.deconv ? std::vector<int>{l.cin, l.cout, 3, 3}
                 : std::vector<int>{l.cout, l.cin, 3, 3};
    PDN_CHECK(weight.var.value().shape() == wshape,
              "conv_replay: derived shape of " + l.path +
                  " disagrees with its weight " +
                  weight.var.value().shape_string());
    const nn::Var x(random_tensor({l.batch, l.cin, l.h, l.w}, rng));
    const Samples fp32 = time_calls(
        [&] {
          if (l.deconv) {
            nn::conv_transpose2d(x, weight.var, bias.var, l.stride, 1,
                                 l.output_padding);
          } else {
            nn::conv2d(x, weight.var, bias.var, l.stride, 1, l.mode);
          }
        },
        kReplaySeconds, kReplayCalls);
    // int8: convs run the quantized op with per-tensor scales from the
    // weights and this input; deconvs have no int8 path and stay fp32.
    Samples s8;
    if (l.deconv) {
      s8 = fp32;
    } else {
      const quant::QuantizedTensor qw = quant::quantize_tensor(weight.var.value());
      nn::ParamQuant pq;
      pq.q = qw.q;
      pq.weight_scale = qw.scale;
      pq.act_scale = quant::symmetric_scale(
          quant::absmax(x.value().data(), x.value().numel()));
      s8 = time_calls(
          [&] {
            nn::quantized_conv2d(x, pq, weight.var, bias.var, l.stride, 1,
                                 l.mode);
          },
          kReplaySeconds, kReplayCalls);
    }
    const double us = fp32.median();
    const double gflops = l.flops() / (us * 1e3);
    const auto n = static_cast<std::int64_t>(fp32.size());
    report.metric("nn." + l.path + ".us", us, "us", n);
    report.metric("nn." + l.path + ".gflops", gflops, "GFLOP/s", n);
    report.metric("nn." + l.path + ".s8.us", s8.median(), "us",
                  static_cast<std::int64_t>(s8.size()));

    obs::JsonValue row = obs::JsonValue::object();
    row.set("path", l.path);
    row.set("key", l.key());
    row.set("flops", l.flops());
    row.set("im2col_bytes", l.im2col_bytes());
    row.set("int8", !l.deconv);
    table.push(std::move(row));
  }
  report.info().set("conv_table", std::move(table));
  report.info().set("conv_table_note",
                    "flops and im2col bytes are computed from the layer "
                    "shape, not measured");
}

void pool_dispatch(Report& report) {
  const int chunks = static_cast<int>(std::thread::hardware_concurrency());
  const std::function<void(std::int64_t)> empty = [](std::int64_t) {};
  const Samples us = time_calls(
      [&] { util::ThreadPool::global().run(chunks, empty); }, 0.1, 200);
  report.metric("pool.dispatch_us", us.median(), "us",
                static_cast<std::int64_t>(us.size()));
}

void setup_layers(const SetupCosts& costs, Report& report) {
  const auto vectors = costs.golden_vectors;
  report.metric("sim.ms_per_trace",
                costs.golden_seconds / static_cast<double>(vectors) * 1e3,
                "ms", vectors);
  report.metric("sim.steps_per_s",
                static_cast<double>(costs.golden_steps) / costs.golden_seconds,
                "1/s", vectors);
  report.metric("cholesky.solves", static_cast<double>(costs.chol_solves),
                "count", vectors);
  report.metric("cholesky.solve_columns",
                static_cast<double>(costs.chol_columns), "count", vectors);
  report.metric("sparse.factor_ms", costs.factor_ms.median(), "ms",
                static_cast<std::int64_t>(costs.factor_ms.size()));
  report.metric("sim.calibrate_s", costs.calibrate_s.sum(), "s",
                static_cast<std::int64_t>(costs.calibrate_s.size()));
  report.metric("train.gflops",
                static_cast<double>(costs.train_flops) / costs.train_seconds *
                    1e-9,
                "GFLOP/s", costs.train_sample_visits);
  report.metric("artifact.load_ms", costs.artifact_load_ms.median(), "ms",
                static_cast<std::int64_t>(costs.artifact_load_ms.size()));
}

}  // namespace perfbench
