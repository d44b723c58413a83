#include "core/artifact.hpp"

#include <cstdint>
#include <fstream>
#include <string>

#include "nn/serialize.hpp"
#include "quant/serialize.hpp"
#include "store/container.hpp"
#include "util/check.hpp"

namespace pdnn::core {

namespace {

using store::read_field;
using store::write_field;

constexpr char kMagic[5] = "PDNB";
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kVersionQuant = 2;

// Upper bounds on the header's model dimensions. They sit far above the
// paper's largest design (D4: 180 x 180 tiles and about 2k bumps at paper
// scale, 8/8/16 kernels) yet keep every model a valid header can describe
// under 0.4 GB of weights, so an inflated field fails with its name instead
// of as std::bad_alloc inside the model constructor.
constexpr std::int32_t kMaxDistanceChannels = 8192;
constexpr std::int32_t kMaxTileDim = 4096;
constexpr std::int32_t kMaxKernels = 512;

/// Reject a model dimension outside [1, max], naming the field.
void check_dim(std::int32_t value, std::int32_t max, const char* field,
               const std::string& path) {
  PDN_CHECK(value > 0 && value <= max,
            "load_artifact: model dimension " + std::to_string(value) +
                " outside [1, " + std::to_string(max) + "] in " + path +
                " (field '" + field + "')");
}

/// Header reader shared by peek_artifact and load_artifact; leaves the
/// stream positioned at the weight block.
ModelArtifact read_header(std::istream& in, const std::string& path) {
  store::check_magic(in, kMagic, path);
  const auto version = read_field<std::uint32_t>(in, path, "version");
  PDN_CHECK(version == kVersion || version == kVersionQuant,
            "unsupported version " + std::to_string(version) + " in " + path +
                " (expected 1 or 2; field 'version')");

  ModelArtifact art;
  art.version = version;
  art.config.distance_channels =
      read_field<std::int32_t>(in, path, "distance_channels");
  art.config.tile_rows = read_field<std::int32_t>(in, path, "tile_rows");
  art.config.tile_cols = read_field<std::int32_t>(in, path, "tile_cols");
  art.config.c1 = read_field<std::int32_t>(in, path, "c1");
  art.config.c2 = read_field<std::int32_t>(in, path, "c2");
  art.config.c3 = read_field<std::int32_t>(in, path, "c3");
  art.config.current_scale = read_field<float>(in, path, "current_scale");
  art.config.noise_scale = read_field<float>(in, path, "noise_scale");
  art.config.init_seed = read_field<std::uint64_t>(in, path, "init_seed");
  art.temporal.rate = read_field<double>(in, path, "temporal.rate");
  art.temporal.rate_step = read_field<double>(in, path, "temporal.rate_step");
  if (version == kVersionQuant) {
    const auto dtype = read_field<std::uint32_t>(in, path, "dtype");
    PDN_CHECK(
        dtype == static_cast<std::uint32_t>(quant::ParamDtype::kF16) ||
            dtype == static_cast<std::uint32_t>(quant::ParamDtype::kInt8),
        "load_artifact: unknown v2 dtype " + std::to_string(dtype) + " in " +
            path + " (field 'dtype'; expected 1=fp16 or 2=int8)");
    art.dtype = static_cast<quant::ParamDtype>(dtype);
  }

  const ModelConfig& c = art.config;
  check_dim(c.distance_channels, kMaxDistanceChannels, "distance_channels",
            path);
  check_dim(c.tile_rows, kMaxTileDim, "tile_rows", path);
  check_dim(c.tile_cols, kMaxTileDim, "tile_cols", path);
  check_dim(c.c1, kMaxKernels, "c1", path);
  check_dim(c.c2, kMaxKernels, "c2", path);
  check_dim(c.c3, kMaxKernels, "c3", path);
  return art;
}

/// Write the common header (magic through temporal options) for the given
/// container version.
void write_header(std::ostream& out, std::uint32_t version,
                  const ModelConfig& c,
                  const TemporalCompressionOptions& temporal,
                  const std::string& path) {
  store::write_magic(out, kMagic);
  write_field(out, version);
  write_field(out, static_cast<std::int32_t>(c.distance_channels));
  write_field(out, static_cast<std::int32_t>(c.tile_rows));
  write_field(out, static_cast<std::int32_t>(c.tile_cols));
  write_field(out, static_cast<std::int32_t>(c.c1));
  write_field(out, static_cast<std::int32_t>(c.c2));
  write_field(out, static_cast<std::int32_t>(c.c3));
  write_field(out, c.current_scale);
  write_field(out, c.noise_scale);
  write_field(out, c.init_seed);
  write_field(out, temporal.rate);
  write_field(out, temporal.rate_step);
  PDN_CHECK(out.good(), "save_artifact: header write failed for " + path);
}

/// Weight-block reader of load_artifact: dispatches on the version/dtype the
/// header announced.
void load_weights(const ModelArtifact& art,
                  const std::vector<nn::Parameter*>& params, std::istream& in,
                  const std::string& path) {
  if (art.version == kVersion) {
    nn::load_parameters(params, in, path);
  } else if (art.dtype == quant::ParamDtype::kF16) {
    quant::read_f16_block(params, in, path);
  } else {
    quant::read_int8_block(params, in, path);
  }
}

}  // namespace

void save_artifact(WorstCaseNoiseNet& model,
                   const TemporalCompressionOptions& temporal,
                   const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  PDN_CHECK(out.good(), "save_artifact: cannot open " + path);
  write_header(out, kVersion, model.config(), temporal, path);
  nn::save_parameters(model.parameters(), out, path);
}

void save_artifact_f16(WorstCaseNoiseNet& model,
                       const TemporalCompressionOptions& temporal,
                       const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  PDN_CHECK(out.good(), "save_artifact_f16: cannot open " + path);
  write_header(out, kVersionQuant, model.config(), temporal, path);
  write_field(out, static_cast<std::uint32_t>(quant::ParamDtype::kF16));
  quant::write_f16_block(model.parameters(), out, path);
}

void save_artifact_int8(WorstCaseNoiseNet& model,
                        const TemporalCompressionOptions& temporal,
                        const quant::CalibrationResult& calibration,
                        const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  PDN_CHECK(out.good(), "save_artifact_int8: cannot open " + path);
  write_header(out, kVersionQuant, model.config(), temporal, path);
  write_field(out, static_cast<std::uint32_t>(quant::ParamDtype::kInt8));
  quant::write_int8_block(model.parameters(), calibration, out, path);
}

ModelArtifact load_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PDN_CHECK(in.good(), "load_artifact: cannot open " + path);
  ModelArtifact art = read_header(in, path);
  art.model = std::make_unique<WorstCaseNoiseNet>(art.config);
  load_weights(art, art.model->parameters(), in, path);
  return art;
}

ModelArtifact peek_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PDN_CHECK(in.good(), "peek_artifact: cannot open " + path);
  return read_header(in, path);
}

}  // namespace pdnn::core
