// Binary weight (de)serialization.
//
// Format: magic "PDNW", uint32 count, then per parameter: uint32 name
// length, name bytes, uint32 ndim, int32 dims..., float32 data. Loading
// verifies names and shapes against the module's registration order, so a
// weight file cannot silently attach to the wrong architecture.
//
// The block is read and written at a stream's current position, in the
// middle of a larger container — core::save_artifact embeds it after the
// model/compressor header so a checkpoint is one self-describing file.
// `context` labels error messages (the container's path).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace pdnn::nn {

/// Write all parameters as one "PDNW" block at the stream's current position.
void save_parameters(const std::vector<Parameter*>& params, std::ostream& out,
                     const std::string& context);

/// Read a "PDNW" block from the stream's current position into the module's
/// existing tensors. Throws CheckError on any name/shape mismatch, naming
/// the offending parameter.
void load_parameters(const std::vector<Parameter*>& params, std::istream& in,
                     const std::string& context);

}  // namespace pdnn::nn
