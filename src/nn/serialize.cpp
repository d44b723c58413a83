#include "nn/serialize.hpp"

#include <cstdint>
#include <istream>
#include <ostream>

#include "util/check.hpp"

namespace pdnn::nn {

namespace {
constexpr char kMagic[4] = {'P', 'D', 'N', 'W'};

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
}  // namespace

void save_parameters(const std::vector<Parameter*>& params, std::ostream& out,
                     const std::string& context) {
  out.write(kMagic, sizeof(kMagic));
  write_u32(out, static_cast<std::uint32_t>(params.size()));
  for (Parameter* p : params) {
    write_u32(out, static_cast<std::uint32_t>(p->name.size()));
    out.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    const Tensor& t = p->var.value();
    write_u32(out, static_cast<std::uint32_t>(t.ndim()));
    for (int i = 0; i < t.ndim(); ++i) {
      const std::int32_t d = t.dim(i);
      out.write(reinterpret_cast<const char*>(&d), sizeof(d));
    }
    out.write(reinterpret_cast<const char*>(t.data()),
              static_cast<std::streamsize>(t.numel() * sizeof(float)));
  }
  PDN_CHECK(out.good(), "save_parameters: write failed for " + context);
}

void load_parameters(const std::vector<Parameter*>& params, std::istream& in,
                     const std::string& context) {
  char magic[4];
  in.read(magic, sizeof(magic));
  PDN_CHECK(in.good() && std::equal(magic, magic + 4, kMagic),
            "load_parameters: bad weight-block magic in " + context);
  const std::uint32_t count = read_u32(in);
  PDN_CHECK(in.good() && count == params.size(),
            "load_parameters: parameter count mismatch in " + context);
  for (Parameter* p : params) {
    const std::uint32_t name_len = read_u32(in);
    PDN_CHECK(in.good() && name_len < 4096,
              "load_parameters: truncated reading name of parameter " +
                  p->name + " in " + context);
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    PDN_CHECK(in.good() && name == p->name,
              "load_parameters: expected parameter " + p->name + ", found " +
                  name + " in " + context);
    const std::uint32_t ndim = read_u32(in);
    Tensor& t = p->var.mutable_value();
    PDN_CHECK(in.good() && static_cast<int>(ndim) == t.ndim(),
              "load_parameters: rank mismatch for " + name + " in " + context);
    for (int i = 0; i < t.ndim(); ++i) {
      std::int32_t d = 0;
      in.read(reinterpret_cast<char*>(&d), sizeof(d));
      PDN_CHECK(in.good() && d == t.dim(i),
                "load_parameters: shape mismatch for " + name + " in " +
                    context);
    }
    in.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
    PDN_CHECK(in.good(), "load_parameters: truncated weight data for " + name +
                             " in " + context);
  }
}

}  // namespace pdnn::nn
