#include "linalg/kernels/registry.hpp"

#include <atomic>
#include <cstdlib>

#include "linalg/kernels/kernel_common.hpp"
#include "util/check.hpp"

namespace pdnn::linalg {

namespace {

/// CPUID capability probe, evaluated once. __builtin_cpu_supports consults
/// CPUID directly (and returns false on non-x86 targets where the builtin
/// is unavailable).
bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// Backend named by PDNN_KERNEL, or the best supported one. Computed once;
/// an invalid or unsupported PDNN_KERNEL value throws out of the first
/// dispatched kernel call (there is no silent fallback).
KernelBackend resolve_default() {
  if (const char* env = std::getenv("PDNN_KERNEL")) {
    if (env[0] != '\0') {
      const KernelBackend forced = parse_backend(env);
      PDN_CHECK(backend_supported(forced),
                std::string("PDNN_KERNEL=") + env +
                    ": backend not supported on this machine (supported: " +
                    supported_backend_names() + ")");
      return forced;
    }
  }
  return backend_supported(KernelBackend::kAvx2) ? KernelBackend::kAvx2
                                                 : KernelBackend::kScalar;
}

/// -1 = not forced; otherwise the int value of the forced KernelBackend.
std::atomic<int> g_forced{-1};

}  // namespace

const char* backend_name(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar: return "scalar";
    case KernelBackend::kAvx2: return "avx2";
  }
  return "?";
}

KernelBackend parse_backend(const std::string& name) {
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "avx2") return KernelBackend::kAvx2;
  PDN_CHECK(false, "unknown kernel backend '" + name +
                       "' (valid names: scalar|avx2; supported here: " +
                       supported_backend_names() + ")");
  return KernelBackend::kScalar;  // unreachable
}

std::string supported_backend_names() {
  std::string names;
  for (int b = 0; b < kKernelBackendCount; ++b) {
    const KernelBackend backend = static_cast<KernelBackend>(b);
    if (!backend_supported(backend)) continue;
    if (!names.empty()) names += '|';
    names += backend_name(backend);
  }
  return names;
}

bool backend_compiled(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar: return true;
    case KernelBackend::kAvx2: return detail::avx2_table() != nullptr;
  }
  return false;
}

bool backend_supported(KernelBackend backend) {
  if (backend == KernelBackend::kScalar) return true;
  static const bool has_avx2 = cpu_has_avx2();
  return backend_compiled(backend) && has_avx2;
}

KernelBackend active_backend() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<KernelBackend>(forced);
  static const KernelBackend resolved = resolve_default();
  return resolved;
}

void force_backend(KernelBackend backend) {
  PDN_CHECK(backend_supported(backend),
            std::string("--kernel ") + backend_name(backend) +
                ": backend not supported on this machine (supported: " +
                supported_backend_names() + ")");
  g_forced.store(static_cast<int>(backend), std::memory_order_relaxed);
}

void clear_forced_backend() {
  g_forced.store(-1, std::memory_order_relaxed);
}

const KernelTable& kernels() {
  if (active_backend() == KernelBackend::kAvx2) {
    return *detail::avx2_table();
  }
  return detail::kScalarTable;
}

bool conv3x3_fused(const Conv3x3Args& args) {
  const KernelTable& table = kernels();
  if (table.conv3x3 == nullptr) return false;
  if (args.stride != 1 && args.stride != 2) return false;
  table.conv3x3(args);
  return true;
}

bool conv3x3_s8_fused(const Conv3x3S8Args& args) {
  const KernelTable& table = kernels();
  if (table.conv3x3_s8 == nullptr) return false;
  if (args.stride != 1 && args.stride != 2) return false;
  table.conv3x3_s8(args);
  return true;
}

bool deconv3x3_fused(const Deconv3x3Args& args) {
  const KernelTable& table = kernels();
  if (table.deconv3x3_s2 == nullptr) return false;
  table.deconv3x3_s2(args);
  return true;
}

}  // namespace pdnn::linalg
