#include "ec/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <string>
#include <string_view>

#include "ec/kernels_detail.hpp"
#include "util/error.hpp"

namespace mlec::ec {

namespace {

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
bool host_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }
bool host_has_avx512() {
  return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512bw") != 0;
}
bool host_has_gfni() {
  return __builtin_cpu_supports("gfni") != 0 && host_has_avx512() &&
         __builtin_cpu_supports("avx512vl") != 0;
}
#else
bool host_has_avx2() { return false; }
bool host_has_avx512() { return false; }
bool host_has_gfni() { return false; }
#endif

std::atomic<int> g_active{-1};  // -1: not yet resolved

Backend resolve_initial() {
  // Read-only getenv, called once to seed the g_active atomic.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("MLEC_EC_BACKEND");
  if (env != nullptr) {
    const auto forced = resolve_backend_override(env);
    if (forced) return *forced;
  }
  return detect_backend();
}

std::string lowercase(std::string_view name) {
  std::string out(name);
  for (char& c : out)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  return out;
}

}  // namespace

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
    case Backend::kAvx512: return "avx512";
    case Backend::kGfni: return "gfni";
  }
  return "?";
}

std::optional<Backend> parse_backend(std::string_view name) {
  const std::string lower = lowercase(name);
  if (lower == "scalar") return Backend::kScalar;
  if (lower == "avx2") return Backend::kAvx2;
  if (lower == "avx512") return Backend::kAvx512;
  if (lower == "gfni") return Backend::kGfni;
  return std::nullopt;
}

bool backend_built(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return true;
    case Backend::kAvx2: return detail::avx2_kernel_table() != nullptr;
    case Backend::kAvx512: return detail::avx512_kernel_table() != nullptr;
    case Backend::kGfni: return detail::gfni_kernel_table() != nullptr;
  }
  return false;
}

bool backend_host_supported(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return true;
    case Backend::kAvx2: return host_has_avx2();
    case Backend::kAvx512: return host_has_avx512();
    case Backend::kGfni: return host_has_gfni();
  }
  return false;
}

bool backend_supported(Backend backend) {
  return backend_built(backend) && backend_host_supported(backend);
}

Backend detect_backend() {
  static const Backend best = [] {
    if (backend_supported(Backend::kGfni)) return Backend::kGfni;
    if (backend_supported(Backend::kAvx512)) return Backend::kAvx512;
    if (backend_supported(Backend::kAvx2)) return Backend::kAvx2;
    return Backend::kScalar;
  }();
  return best;
}

std::optional<Backend> resolve_backend_override(std::string_view value) {
  if (value.empty() || lowercase(value) == "auto") return std::nullopt;
  const auto parsed = parse_backend(value);
  MLEC_REQUIRE(parsed.has_value(),
               "unknown MLEC_EC_BACKEND '" + std::string(value) +
                   "' (valid: scalar, avx2, avx512, gfni, auto)");
  MLEC_REQUIRE(backend_supported(*parsed),
               std::string("MLEC_EC_BACKEND=") + to_string(*parsed) +
                   " is not supported on this host/build (" +
                   (backend_built(*parsed) ? "host CPU lacks the ISA" : "kernels not compiled in") +
                   ")");
  return parsed;
}

Backend active_backend() {
  int cur = g_active.load(std::memory_order_acquire);
  if (cur < 0) {
    const Backend resolved = resolve_initial();
    // First resolver wins; a concurrent force_backend() is preserved.
    int expected = -1;
    g_active.compare_exchange_strong(expected, static_cast<int>(resolved),
                                     std::memory_order_acq_rel);
    cur = g_active.load(std::memory_order_acquire);
  }
  return static_cast<Backend>(cur);
}

void force_backend(Backend backend) {
  MLEC_REQUIRE(backend_supported(backend), "EC backend not supported on this host/build");
  g_active.store(static_cast<int>(backend), std::memory_order_release);
}

ScopedBackend::ScopedBackend(Backend backend) : previous_(active_backend()) {
  force_backend(backend);
}

ScopedBackend::~ScopedBackend() { force_backend(previous_); }

const Kernels& kernels_for(Backend backend) {
  MLEC_REQUIRE(backend_supported(backend), "EC backend not supported on this host/build");
  switch (backend) {
    case Backend::kScalar: return *detail::scalar_kernel_table();
    case Backend::kAvx2: return *detail::avx2_kernel_table();
    case Backend::kAvx512: return *detail::avx512_kernel_table();
    case Backend::kGfni: return *detail::gfni_kernel_table();
  }
  return *detail::scalar_kernel_table();
}

const Kernels& kernels() { return kernels_for(active_backend()); }

}  // namespace mlec::ec
