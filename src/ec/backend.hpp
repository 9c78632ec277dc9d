// Runtime CPU-feature dispatch for the erasure-coding data plane.
//
// The EC kernels ship in four builds: a portable scalar reference, an AVX2
// VPSHUFB split-nibble build, an AVX-512BW build (64-byte VPSHUFB strips),
// and a GFNI build that computes GF(2^8) products
// directly with GF2P8AFFINEQB from one 8x8 affine bit-matrix per
// coefficient — no split-nibble tables at all. The best backend the host
// supports is detected once (cpuid) and installed as the process-wide
// dispatch choice; `MLEC_EC_BACKEND=scalar|avx2|avx512|gfni|auto`
// (case-insensitive) overrides the choice for testing and benchmarking, and
// tests can swap backends at runtime with force_backend()/ScopedBackend.
//
// Override failure policy: an unknown MLEC_EC_BACKEND value throws a
// PreconditionError listing the valid choices, and a known backend the
// host/build cannot run throws too — a forced run never silently falls back
// to a different vector unit than the one it claims to exercise.
#pragma once

#include <optional>
#include <string_view>

namespace mlec::ec {

/// The values are stable identifiers (1 was the retired 16-byte SSSE3 build,
/// which measured below AVX2 on every kernel; scalar is the portable floor).
enum class Backend {
  kScalar = 0,  ///< portable split-nibble reference, always available
  kAvx2 = 2,    ///< 32-byte VPSHUFB kernels
  kAvx512 = 3,  ///< 64-byte VPSHUFB kernels (AVX-512BW)
  kGfni = 4,    ///< 64-byte GF2P8AFFINEQB kernels (GFNI + AVX-512BW/VL)
};

inline constexpr Backend kAllBackends[] = {Backend::kScalar, Backend::kAvx2, Backend::kAvx512,
                                           Backend::kGfni};

const char* to_string(Backend backend);

/// Parse "scalar" / "avx2" / "avx512" / "gfni" (case-insensitive,
/// as documented for MLEC_EC_BACKEND). "auto" and unknown strings return
/// nullopt.
std::optional<Backend> parse_backend(std::string_view name);

/// True when this binary carries compiled kernels for `backend` (the SIMD
/// translation units degrade to stubs off-x86 or without their ISA flags).
bool backend_built(Backend backend);

/// True when the host CPU advertises the ISA `backend` needs (cpuid),
/// regardless of whether this build compiled it.
bool backend_host_supported(Backend backend);

/// True when this build and CPU can run `backend` (scalar always can):
/// backend_built() && backend_host_supported().
bool backend_supported(Backend backend);

/// Best supported backend on this host (cpuid at first call, then cached).
/// Preference order: gfni > avx512 > avx2 > scalar.
Backend detect_backend();

/// Resolve an MLEC_EC_BACKEND-style override string. Empty or "auto"
/// (case-insensitive) return nullopt ("use detection"). A valid supported
/// backend name returns that backend. Throws PreconditionError for an
/// unknown name (message lists the valid choices) and for a known backend
/// this host/build cannot run.
std::optional<Backend> resolve_backend_override(std::string_view value);

/// Backend the dispatched kernels currently use. Resolved on first use:
/// MLEC_EC_BACKEND via resolve_backend_override() if set, else
/// detect_backend(). A bad override propagates that PreconditionError
/// instead of silently testing the wrong vector unit.
Backend active_backend();

/// Install `backend` as the process-wide dispatch choice; requires
/// backend_supported(backend). Thread-safe (atomic swap); in-flight kernel
/// calls finish on the backend they started with.
void force_backend(Backend backend);

/// RAII backend override for tests: forces `backend` for the scope, then
/// restores the previous choice.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend backend);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  Backend previous_;
};

}  // namespace mlec::ec
