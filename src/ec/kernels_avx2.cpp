// AVX2 kernels: VPSHUFB over 32-byte strips, the 16-entry nibble tables
// broadcast to both 128-bit lanes. Compiled with -mavx2 on x86 (see
// src/ec/CMakeLists.txt); elsewhere this TU degrades to a "not built" stub.
#include "ec/kernels_detail.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace mlec::ec {
namespace {

/// Nibble table broadcast into both lanes so VPSHUFB's per-lane lookup sees
/// the same 16 entries everywhere.
inline __m256i load_nibble_table(const std::array<byte_t, 16>& t) {
  return _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(t.data())));
}

inline __m256i loadu(const byte_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void storeu(byte_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

inline __m256i product(__m256i lo, __m256i hi, __m256i mask, __m256i v) {
  const __m256i l = _mm256_and_si256(v, mask);
  const __m256i h = _mm256_and_si256(_mm256_srli_epi16(v, 4), mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(lo, l), _mm256_shuffle_epi8(hi, h));
}

void mul_acc_avx2(const MulTable& table, const byte_t* src, byte_t* dst, std::size_t len) {
  const __m256i lo = load_nibble_table(table.lo);
  const __m256i hi = load_nibble_table(table.hi);
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    const __m256i p0 = product(lo, hi, mask, loadu(src + i));
    const __m256i p1 = product(lo, hi, mask, loadu(src + i + 32));
    storeu(dst + i, _mm256_xor_si256(loadu(dst + i), p0));
    storeu(dst + i + 32, _mm256_xor_si256(loadu(dst + i + 32), p1));
  }
  if (i + 32 <= len) {
    storeu(dst + i, _mm256_xor_si256(loadu(dst + i), product(lo, hi, mask, loadu(src + i))));
    i += 32;
  }
  detail::mul_acc_scalar(table, src + i, dst + i, len - i);
}

void mul_assign_avx2(const MulTable& table, const byte_t* src, byte_t* dst, std::size_t len) {
  const __m256i lo = load_nibble_table(table.lo);
  const __m256i hi = load_nibble_table(table.hi);
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    storeu(dst + i, product(lo, hi, mask, loadu(src + i)));
    storeu(dst + i + 32, product(lo, hi, mask, loadu(src + i + 32)));
  }
  if (i + 32 <= len) {
    storeu(dst + i, product(lo, hi, mask, loadu(src + i)));
    i += 32;
  }
  detail::mul_assign_scalar(table, src + i, dst + i, len - i);
}

void dot_avx2(const MulTable* tables, std::size_t k, std::size_t p, const byte_t* const* src,
              byte_t* const* dst, std::size_t len, bool accumulate) {
  if (p == 0 || len == 0 || k == 0) {
    detail::dot_scalar(tables, k, p, src, dst, len, accumulate);
    return;
  }
  // Strip-outer / group-inner: each 32-byte strip of every source is loaded
  // (and nibble-split) once per group of up to 4 output rows, with the
  // accumulators pinned in ymm registers — the fused one-pass encode.
  constexpr std::size_t kGroup = 4;
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t pos = 0;
  for (; pos + 32 <= len; pos += 32) {
    for (std::size_t g = 0; g < p; g += kGroup) {
      const std::size_t gn = std::min(kGroup, p - g);
      __m256i acc[kGroup];
      for (std::size_t j = 0; j < gn; ++j)
        acc[j] = accumulate ? loadu(dst[g + j] + pos) : _mm256_setzero_si256();
      for (std::size_t c = 0; c < k; ++c) {
        const __m256i v = loadu(src[c] + pos);
        const __m256i l = _mm256_and_si256(v, mask);
        const __m256i h = _mm256_and_si256(_mm256_srli_epi16(v, 4), mask);
        for (std::size_t j = 0; j < gn; ++j) {
          const MulTable& t = tables[(g + j) * k + c];
          const __m256i prod = _mm256_xor_si256(_mm256_shuffle_epi8(load_nibble_table(t.lo), l),
                                                _mm256_shuffle_epi8(load_nibble_table(t.hi), h));
          acc[j] = _mm256_xor_si256(acc[j], prod);
        }
      }
      for (std::size_t j = 0; j < gn; ++j) storeu(dst[g + j] + pos, acc[j]);
    }
  }
  const std::size_t tail = len - pos;
  if (tail == 0) return;
  for (std::size_t r = 0; r < p; ++r) {
    (accumulate ? detail::mul_acc_scalar
                : detail::mul_assign_scalar)(tables[r * k], src[0] + pos, dst[r] + pos, tail);
    for (std::size_t c = 1; c < k; ++c)
      detail::mul_acc_scalar(tables[r * k + c], src[c] + pos, dst[r] + pos, tail);
  }
}

}  // namespace

namespace detail {
const Kernels* avx2_kernel_table() {
  static const Kernels k{Backend::kAvx2, &mul_acc_avx2, &mul_assign_avx2, &dot_avx2};
  return &k;
}
}  // namespace detail

}  // namespace mlec::ec

#else  // non-x86 build (or -mavx2 missing): backend unavailable

namespace mlec::ec::detail {
const Kernels* avx2_kernel_table() { return nullptr; }
}  // namespace mlec::ec::detail

#endif
