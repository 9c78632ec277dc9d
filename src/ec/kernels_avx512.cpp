// AVX-512BW kernels: VPSHUFB over 64-byte strips, the 16-entry nibble
// tables broadcast to all four 128-bit lanes, with VPTERNLOGD fusing the
// lo^hi^acc triple XOR into one op. Compiled with -mavx512f -mavx512bw on
// x86 (see src/ec/CMakeLists.txt); elsewhere this TU degrades to a "not
// built" stub.
#include "ec/kernels_detail.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

#include <algorithm>

namespace mlec::ec {
namespace {

/// Nibble table broadcast into all four lanes so VPSHUFB's per-lane lookup
/// sees the same 16 entries everywhere.
inline __m512i load_nibble_table(const std::array<byte_t, 16>& t) {
  return _mm512_broadcast_i32x4(_mm_loadu_si128(reinterpret_cast<const __m128i*>(t.data())));
}

inline __m512i loadu(const byte_t* p) { return _mm512_loadu_si512(p); }

inline void storeu(byte_t* p, __m512i v) { _mm512_storeu_si512(p, v); }

inline __m512i product(__m512i lo, __m512i hi, __m512i mask, __m512i v) {
  const __m512i l = _mm512_and_si512(v, mask);
  const __m512i h = _mm512_and_si512(_mm512_srli_epi16(v, 4), mask);
  return _mm512_xor_si512(_mm512_shuffle_epi8(lo, l), _mm512_shuffle_epi8(hi, h));
}

/// acc ^ shuffle(lo) ^ shuffle(hi) in one VPTERNLOGD (imm 0x96 = a^b^c).
inline __m512i product_acc(__m512i lo, __m512i hi, __m512i mask, __m512i v, __m512i acc) {
  const __m512i l = _mm512_and_si512(v, mask);
  const __m512i h = _mm512_and_si512(_mm512_srli_epi16(v, 4), mask);
  return _mm512_ternarylogic_epi32(acc, _mm512_shuffle_epi8(lo, l),
                                   _mm512_shuffle_epi8(hi, h), 0x96);
}

void mul_acc_avx512(const MulTable& table, const byte_t* src, byte_t* dst, std::size_t len) {
  const __m512i lo = load_nibble_table(table.lo);
  const __m512i hi = load_nibble_table(table.hi);
  const __m512i mask = _mm512_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 128 <= len; i += 128) {
    storeu(dst + i, product_acc(lo, hi, mask, loadu(src + i), loadu(dst + i)));
    storeu(dst + i + 64, product_acc(lo, hi, mask, loadu(src + i + 64), loadu(dst + i + 64)));
  }
  if (i + 64 <= len) {
    storeu(dst + i, product_acc(lo, hi, mask, loadu(src + i), loadu(dst + i)));
    i += 64;
  }
  detail::mul_acc_scalar(table, src + i, dst + i, len - i);
}

void mul_assign_avx512(const MulTable& table, const byte_t* src, byte_t* dst, std::size_t len) {
  const __m512i lo = load_nibble_table(table.lo);
  const __m512i hi = load_nibble_table(table.hi);
  const __m512i mask = _mm512_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 128 <= len; i += 128) {
    storeu(dst + i, product(lo, hi, mask, loadu(src + i)));
    storeu(dst + i + 64, product(lo, hi, mask, loadu(src + i + 64)));
  }
  if (i + 64 <= len) {
    storeu(dst + i, product(lo, hi, mask, loadu(src + i)));
    i += 64;
  }
  detail::mul_assign_scalar(table, src + i, dst + i, len - i);
}

void dot_avx512(const MulTable* tables, std::size_t k, std::size_t p, const byte_t* const* src,
                byte_t* const* dst, std::size_t len, bool accumulate) {
  if (p == 0 || len == 0 || k == 0) {
    detail::dot_scalar(tables, k, p, src, dst, len, accumulate);
    return;
  }
  // Strip-outer / group-inner one-pass encode (see the AVX2 twin for the
  // rationale); 64-byte strips, accumulators for up to 4 output rows live in
  // zmm registers.
  constexpr std::size_t kGroup = 4;
  const __m512i mask = _mm512_set1_epi8(0x0f);
  std::size_t pos = 0;
  for (; pos + 64 <= len; pos += 64) {
    for (std::size_t g = 0; g < p; g += kGroup) {
      const std::size_t gn = std::min(kGroup, p - g);
      __m512i acc[kGroup];
      for (std::size_t j = 0; j < gn; ++j)
        acc[j] = accumulate ? loadu(dst[g + j] + pos) : _mm512_setzero_si512();
      for (std::size_t c = 0; c < k; ++c) {
        const __m512i v = loadu(src[c] + pos);
        const __m512i l = _mm512_and_si512(v, mask);
        const __m512i h = _mm512_and_si512(_mm512_srli_epi16(v, 4), mask);
        for (std::size_t j = 0; j < gn; ++j) {
          const MulTable& t = tables[(g + j) * k + c];
          acc[j] = _mm512_ternarylogic_epi32(
              acc[j], _mm512_shuffle_epi8(load_nibble_table(t.lo), l),
              _mm512_shuffle_epi8(load_nibble_table(t.hi), h), 0x96);
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
const Kernels* avx512_kernel_table() {
  static const Kernels k{Backend::kAvx512, &mul_acc_avx512, &mul_assign_avx512, &dot_avx512};
  return &k;
}
}  // namespace detail

}  // namespace mlec::ec

#else  // non-x86 build (or -mavx512bw missing): backend unavailable

namespace mlec::ec::detail {
const Kernels* avx512_kernel_table() { return nullptr; }
}  // namespace mlec::ec::detail

#endif
