// GFNI kernels: GF(2^8) multiply-by-constant as one GF2P8AFFINEQB per
// 64-byte strip, with no split-nibble tables at all.
//
// Multiplication by a constant c in GF(2^8) is linear over GF(2), so it is
// an 8x8 bit-matrix M_c; GF2P8AFFINEQB applies that matrix to every byte of
// a zmm register in a single instruction. The matrices are precomputed for
// all 256 constants over this library's 0x11d polynomial (GF2P8MULB itself
// is hardwired to the AES polynomial 0x11b and is NOT usable here). The
// kernel ABI hands us split-nibble MulTables; c is recovered as
// table.lo[1] == c*1 and the matrix looked up from the 256-entry table.
//
// Compiled with -mgfni -mavx512f -mavx512bw -mavx512vl on x86 (see
// src/ec/CMakeLists.txt); elsewhere this TU degrades to a "not built" stub.
#include "ec/kernels_detail.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GFNI__) && defined(__AVX512F__) && \
    defined(__AVX512BW__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mlec::ec {
namespace {

/// 8x8 bit-matrix of y = c*x over 0x11d in GF2P8AFFINEQB's layout: result
/// bit i is parity(matrix.byte[7-i] & x), so byte 7-i holds the row that
/// selects which source bits XOR into output bit i. Column j of the map is
/// c * x^j (c doubled j times through the field polynomial).
constexpr std::uint64_t affine_matrix_of(unsigned c) {
  unsigned col[8] = {};
  unsigned v = c;
  for (int j = 0; j < 8; ++j) {
    col[j] = v;
    v <<= 1;
    if (v & 0x100) v ^= 0x11d;
  }
  std::uint64_t m = 0;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t row = 0;
    for (int j = 0; j < 8; ++j) row |= ((col[j] >> i) & 1U) << j;
    m |= row << (8 * (7 - i));
  }
  return m;
}

struct AffineTable {
  std::uint64_t m[256];
};

constexpr AffineTable build_affine_table() {
  AffineTable t{};
  for (unsigned c = 0; c < 256; ++c) t.m[c] = affine_matrix_of(c);
  return t;
}

constexpr AffineTable kAffine = build_affine_table();

/// Recover the constant from a split-nibble table: lo[1] == c*1.
inline std::uint64_t matrix_for(const MulTable& table) { return kAffine.m[table.lo[1]]; }

inline __m512i loadu(const byte_t* p) { return _mm512_loadu_si512(p); }

inline void storeu(byte_t* p, __m512i v) { _mm512_storeu_si512(p, v); }

void mul_acc_gfni(const MulTable& table, const byte_t* src, byte_t* dst, std::size_t len) {
  const __m512i m = _mm512_set1_epi64(static_cast<long long>(matrix_for(table)));
  std::size_t i = 0;
  for (; i + 128 <= len; i += 128) {
    storeu(dst + i, _mm512_xor_si512(loadu(dst + i),
                                     _mm512_gf2p8affine_epi64_epi8(loadu(src + i), m, 0)));
    storeu(dst + i + 64,
           _mm512_xor_si512(loadu(dst + i + 64),
                            _mm512_gf2p8affine_epi64_epi8(loadu(src + i + 64), m, 0)));
  }
  if (i + 64 <= len) {
    storeu(dst + i, _mm512_xor_si512(loadu(dst + i),
                                     _mm512_gf2p8affine_epi64_epi8(loadu(src + i), m, 0)));
    i += 64;
  }
  detail::mul_acc_scalar(table, src + i, dst + i, len - i);
}

void mul_assign_gfni(const MulTable& table, const byte_t* src, byte_t* dst, std::size_t len) {
  const __m512i m = _mm512_set1_epi64(static_cast<long long>(matrix_for(table)));
  std::size_t i = 0;
  for (; i + 128 <= len; i += 128) {
    storeu(dst + i, _mm512_gf2p8affine_epi64_epi8(loadu(src + i), m, 0));
    storeu(dst + i + 64, _mm512_gf2p8affine_epi64_epi8(loadu(src + i + 64), m, 0));
  }
  if (i + 64 <= len) {
    storeu(dst + i, _mm512_gf2p8affine_epi64_epi8(loadu(src + i), m, 0));
    i += 64;
  }
  detail::mul_assign_scalar(table, src + i, dst + i, len - i);
}

void dot_gfni(const MulTable* tables, std::size_t k, std::size_t p, const byte_t* const* src,
              byte_t* const* dst, std::size_t len, bool accumulate) {
  if (p == 0 || len == 0 || k == 0) {
    detail::dot_scalar(tables, k, p, src, dst, len, accumulate);
    return;
  }
  // Flatten the coefficient matrices once so the strip loop broadcasts them
  // straight from one contiguous cache-resident array.
  std::vector<std::uint64_t> mats(p * k);
  for (std::size_t i = 0; i < p * k; ++i) mats[i] = matrix_for(tables[i]);

  // Strip-outer / group-inner one-pass encode (see the AVX2 twin for the
  // rationale); 64-byte strips, one GF2P8AFFINEQB + XOR per source x output
  // row, accumulators for up to 4 output rows live in zmm registers.
  constexpr std::size_t kGroup = 4;
  std::size_t pos = 0;
  for (; pos + 64 <= len; pos += 64) {
    for (std::size_t g = 0; g < p; g += kGroup) {
      const std::size_t gn = std::min(kGroup, p - g);
      __m512i acc[kGroup];
      for (std::size_t j = 0; j < gn; ++j)
        acc[j] = accumulate ? loadu(dst[g + j] + pos) : _mm512_setzero_si512();
      for (std::size_t c = 0; c < k; ++c) {
        const __m512i v = loadu(src[c] + pos);
        for (std::size_t j = 0; j < gn; ++j) {
          const __m512i m =
              _mm512_set1_epi64(static_cast<long long>(mats[(g + j) * k + c]));
          acc[j] = _mm512_xor_si512(acc[j], _mm512_gf2p8affine_epi64_epi8(v, m, 0));
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
const Kernels* gfni_kernel_table() {
  static const Kernels k{Backend::kGfni, &mul_acc_gfni, &mul_assign_gfni, &dot_gfni};
  return &k;
}
}  // namespace detail

}  // namespace mlec::ec

#else  // non-x86 build (or GFNI/AVX-512 flags missing): backend unavailable

namespace mlec::ec::detail {
const Kernels* gfni_kernel_table() { return nullptr; }
}  // namespace mlec::ec::detail

#endif
