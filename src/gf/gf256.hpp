// GF(2^8) arithmetic over the AES/ISA-L polynomial x^8+x^4+x^3+x^2+1 (0x1d).
//
// The one field of the EC stack: mul/inv (log/exp tables) serve plan-build
// elimination in ec/decode and the Cauchy generator in gf/matrix, and
// make_mul_table compiles a coefficient into the split-nibble tables (the
// scalar formulation of the PSHUFB trick) that every byte kernel in
// src/ec/ consumes (see ec/kernels.hpp). This translation unit builds into
// mlec_ec, the lowest EC library.
#pragma once

#include <array>
#include <cstdint>

namespace mlec::gf {

using byte_t = std::uint8_t;

/// Field addition/subtraction (XOR).
constexpr byte_t add(byte_t a, byte_t b) { return a ^ b; }

/// Field multiplication via log/exp tables.
byte_t mul(byte_t a, byte_t b);

/// Multiplicative inverse; requires a != 0.
byte_t inv(byte_t a);

/// Precomputed split-nibble tables for multiplying a buffer by a constant.
struct MulTable {
  std::array<byte_t, 16> lo;  ///< products of c with 0x00..0x0f
  std::array<byte_t, 16> hi;  ///< products of c with 0x00..0xf0 (high nibble)
};

/// Build the nibble tables for constant `c`.
MulTable make_mul_table(byte_t c);

/// Primitive element used to generate the field (0x02 for this polynomial).
inline constexpr byte_t kGenerator = 0x02;

}  // namespace mlec::gf
