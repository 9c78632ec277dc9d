// Dispatched GF(256) bulk kernels — the arithmetic inner loops of the EC
// data plane.
//
// All kernels share the ISA-L split-nibble formulation: a product c*v is
// table.lo[v & 0x0f] ^ table.hi[v >> 4], which vectorizes as two PSHUFB /
// VPSHUFB shuffles over the 16-entry halves of gf::make_mul_table(c). The
// scalar backend runs the same tables through ordinary loads: it is the
// stack's one portable byte-kernel set and the oracle every vector backend
// is tested against, byte-identical by construction.
//
// Buffers may be arbitrarily aligned and arbitrarily sized: the vector
// kernels use unaligned loads/stores for full strips and fall back to the
// scalar loop for the sub-strip tail.
#pragma once

#include <cstddef>

#include "ec/backend.hpp"
#include "gf/gf256.hpp"

namespace mlec::ec {

using gf::byte_t;
using gf::MulTable;

/// One backend's kernel set. Function pointers are selected once per call
/// site via kernels(); all implementations are pure functions of their
/// arguments and safe to call concurrently.
struct Kernels {
  Backend backend;

  /// dst[i] ^= table.c * src[i] for i in [0, len).
  void (*mul_acc)(const MulTable& table, const byte_t* src, byte_t* dst, std::size_t len);

  /// dst[i] = table.c * src[i] for i in [0, len).
  void (*mul_assign)(const MulTable& table, const byte_t* src, byte_t* dst, std::size_t len);

  /// Fused multi-source × multi-dest dot product over a p x k coefficient
  /// table array (row-major): for every output row r,
  ///   dst[r][i] (=|^=) XOR_c tables[r*k + c] * src[c][i]
  /// with `accumulate` selecting ^= (true) or = (false). One pass over the
  /// source data: each strip of every source is loaded once and applied to
  /// all output rows while hot, instead of k*p separate buffer passes.
  void (*dot)(const MulTable* tables, std::size_t k, std::size_t p, const byte_t* const* src,
              byte_t* const* dst, std::size_t len, bool accumulate);
};

/// Kernel set of the active backend (see backend.hpp for selection rules).
const Kernels& kernels();

/// Kernel set of a specific backend; requires backend_supported(backend).
const Kernels& kernels_for(Backend backend);

}  // namespace mlec::ec
