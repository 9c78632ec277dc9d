// Fused encode/reconstruct entry points over a precompiled coefficient plan.
//
// An EncodePlan captures a rows x cols GF(256) coefficient matrix as
// split-nibble MulTables; encode() then computes every output row in one
// fused pass over the sources via the dispatched backend kernels
// (kernels.hpp). RS encoding uses the p x k parity rows as the plan; RS
// reconstruction uses rows of the inverted generator submatrix — both are
// the same dot-product shape, so one code path serves both.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ec/kernels.hpp"

namespace mlec::ec {

class EncodePlan {
 public:
  EncodePlan() = default;

  /// Compile a row-major rows x cols coefficient matrix into
  /// gf::make_mul_table nibble tables.
  EncodePlan(std::size_t rows, std::size_t cols, std::span<const byte_t> coefficients);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  byte_t coefficient(std::size_t r, std::size_t c) const { return coeffs_[r * cols_ + c]; }
  const MulTable* tables() const { return tables_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<byte_t> coeffs_;
  std::vector<MulTable> tables_;
};

/// dst[r][i] = XOR_c plan(r,c) * src[c][i] (accumulate=true XORs into dst
/// instead of overwriting). src.size() == plan.cols(), dst.size() ==
/// plan.rows(), all buffers the same length.
void encode(const EncodePlan& plan, std::span<const std::span<const byte_t>> src,
            std::span<const std::span<byte_t>> dst, bool accumulate = false);

/// Raw-pointer variant for callers that already hold shard pointer arrays;
/// all cols source and rows destination buffers are `len` bytes.
void encode(const EncodePlan& plan, const byte_t* const* src, byte_t* const* dst, std::size_t len,
            bool accumulate = false);

}  // namespace mlec::ec
