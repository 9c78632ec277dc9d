// Dense matrices over GF(2^8): the Cauchy construction behind every MDS
// generator. Elimination over GF(2^8) lives in one place, ec/decode.
#pragma once

#include <cstddef>
#include <vector>

#include "gf/gf256.hpp"

namespace mlec::gf {

/// Row-major byte matrix over GF(256).
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  byte_t& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  byte_t at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Cauchy matrix rows x cols: a[i][j] = 1/(x_i + y_j) with distinct
  /// x_i = i + cols and y_j = j. Any square submatrix is invertible, making
  /// the systematic [I; C] generator MDS for k = cols, p = rows.
  static Matrix cauchy(std::size_t rows, std::size_t cols);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<byte_t> data_;
};

}  // namespace mlec::gf
