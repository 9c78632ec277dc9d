// Dense matrices over GF(2^8): construction of MDS generator matrices and
// Gaussian elimination for decode.
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

  static Matrix identity(std::size_t n);

  /// Cauchy matrix rows x cols: a[i][j] = 1/(x_i + y_j) with distinct
  /// x_i = i + cols and y_j = j. Any square submatrix is invertible, making
  /// the systematic [I; C] generator MDS for k = cols, p = rows.
  static Matrix cauchy(std::size_t rows, std::size_t cols);

  Matrix multiply(const Matrix& other) const;

  /// Inverse via Gauss-Jordan. Requires a square, nonsingular matrix;
  /// returns false (leaving *out* unspecified) when singular.
  bool invert(Matrix& out) const;

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<byte_t> data_;
};

}  // namespace mlec::gf
