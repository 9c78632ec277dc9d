#include "gf/matrix.hpp"

#include "util/error.hpp"

namespace mlec::gf {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

Matrix Matrix::cauchy(std::size_t rows, std::size_t cols) {
  MLEC_REQUIRE(rows + cols <= 256, "Cauchy construction needs rows+cols <= 256");
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      m.at(i, j) = inv(static_cast<byte_t>((i + cols) ^ j));
  return m;
}

Matrix Matrix::multiply(const Matrix& other) const {
  MLEC_REQUIRE(cols_ == other.rows_, "dimension mismatch in matrix multiply");
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = 0; k < cols_; ++k) {
      const byte_t a = at(i, k);
      if (a == 0) continue;
      for (std::size_t j = 0; j < other.cols_; ++j)
        out.at(i, j) = add(out.at(i, j), mul(a, other.at(k, j)));
    }
  return out;
}

bool Matrix::invert(Matrix& out) const {
  MLEC_REQUIRE(rows_ == cols_, "only square matrices invert");
  const std::size_t n = rows_;
  Matrix work = *this;
  out = identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    // Find a pivot.
    std::size_t pivot = col;
    while (pivot < n && work.at(pivot, col) == 0) ++pivot;
    if (pivot == n) return false;
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(work.at(pivot, j), work.at(col, j));
        std::swap(out.at(pivot, j), out.at(col, j));
      }
    }
    // Scale pivot row to 1.
    const byte_t scale = inv(work.at(col, col));
    for (std::size_t j = 0; j < n; ++j) {
      work.at(col, j) = mul(work.at(col, j), scale);
      out.at(col, j) = mul(out.at(col, j), scale);
    }
    // Eliminate the column everywhere else.
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const byte_t factor = work.at(r, col);
      if (factor == 0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        work.at(r, j) = add(work.at(r, j), mul(factor, work.at(col, j)));
        out.at(r, j) = add(out.at(r, j), mul(factor, out.at(col, j)));
      }
    }
  }
  return true;
}

}  // namespace mlec::gf
