#include "gf/matrix.hpp"

#include "util/error.hpp"

namespace mlec::gf {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

Matrix Matrix::cauchy(std::size_t rows, std::size_t cols) {
  MLEC_REQUIRE(rows + cols <= 256, "Cauchy construction needs rows+cols <= 256");
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      m.at(i, j) = inv(static_cast<byte_t>((i + cols) ^ j));
  return m;
}

}  // namespace mlec::gf
