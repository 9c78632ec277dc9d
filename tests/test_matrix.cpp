#include "gf/matrix.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlec::gf {
namespace {

TEST(Matrix, IdentityMultiplication) {
  const auto id = Matrix::identity(5);
  Matrix m(5, 5);
  Rng rng(1);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 5; ++c) m.at(r, c) = static_cast<byte_t>(rng.uniform_below(256));
  EXPECT_EQ(m.multiply(id), m);
  EXPECT_EQ(id.multiply(m), m);
}

TEST(Matrix, InvertRoundTrip) {
  Rng rng(2);
  for (int round = 0; round < 20; ++round) {
    Matrix m(6, 6);
    for (std::size_t r = 0; r < 6; ++r)
      for (std::size_t c = 0; c < 6; ++c) m.at(r, c) = static_cast<byte_t>(rng.uniform_below(256));
    Matrix inv;
    if (!m.invert(inv)) continue;  // singular random matrix: skip
    EXPECT_EQ(m.multiply(inv), Matrix::identity(6));
    EXPECT_EQ(inv.multiply(m), Matrix::identity(6));
  }
}

TEST(Matrix, SingularDetected) {
  Matrix m(3, 3);  // all zeros
  Matrix inv;
  EXPECT_FALSE(m.invert(inv));

  // Duplicate rows.
  Matrix d(2, 2);
  d.at(0, 0) = 3;
  d.at(0, 1) = 7;
  d.at(1, 0) = 3;
  d.at(1, 1) = 7;
  EXPECT_FALSE(d.invert(inv));
}

TEST(Matrix, CauchySquareSubmatricesInvertible) {
  // The MDS property hinges on this: any square submatrix of the Cauchy
  // parity rows must be invertible.
  const auto cauchy = Matrix::cauchy(4, 10);
  Rng rng(3);
  for (int round = 0; round < 200; ++round) {
    const std::size_t size = 1 + rng.uniform_below(4);
    auto rows = rng.sample_without_replacement(4, size);
    auto cols = rng.sample_without_replacement(10, size);
    Matrix sub(size, size);
    for (std::size_t r = 0; r < size; ++r)
      for (std::size_t c = 0; c < size; ++c) sub.at(r, c) = cauchy.at(rows[r], cols[c]);
    Matrix inv;
    EXPECT_TRUE(sub.invert(inv)) << "round " << round;
  }
}

TEST(Matrix, CauchyRejectsOversize) {
  EXPECT_THROW(Matrix::cauchy(200, 100), PreconditionError);
}

TEST(Matrix, MultiplyDimensionMismatch) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a.multiply(b), PreconditionError);
}

TEST(Matrix, InvertRequiresSquare) {
  Matrix a(2, 3), out;
  EXPECT_THROW(a.invert(out), PreconditionError);
}

}  // namespace
}  // namespace mlec::gf
