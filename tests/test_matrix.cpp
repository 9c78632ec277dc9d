#include "gf/matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <vector>

#include "ec/decode.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlec::gf {
namespace {

/// Row-major n x n product over GF(256).
std::vector<byte_t> product(const std::vector<byte_t>& a, const std::vector<byte_t>& b,
                            std::size_t n) {
  std::vector<byte_t> out(n * n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t j = 0; j < n; ++j)
        out[i * n + j] = add(out[i * n + j], mul(a[i * n + k], b[k * n + j]));
  return out;
}

std::vector<byte_t> identity(std::size_t n) {
  std::vector<byte_t> id(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) id[i * n + i] = 1;
  return id;
}

TEST(Matrix, InvertRoundTrip) {
  // ec::independent_rows is the stack's one inversion: a full-rank square
  // matrix keeps every row and comes back with its two-sided inverse.
  Rng rng(2);
  std::vector<std::size_t> rows(6);
  std::iota(rows.begin(), rows.end(), 0);
  int inverted = 0;
  for (int round = 0; round < 20; ++round) {
    std::vector<byte_t> m(36);
    for (auto& b : m) b = static_cast<byte_t>(rng.uniform_below(256));
    std::vector<byte_t> inv;
    const auto kept = ec::independent_rows(6, m, rows, &inv);
    if (kept.size() < 6) continue;  // singular random matrix: skip
    ++inverted;
    EXPECT_EQ(kept, rows);
    EXPECT_EQ(product(m, inv, 6), identity(6));
    EXPECT_EQ(product(inv, m, 6), identity(6));
  }
  EXPECT_GT(inverted, 0);
}

TEST(Matrix, SingularDetected) {
  const std::vector<std::size_t> rows{0, 1, 2};
  std::vector<byte_t> inv;
  EXPECT_TRUE(ec::independent_rows(3, std::vector<byte_t>(9, 0), rows, &inv).empty());

  // Duplicate rows: only the first grows the rank.
  const std::vector<byte_t> d{3, 7, 3, 7};
  EXPECT_EQ(ec::independent_rows(2, d, std::vector<std::size_t>{0, 1}),
            (std::vector<std::size_t>{0}));
}

TEST(Matrix, CauchySquareSubmatricesInvertible) {
  // The MDS property hinges on every square submatrix of the Cauchy parity
  // rows being invertible; equivalently, every pattern of at most p
  // erasures of the systematic [I; C] generator decodes. Checked
  // exhaustively for RS(10+4).
  constexpr std::size_t k = 10, p = 4, n = k + p;
  const auto cauchy = Matrix::cauchy(p, k);
  std::vector<byte_t> gen(n * k, 0);
  for (std::size_t i = 0; i < k; ++i) gen[i * k + i] = 1;
  for (std::size_t r = 0; r < p; ++r)
    for (std::size_t c = 0; c < k; ++c) gen[(k + r) * k + c] = cauchy.at(r, c);
  std::size_t patterns = 0;
  for (unsigned mask = 0; mask < (1U << n); ++mask) {
    if (static_cast<std::size_t>(std::popcount(mask)) > p) continue;
    std::vector<std::size_t> erased;
    for (std::size_t i = 0; i < n; ++i)
      if ((mask >> i) & 1U) erased.push_back(i);
    EXPECT_TRUE(ec::DecodePlan(n, k, gen, erased).viable()) << "mask " << mask;
    ++patterns;
  }
  EXPECT_EQ(patterns, 1471u);  // sum of C(14, f) for f = 0..4
}

TEST(Matrix, CauchyRejectsOversize) {
  EXPECT_THROW(Matrix::cauchy(200, 100), PreconditionError);
}

}  // namespace
}  // namespace mlec::gf
