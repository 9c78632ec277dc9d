#include "gf/gf256.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlec::gf {
namespace {

TEST(Gf256, AdditionIsXor) {
  EXPECT_EQ(add(0x57, 0x83), 0x57 ^ 0x83);
  EXPECT_EQ(add(0xff, 0xff), 0);
}

TEST(Gf256, MultiplicativeIdentityAndZero) {
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(mul(static_cast<byte_t>(a), 1), a);
    EXPECT_EQ(mul(1, static_cast<byte_t>(a)), a);
    EXPECT_EQ(mul(static_cast<byte_t>(a), 0), 0);
  }
}

TEST(Gf256, KnownProducts) {
  // x * x^7 = x^8 reduces to x^4+x^3+x^2+1 = 0x1d under the 0x11d polynomial.
  EXPECT_EQ(mul(2, 128), 0x1d);
  EXPECT_EQ(mul(2, 2), 4);
  EXPECT_EQ(mul(4, 4), 16);
}

TEST(Gf256, MulIsCommutativeAndAssociative) {
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<byte_t>(rng.uniform_below(256));
    const auto b = static_cast<byte_t>(rng.uniform_below(256));
    const auto c = static_cast<byte_t>(rng.uniform_below(256));
    EXPECT_EQ(mul(a, b), mul(b, a));
    EXPECT_EQ(mul(mul(a, b), c), mul(a, mul(b, c)));
  }
}

TEST(Gf256, DistributesOverAddition) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<byte_t>(rng.uniform_below(256));
    const auto b = static_cast<byte_t>(rng.uniform_below(256));
    const auto c = static_cast<byte_t>(rng.uniform_below(256));
    EXPECT_EQ(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
  }
}

TEST(Gf256, EveryNonzeroHasInverse) {
  for (unsigned a = 1; a < 256; ++a)
    EXPECT_EQ(mul(static_cast<byte_t>(a), inv(static_cast<byte_t>(a))), 1) << "a=" << a;
}

TEST(Gf256, ZeroHasNoInverse) { EXPECT_THROW(inv(0), PreconditionError); }

TEST(Gf256, GeneratorHasFullOrder) {
  // kGenerator must generate all 255 nonzero elements.
  std::vector<bool> seen(256, false);
  byte_t x = 1;
  for (int i = 0; i < 255; ++i) {
    EXPECT_FALSE(seen[x]);
    seen[x] = true;
    x = mul(x, kGenerator);
  }
  EXPECT_EQ(x, 1);
}

TEST(Gf256, MulTablesMatchScalar) {
  // The split-nibble identity every byte kernel relies on:
  // c*v = lo[v & 0x0f] ^ hi[v >> 4], for every constant and every byte.
  for (unsigned c = 0; c < 256; ++c) {
    const auto table = make_mul_table(static_cast<byte_t>(c));
    for (unsigned v = 0; v < 256; ++v)
      ASSERT_EQ(add(table.lo[v & 0x0f], table.hi[v >> 4]),
                mul(static_cast<byte_t>(c), static_cast<byte_t>(v)))
          << "c=" << c << " v=" << v;
  }
}

}  // namespace
}  // namespace mlec::gf
