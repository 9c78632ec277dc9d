#include "gf/gf256.hpp"

#include "util/error.hpp"

namespace mlec::gf {

namespace {

struct Tables {
  std::array<byte_t, 256> log;
  std::array<byte_t, 512> exp;  // doubled to skip a mod in mul
};

const Tables& tables() {
  static const Tables t = [] {
    Tables t{};
    // Generate with the 0x11d polynomial: exp[i] = g^i.
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      t.exp[i] = static_cast<byte_t>(x);
      t.log[x] = static_cast<byte_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11d;
    }
    for (unsigned i = 255; i < 512; ++i) t.exp[i] = t.exp[i - 255];
    t.log[0] = 0;  // undefined; guarded by callers
    return t;
  }();
  return t;
}

}  // namespace

byte_t mul(byte_t a, byte_t b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = tables();
  return t.exp[static_cast<unsigned>(t.log[a]) + t.log[b]];
}

byte_t inv(byte_t a) {
  MLEC_REQUIRE(a != 0, "zero has no inverse in GF(256)");
  const auto& t = tables();
  return t.exp[255 - t.log[a]];
}

MulTable make_mul_table(byte_t c) {
  MulTable table{};
  for (unsigned n = 0; n < 16; ++n) {
    table.lo[n] = mul(c, static_cast<byte_t>(n));
    table.hi[n] = mul(c, static_cast<byte_t>(n << 4));
  }
  return table;
}

}  // namespace mlec::gf
