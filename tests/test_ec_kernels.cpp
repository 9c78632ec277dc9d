// Property tests for the SIMD-dispatched EC data plane: every backend the
// host supports must be byte-identical to the scalar reference (which is
// itself checked against naive gf::mul loops, and gf::mul against a
// shift-and-reduce oracle), over odd lengths, unaligned offsets, and the
// fused multi-source x multi-parity path.
#include "ec/backend.hpp"
#include "ec/codec.hpp"
#include "ec/kernels.hpp"
#include "ec/stream.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <vector>

#include "gf/gf256.hpp"
#include "gf/rs.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mlec::ec {
namespace {

using gf::byte_t;

std::vector<Backend> supported() {
  std::vector<Backend> out;
  for (auto b : kAllBackends)
    if (backend_supported(b)) out.push_back(b);
  return out;
}

/// Parameterized suites run over ALL backends; a host that cannot run one
/// reports it as a ctest SKIP rather than silently testing fewer units.
#define MLEC_SKIP_IF_UNSUPPORTED(backend)                                             \
  do {                                                                                \
    if (!backend_supported(backend))                                                  \
      GTEST_SKIP() << to_string(backend)                                              \
                   << (backend_built(backend) ? " not supported by this host CPU"     \
                                              : " kernels not compiled in this build"); \
  } while (0)

std::vector<byte_t> random_buffer(std::size_t len, Rng& rng) {
  std::vector<byte_t> buf(len);
  for (auto& b : buf) b = static_cast<byte_t>(rng.uniform_below(256));
  return buf;
}

/// The exact length/offset grid from the issue plus vector-width edges.
const std::vector<std::size_t> kLengths{0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 4095, 4096, 4097};
const std::vector<std::size_t> kOffsets{0, 1, 3, 8, 15};

TEST(EcBackend, NamesRoundTrip) {
  for (auto b : kAllBackends) {
    const auto parsed = parse_backend(to_string(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(parse_backend("auto").has_value());
  EXPECT_FALSE(parse_backend("sse9").has_value());
}

TEST(EcBackend, ParseIsCaseInsensitive) {
  EXPECT_EQ(parse_backend("GFNI"), Backend::kGfni);
  EXPECT_EQ(parse_backend("Avx512"), Backend::kAvx512);
  EXPECT_EQ(parse_backend("AVX2"), Backend::kAvx2);
  EXPECT_EQ(parse_backend("Scalar"), Backend::kScalar);
}

TEST(EcBackend, ResolveOverridePolicy) {
  // Empty / auto mean "use detection"; unknown names fail loudly with the
  // valid choices instead of silently falling back.
  EXPECT_FALSE(resolve_backend_override("").has_value());
  EXPECT_FALSE(resolve_backend_override("auto").has_value());
  EXPECT_FALSE(resolve_backend_override("AUTO").has_value());
  EXPECT_EQ(resolve_backend_override("scalar"), Backend::kScalar);
  EXPECT_THROW(resolve_backend_override("bogus"), PreconditionError);
  EXPECT_THROW(resolve_backend_override("avx-512"), PreconditionError);
  try {
    resolve_backend_override("bogus");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string_view(e.what()).find("valid:"), std::string_view::npos);
    EXPECT_NE(std::string_view(e.what()).find("gfni"), std::string_view::npos);
  }
  // The retired SSSE3 build is an unknown name now, not a known-unsupported
  // one: the message lists exactly the dispatched set.
  try {
    resolve_backend_override("ssse3");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string_view(e.what()).find("unknown MLEC_EC_BACKEND 'ssse3'"),
              std::string_view::npos);
    EXPECT_NE(std::string_view(e.what()).find("(valid: scalar, avx2, avx512, gfni, auto)"),
              std::string_view::npos);
  }
  for (auto b : kAllBackends) {
    if (backend_supported(b))
      EXPECT_EQ(resolve_backend_override(to_string(b)), b);
    else
      EXPECT_THROW(resolve_backend_override(to_string(b)), PreconditionError);
  }
}

TEST(EcBackend, ScalarAlwaysSupportedAndDetectIsSupported) {
  EXPECT_TRUE(backend_supported(Backend::kScalar));
  EXPECT_TRUE(backend_supported(detect_backend()));
  EXPECT_TRUE(backend_supported(active_backend()));
}

TEST(EcBackend, ForceBackendSwitchesDispatch) {
  for (auto b : supported()) {
    ScopedBackend scope(b);
    EXPECT_EQ(active_backend(), b);
    EXPECT_EQ(kernels().backend, b);
  }
}

TEST(EcBackend, ForceUnsupportedThrows) {
  for (auto b : kAllBackends) {
    if (backend_supported(b)) continue;
    EXPECT_THROW(force_backend(b), PreconditionError) << to_string(b);
    return;
  }
  GTEST_SKIP() << "all backends supported here";
}

TEST(EcBackend, EnvOverrideRespectedWhenSupported) {
  // active_backend() resolves from MLEC_EC_BACKEND on first use; when CI
  // forces a backend it must actually be the one dispatched.
  // Read-only getenv on the single test thread.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("MLEC_EC_BACKEND");
  if (env == nullptr || std::string_view(env) == "auto" || *env == '\0')
    GTEST_SKIP() << "no MLEC_EC_BACKEND set";
  const auto parsed = parse_backend(env);
  if (!parsed.has_value() || !backend_supported(*parsed))
    GTEST_SKIP() << "override not applicable on this host";
  EXPECT_EQ(active_backend(), *parsed);
}

/// GF(256) product over the 0x11d polynomial by shift and reduce: an
/// oracle independent of the field's log/exp tables.
byte_t mul_slow(byte_t a, byte_t b) {
  unsigned acc = 0;
  unsigned aa = a;
  for (unsigned bb = b; bb != 0; bb >>= 1) {
    if (bb & 1) acc ^= aa;
    aa <<= 1;
    if (aa & 0x100) aa ^= 0x11d;
  }
  return static_cast<byte_t>(acc);
}

TEST(EcFieldMath, MulSlowMatchesGfMul) {
  for (unsigned a = 0; a < 256; ++a)
    for (unsigned b = 0; b < 256; ++b)
      ASSERT_EQ(mul_slow(static_cast<byte_t>(a), static_cast<byte_t>(b)),
                gf::mul(static_cast<byte_t>(a), static_cast<byte_t>(b)))
          << "a=" << a << " b=" << b;
}

TEST(EcFieldMath, MakeMulTableMatchesGf) {
  // The one nibble-table builder agrees with the independent oracle.
  for (unsigned c = 0; c < 256; ++c) {
    const auto table = gf::make_mul_table(static_cast<byte_t>(c));
    for (unsigned n = 0; n < 16; ++n) {
      ASSERT_EQ(table.lo[n], mul_slow(static_cast<byte_t>(c), static_cast<byte_t>(n)))
          << "c=" << c << " n=" << n;
      ASSERT_EQ(table.hi[n], mul_slow(static_cast<byte_t>(c), static_cast<byte_t>(n << 4)))
          << "c=" << c << " n=" << n;
    }
  }
}

class EcKernelParity : public ::testing::TestWithParam<Backend> {};

TEST_P(EcKernelParity, MulAccMatchesNaiveGfMul) {
  MLEC_SKIP_IF_UNSUPPORTED(GetParam());
  const auto& kern = kernels_for(GetParam());
  Rng rng(101);
  for (const byte_t c : {byte_t{0}, byte_t{1}, byte_t{2}, byte_t{0x57}, byte_t{0xff}}) {
    const auto table = gf::make_mul_table(c);
    for (std::size_t len : kLengths) {
      for (std::size_t off : kOffsets) {
        const auto src = random_buffer(off + len, rng);
        auto dst = random_buffer(off + len, rng);
        auto expect = dst;
        for (std::size_t i = 0; i < len; ++i)
          expect[off + i] = static_cast<byte_t>(expect[off + i] ^ gf::mul(c, src[off + i]));
        kern.mul_acc(table, src.data() + off, dst.data() + off, len);
        ASSERT_EQ(dst, expect) << "c=" << unsigned(c) << " len=" << len << " off=" << off;
      }
    }
  }
}

TEST_P(EcKernelParity, MulAssignMatchesNaiveGfMul) {
  MLEC_SKIP_IF_UNSUPPORTED(GetParam());
  const auto& kern = kernels_for(GetParam());
  Rng rng(202);
  for (const byte_t c : {byte_t{0}, byte_t{3}, byte_t{0x8e}, byte_t{0xfe}}) {
    const auto table = gf::make_mul_table(c);
    for (std::size_t len : kLengths) {
      for (std::size_t off : kOffsets) {
        const auto src = random_buffer(off + len, rng);
        auto dst = random_buffer(off + len, rng);
        auto expect = dst;
        for (std::size_t i = 0; i < len; ++i) expect[off + i] = gf::mul(c, src[off + i]);
        kern.mul_assign(table, src.data() + off, dst.data() + off, len);
        ASSERT_EQ(dst, expect) << "c=" << unsigned(c) << " len=" << len << " off=" << off;
      }
    }
  }
}

TEST_P(EcKernelParity, FusedDotMatchesNaiveGfMul) {
  MLEC_SKIP_IF_UNSUPPORTED(GetParam());
  const auto& kern = kernels_for(GetParam());
  Rng rng(303);
  const std::vector<std::pair<std::size_t, std::size_t>> shapes{
      {1, 1}, {3, 1}, {10, 2}, {17, 3}, {5, 7}, {4, 9}};
  for (const auto& [k, p] : shapes) {
    std::vector<byte_t> coeffs(p * k);
    for (auto& c : coeffs) c = static_cast<byte_t>(rng.uniform_below(256));
    std::vector<MulTable> tables;
    for (const byte_t c : coeffs) tables.push_back(gf::make_mul_table(c));
    for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{17}, std::size_t{64},
                            std::size_t{257}, std::size_t{4097}}) {
      for (const bool accumulate : {false, true}) {
        const std::size_t off = (len + k + p) % 16;  // vary alignment too
        std::vector<std::vector<byte_t>> src, dst, expect;
        std::vector<const byte_t*> sp;
        std::vector<byte_t*> dp;
        for (std::size_t c = 0; c < k; ++c) {
          src.push_back(random_buffer(off + len, rng));
          sp.push_back(src.back().data() + off);
        }
        for (std::size_t r = 0; r < p; ++r) dst.push_back(random_buffer(off + len, rng));
        expect = dst;
        for (std::size_t r = 0; r < p; ++r) dp.push_back(dst[r].data() + off);
        for (std::size_t r = 0; r < p; ++r)
          for (std::size_t i = 0; i < len; ++i) {
            byte_t acc = accumulate ? expect[r][off + i] : byte_t{0};
            for (std::size_t c = 0; c < k; ++c)
              acc = static_cast<byte_t>(acc ^ gf::mul(coeffs[r * k + c], src[c][off + i]));
            expect[r][off + i] = acc;
          }
        kern.dot(tables.data(), k, p, sp.data(), dp.data(), len, accumulate);
        ASSERT_EQ(dst, expect) << "k=" << k << " p=" << p << " len=" << len
                               << " accumulate=" << accumulate;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EcKernelParity, ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) { return to_string(info.param); });

class EcRoundTrip : public ::testing::TestWithParam<Backend> {};

TEST_P(EcRoundTrip, RsEncodeCorruptReconstruct) {
  MLEC_SKIP_IF_UNSUPPORTED(GetParam());
  ScopedBackend scope(GetParam());
  Rng rng(404);
  for (const auto& [k, p] : std::vector<std::pair<std::size_t, std::size_t>>{{10, 2}, {17, 3}}) {
    const gf::RsCode code(k, p);
    const std::size_t len = 1021;  // odd length through the fused path
    std::vector<std::vector<byte_t>> data;
    for (std::size_t i = 0; i < k; ++i) data.push_back(random_buffer(len, rng));
    std::vector<std::vector<byte_t>> parity(p, std::vector<byte_t>(len, 0));
    code.encode(data, parity);

    std::vector<std::vector<byte_t>> shards = data;
    shards.insert(shards.end(), parity.begin(), parity.end());
    for (int round = 0; round < 8; ++round) {
      const std::size_t losses = 1 + rng.uniform_below(p);
      const auto lost = rng.sample_without_replacement(k + p, losses);
      auto damaged = shards;
      std::vector<std::size_t> lost_idx(lost.begin(), lost.end());
      for (auto idx : lost_idx) std::fill(damaged[idx].begin(), damaged[idx].end(), 0xAA);
      code.decode(damaged, lost_idx);
      for (std::size_t i = 0; i < k + p; ++i)
        ASSERT_EQ(damaged[i], shards[i]) << "k=" << k << " p=" << p << " round=" << round;
    }
  }
}

TEST_P(EcRoundTrip, ParityIdenticalAcrossBackends) {
  // Encode under this backend and under scalar: identical parity bytes.
  MLEC_SKIP_IF_UNSUPPORTED(GetParam());
  Rng rng(505);
  const gf::RsCode code(10, 4);
  const std::size_t len = 4097;
  std::vector<std::vector<byte_t>> data;
  for (std::size_t i = 0; i < 10; ++i) data.push_back(random_buffer(len, rng));
  std::vector<std::vector<byte_t>> parity_scalar(4, std::vector<byte_t>(len, 0));
  std::vector<std::vector<byte_t>> parity_backend(4, std::vector<byte_t>(len, 0));
  {
    ScopedBackend scope(Backend::kScalar);
    code.encode(data, parity_scalar);
  }
  {
    ScopedBackend scope(GetParam());
    code.encode(data, parity_backend);
  }
  EXPECT_EQ(parity_scalar, parity_backend);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EcRoundTrip, ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) { return to_string(info.param); });

TEST(EcStream, ParallelEncodeMatchesSerial) {
  Rng rng(606);
  ThreadPool pool(4);
  const gf::RsCode code(10, 3);
  const std::size_t len = 1 << 20 | 37;  // force an odd tail slice
  std::vector<std::vector<byte_t>> data;
  for (std::size_t i = 0; i < 10; ++i) data.push_back(random_buffer(len, rng));
  std::vector<std::vector<byte_t>> serial(3, std::vector<byte_t>(len, 0));
  std::vector<std::vector<byte_t>> parallel(3, std::vector<byte_t>(len, 0));
  code.encode(data, serial);

  std::vector<std::span<const byte_t>> d(data.begin(), data.end());
  std::vector<std::span<byte_t>> q(parallel.begin(), parallel.end());
  StreamOptions opts;
  opts.min_slice_bytes = 4096;  // many slices even on small pools
  ASSERT_TRUE(encode_parallel(code.encode_plan(), std::span<const std::span<const byte_t>>(d),
                              std::span<const std::span<byte_t>>(q), pool, {}, opts));
  EXPECT_EQ(serial, parallel);
}

TEST(EcStream, RsEncodeParallelWrapper) {
  Rng rng(707);
  ThreadPool pool(3);
  const gf::RsCode code(5, 2);
  const std::size_t len = 300001;
  std::vector<std::vector<byte_t>> data;
  for (std::size_t i = 0; i < 5; ++i) data.push_back(random_buffer(len, rng));
  std::vector<std::vector<byte_t>> serial(2, std::vector<byte_t>(len, 0));
  std::vector<std::vector<byte_t>> parallel(2, std::vector<byte_t>(len, 0));
  code.encode(data, serial);
  std::vector<std::span<const byte_t>> d(data.begin(), data.end());
  std::vector<std::span<byte_t>> q(parallel.begin(), parallel.end());
  ASSERT_TRUE(code.encode_parallel(std::span<const std::span<const byte_t>>(d),
                                   std::span<const std::span<byte_t>>(q), pool));
  EXPECT_EQ(serial, parallel);
}

TEST(EcStream, StoppedTokenTruncates) {
  ThreadPool pool(2);
  const gf::RsCode code(4, 2);
  StopSource source;
  source.request_stop();
  std::vector<std::vector<byte_t>> data(4, std::vector<byte_t>(1024, 1));
  std::vector<std::vector<byte_t>> parity(2, std::vector<byte_t>(1024, 0));
  std::vector<std::span<const byte_t>> d(data.begin(), data.end());
  std::vector<std::span<byte_t>> q(parity.begin(), parity.end());
  EXPECT_FALSE(code.encode_parallel(std::span<const std::span<const byte_t>>(d),
                                    std::span<const std::span<byte_t>>(q), pool,
                                    source.token()));
}

TEST(EcPlan, StoresCoefficientsRowMajor) {
  const std::vector<byte_t> coeffs{1, 2, 3, 4, 5, 6};
  const EncodePlan plan(2, 3, coeffs);
  EXPECT_EQ(plan.rows(), 2u);
  EXPECT_EQ(plan.cols(), 3u);
  EXPECT_EQ(plan.coefficient(0, 0), 1);
  EXPECT_EQ(plan.coefficient(1, 2), 6);
  EXPECT_THROW(EncodePlan(2, 3, std::vector<byte_t>{1, 2}), PreconditionError);
}

}  // namespace
}  // namespace mlec::ec
