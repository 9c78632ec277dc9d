// Decode-path property tests for the SIMD data plane: ec::DecodePlan
// construction/validation, scalar-vs-SIMD decode differentials over random
// erasure patterns for every code family (rs, wide rs, lrc), the parallel
// streaming decode, and the per-pattern plan caches on the codes.
#include "ec/decode.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "ec/backend.hpp"
#include "ec/stream.hpp"
#include "gf/code_model.hpp"
#include "gf/gf256.hpp"
#include "gf/rs.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mlec::ec {
namespace {

using gf::byte_t;

std::vector<byte_t> random_buffer(std::size_t len, Rng& rng) {
  std::vector<byte_t> buf(len);
  for (auto& b : buf) b = static_cast<byte_t>(rng.uniform_below(256));
  return buf;
}

/// Encode a full stripe for `model` from random data of length `len`.
std::vector<std::vector<byte_t>> random_stripe(const CodeModel& model, std::size_t len,
                                               Rng& rng) {
  std::vector<std::vector<byte_t>> shards;
  for (std::size_t i = 0; i < model.data_chunks(); ++i) shards.push_back(random_buffer(len, rng));
  std::vector<std::span<const byte_t>> data(shards.begin(), shards.end());
  shards.resize(model.width(), std::vector<byte_t>(len, 0));
  std::vector<std::span<byte_t>> parity(shards.begin() + model.data_chunks(), shards.end());
  model.encode(std::span<const std::span<const byte_t>>(data),
               std::span<const std::span<byte_t>>(parity));
  return shards;
}

/// A random decodable erasure pattern of `losses` shards (retries until the
/// model accepts it; every model here tolerates at least one loss).
std::vector<std::size_t> random_decodable_pattern(const CodeModel& model, std::size_t losses,
                                                  Rng& rng) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const auto sampled = rng.sample_without_replacement(model.width(), losses);
    std::vector<std::size_t> lost(sampled.begin(), sampled.end());
    if (model.can_repair(lost)) return lost;
  }
  return {};  // caller treats empty as "no decodable pattern of this size"
}

/// The generator shape the LRC code model builds: identity data rows, one
/// all-ones row per local group, Cauchy global rows.
std::vector<byte_t> lrc_generator(std::size_t k, std::size_t l, std::size_t r) {
  std::vector<byte_t> gen((k + l + r) * k, 0);
  for (std::size_t i = 0; i < k; ++i) gen[i * k + i] = 1;
  for (std::size_t g = 0; g < l; ++g)
    for (std::size_t j = 0; j < k / l; ++j) gen[(k + g) * k + g * (k / l) + j] = 1;
  const gf::Matrix global = gf::Matrix::cauchy(r, k);
  for (std::size_t j = 0; j < r; ++j)
    for (std::size_t c = 0; c < k; ++c) gen[(k + l + j) * k + c] = global.at(j, c);
  return gen;
}

TEST(EcDecodePlan, ValidatesInputs) {
  // 3+2 toy systematic generator: identity + two distinct parity rows.
  const std::vector<byte_t> gen{1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 2, 3};
  const std::vector<std::size_t> one{0};
  EXPECT_NO_THROW(DecodePlan(5, 3, gen, one));
  const std::vector<std::size_t> oob{5};
  EXPECT_THROW(DecodePlan(5, 3, gen, oob), PreconditionError);
  const std::vector<std::size_t> dup{1, 1};
  EXPECT_THROW(DecodePlan(5, 3, gen, dup), PreconditionError);
  std::vector<byte_t> not_systematic = gen;
  not_systematic[1] = 7;  // break the identity block
  EXPECT_THROW(DecodePlan(5, 3, not_systematic, one), PreconditionError);
  EXPECT_THROW(DecodePlan(5, 3, std::vector<byte_t>(7), one), PreconditionError);
}

TEST(EcDecodePlan, PartitionsLossesAndPicksStripeOrderSurvivors) {
  const std::vector<byte_t> gen{1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 2, 3};
  const std::vector<std::size_t> lost{4, 1};
  const DecodePlan plan(5, 3, gen, lost);
  ASSERT_TRUE(plan.viable());
  EXPECT_EQ(plan.width(), 5u);
  EXPECT_EQ(plan.data_symbols(), 3u);
  EXPECT_EQ(plan.lost_data(), (std::vector<std::size_t>{1}));
  EXPECT_EQ(plan.lost_parity(), (std::vector<std::size_t>{4}));
  // Stripe-order greedy selection keeps the intact data rows first.
  EXPECT_EQ(plan.survivors(), (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_EQ(plan.data_plan().rows(), 1u);
  EXPECT_EQ(plan.parity_plan().rows(), 1u);
}

TEST(EcDecodePlan, NonViablePatternRejectedByDecode) {
  // An LRC whose survivors cannot span the data: lose a whole group plus
  // its local parity with only one global. lrc(4,2,1): groups {0,1}+p4,
  // {2,3}+p5, global p6. Losing {0,1,4} leaves rank 3 < 4.
  const auto model = make_code_model(LevelCode::make_lrc(LrcCode{4, 2, 1}));
  const std::vector<std::size_t> lost{0, 1, 4};
  ASSERT_FALSE(model->can_repair(lost));

  const DecodePlan plan(7, 4, lrc_generator(4, 2, 1), lost);
  EXPECT_FALSE(plan.viable());
  std::vector<std::vector<byte_t>> shards(7, std::vector<byte_t>(64, 0));
  std::vector<byte_t*> ptrs;
  for (auto& s : shards) ptrs.push_back(s.data());
  EXPECT_THROW(decode(plan, ptrs.data(), 64), PreconditionError);
}

class EcDecodeDifferential : public ::testing::TestWithParam<Backend> {
 protected:
  void SkipUnlessSupported() {
    if (!backend_supported(GetParam()))
      GTEST_SKIP() << to_string(GetParam()) << " unsupported on this host/build";
  }
};

TEST_P(EcDecodeDifferential, MatchesScalarOverRandomPatterns) {
  SkipUnlessSupported();
  Rng rng(20240809);
  const std::vector<LevelCode> levels{
      LevelCode::make_rs({10, 4}),
      LevelCode::make_rs({50, 10}),
      LevelCode::make_lrc(LrcCode{12, 2, 2}),
  };
  for (const auto& level : levels) {
    const auto model = make_code_model(level);
    const std::size_t len = 1021;  // odd length through the fused kernels
    const auto shards = random_stripe(*model, len, rng);
    for (int round = 0; round < 12; ++round) {
      const std::size_t losses = 1 + rng.uniform_below(model->parity_chunks());
      const auto lost = random_decodable_pattern(*model, losses, rng);
      if (lost.empty()) continue;

      auto scalar_out = shards;
      auto backend_out = shards;
      for (auto idx : lost) {
        std::fill(scalar_out[idx].begin(), scalar_out[idx].end(), 0xAA);
        std::fill(backend_out[idx].begin(), backend_out[idx].end(), 0x55);
      }
      {
        ScopedBackend scope(Backend::kScalar);
        model->decode(scalar_out, lost);
      }
      {
        ScopedBackend scope(GetParam());
        model->decode(backend_out, lost);
      }
      for (std::size_t i = 0; i < model->width(); ++i) {
        ASSERT_EQ(backend_out[i], shards[i])
            << level.notation() << " shard " << i << " round " << round;
        ASSERT_EQ(backend_out[i], scalar_out[i])
            << level.notation() << " shard " << i << " round " << round;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EcDecodeDifferential, ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) { return to_string(info.param); });

TEST(EcDecodeParallel, MatchesSerialBitExactly) {
  Rng rng(909);
  ThreadPool pool(4);
  const gf::RsCode code(10, 4);
  const std::size_t len = (1 << 20) | 37;  // force an odd tail slice
  std::vector<std::vector<byte_t>> data;
  for (std::size_t i = 0; i < 10; ++i) data.push_back(random_buffer(len, rng));
  std::vector<std::vector<byte_t>> parity(4, std::vector<byte_t>(len, 0));
  code.encode(data, parity);
  std::vector<std::vector<byte_t>> shards = data;
  shards.insert(shards.end(), parity.begin(), parity.end());

  const std::vector<std::size_t> lost{1, 7, 12};
  auto serial = shards;
  auto parallel = shards;
  for (auto idx : lost) {
    std::fill(serial[idx].begin(), serial[idx].end(), 0xAA);
    std::fill(parallel[idx].begin(), parallel[idx].end(), 0x55);
  }
  code.decode(serial, lost);
  ASSERT_TRUE(code.decode_parallel(parallel, lost, pool));
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, shards);
}

TEST(EcDecodeParallel, SmallSlicesAndNumaOffStayIdentical) {
  Rng rng(910);
  ThreadPool pool(3);
  const gf::RsCode code(6, 3);
  const std::size_t len = 300001;
  std::vector<std::vector<byte_t>> data;
  for (std::size_t i = 0; i < 6; ++i) data.push_back(random_buffer(len, rng));
  std::vector<std::vector<byte_t>> parity(3, std::vector<byte_t>(len, 0));
  code.encode(data, parity);
  std::vector<std::vector<byte_t>> shards = data;
  shards.insert(shards.end(), parity.begin(), parity.end());

  const std::vector<std::size_t> lost{0, 8};
  auto expect = shards;
  for (auto idx : lost) std::fill(expect[idx].begin(), expect[idx].end(), 0xAA);
  code.decode(expect, lost);

  const auto plan = code.decode_plan(lost);
  for (const bool numa : {true, false}) {
    auto got = shards;
    for (auto idx : lost) std::fill(got[idx].begin(), got[idx].end(), 0x55);
    std::vector<std::span<byte_t>> spans(got.begin(), got.end());
    StreamOptions opts;
    opts.min_slice_bytes = 4096;
    opts.numa_aware = numa;
    ASSERT_TRUE(decode_parallel(*plan, std::span<const std::span<byte_t>>(spans), pool, {}, opts));
    EXPECT_EQ(got, expect) << "numa_aware=" << numa;
  }
}

TEST(EcDecodeParallel, StoppedTokenTruncates) {
  ThreadPool pool(2);
  const gf::RsCode code(4, 2);
  StopSource source;
  source.request_stop();
  std::vector<std::vector<byte_t>> shards(6, std::vector<byte_t>(1024, 1));
  const std::vector<std::size_t> lost{2};
  EXPECT_FALSE(code.decode_parallel(shards, lost, pool, source.token()));
}

TEST(EcDecodeParallel, FirstTouchAndNodeCountAreSane) {
  ThreadPool pool(2);
  std::vector<byte_t> buf(1 << 20, 0);
  first_touch_parallel(std::span<byte_t>(buf), pool);
  EXPECT_GE(numa_node_count(), 1u);
}

TEST(EcPlanCache, RsCachesOnePlanPerPattern) {
  const gf::RsCode code(8, 3);
  EXPECT_EQ(code.cached_decode_plans(), 0u);
  const std::vector<std::size_t> a{2, 9};
  const std::vector<std::size_t> a_reordered{9, 2};
  const std::vector<std::size_t> b{0};
  const auto p1 = code.decode_plan(a);
  const auto p2 = code.decode_plan(a_reordered);  // sorted key: same pattern
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(code.cached_decode_plans(), 1u);
  code.decode_plan(b);
  EXPECT_EQ(code.cached_decode_plans(), 2u);

  // Repeated decodes of a cached pattern reuse the plan and still rebuild.
  Rng rng(111);
  std::vector<std::vector<byte_t>> data;
  for (std::size_t i = 0; i < 8; ++i) data.push_back(random_buffer(257, rng));
  std::vector<std::vector<byte_t>> parity(3, std::vector<byte_t>(257, 0));
  code.encode(data, parity);
  std::vector<std::vector<byte_t>> shards = data;
  shards.insert(shards.end(), parity.begin(), parity.end());
  auto damaged = shards;
  for (auto idx : a) std::fill(damaged[idx].begin(), damaged[idx].end(), 0);
  code.decode(damaged, a);
  EXPECT_EQ(damaged, shards);
  EXPECT_EQ(code.cached_decode_plans(), 2u);
}

TEST(EcPlanCache, LrcCachesOnePlanPerPattern) {
  // lrc(4,2,1): groups {0,1}+p4 and {2,3}+p5, global p6. Non-MDS, so the
  // cache also holds non-viable plans.
  const DecodePlanCache cache(7, 4, lrc_generator(4, 2, 1));
  EXPECT_EQ(cache.size(), 0u);
  const std::vector<std::size_t> a{1, 6};
  const std::vector<std::size_t> a_reordered{6, 1};
  const auto p1 = cache.get(a);
  const auto p2 = cache.get(a_reordered);  // sorted key: same pattern
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_TRUE(p1->viable());
  EXPECT_EQ(cache.size(), 1u);
  const std::vector<std::size_t> lost_group{4, 0, 1};
  const auto dead = cache.get(lost_group);
  EXPECT_FALSE(dead->viable());
  EXPECT_EQ(cache.get(std::vector<std::size_t>{0, 1, 4}).get(), dead.get());
  EXPECT_EQ(cache.size(), 2u);

  // The cached plan rebuilds a stripe the LRC code model encoded.
  const auto model = make_code_model(LevelCode::make_lrc(LrcCode{4, 2, 1}));
  Rng rng(112);
  const auto shards = random_stripe(*model, 257, rng);
  auto damaged = shards;
  for (auto idx : a) std::fill(damaged[idx].begin(), damaged[idx].end(), 0);
  std::vector<byte_t*> ptrs;
  for (auto& s : damaged) ptrs.push_back(s.data());
  decode(*p2, ptrs.data(), 257);
  EXPECT_EQ(damaged, shards);
}

/// FNV-1a over a byte range, folded into `h`.
std::uint64_t fnv1a(std::span<const byte_t> bytes, std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const byte_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

/// Parity bytes of one stripe of fixed (non-random) data, hashed.
std::uint64_t parity_hash(const CodeModel& model, std::size_t len) {
  std::vector<std::vector<byte_t>> shards(model.width(), std::vector<byte_t>(len, 0));
  for (std::size_t i = 0; i < model.data_chunks(); ++i)
    for (std::size_t j = 0; j < len; ++j) shards[i][j] = static_cast<byte_t>(j * 31 + i * 131 + 7);
  std::vector<std::span<const byte_t>> data(shards.begin(),
                                            shards.begin() + model.data_chunks());
  std::vector<std::span<byte_t>> parity(shards.begin() + model.data_chunks(), shards.end());
  model.encode(data, parity);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& span : parity) h = fnv1a(span, h);
  return h;
}

TEST(EcPin, ParityAndPlanBytesArePinned) {
  // The paper's local and network RS codes and the crosscheck LRC shape:
  // any change to the field, the Cauchy rows, the elimination or the
  // kernels moves these bytes.
  EXPECT_EQ(parity_hash(*make_code_model(LevelCode::make_rs({17, 3})), 1000),
            0x4f3b1088a5363266ULL);
  EXPECT_EQ(parity_hash(*make_code_model(LevelCode::make_rs({10, 2})), 1000),
            0x8855e284fd98fbc7ULL);
  EXPECT_EQ(parity_hash(*make_code_model(LevelCode::make_lrc(LrcCode{12, 2, 2})), 1000),
            0x09a0f194ae4fa750ULL);

  // One plan's inverted-submatrix rows: RS(17+3) losing two data shards
  // and a parity.
  const gf::RsCode code(17, 3);
  const std::vector<std::size_t> lost{3, 11, 18};
  const auto plan = code.decode_plan(lost);
  ASSERT_EQ(plan->data_plan().rows(), 2u);
  std::vector<byte_t> coeffs;
  for (std::size_t r = 0; r < plan->data_plan().rows(); ++r)
    for (std::size_t c = 0; c < plan->data_plan().cols(); ++c)
      coeffs.push_back(plan->data_plan().coefficient(r, c));
  EXPECT_EQ(fnv1a(coeffs), 0xe2be9452ea9748dbULL);
  EXPECT_EQ(coeffs[0], 0x71);
  EXPECT_EQ(coeffs[16], 0xad);
}

TEST(EcPlanCache, RejectsOverParityLoss) {
  const gf::RsCode code(4, 2);
  const std::vector<std::size_t> too_many{0, 1, 2};
  EXPECT_THROW(code.decode_plan(too_many), PreconditionError);
  const gf::RsCode no_parity(4, 0);
  const std::vector<std::size_t> one{0};
  EXPECT_THROW(no_parity.decode_plan(one), PreconditionError);
}

}  // namespace
}  // namespace mlec::ec
