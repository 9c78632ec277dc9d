// CodeModel layer tests: the pluggable code-family interface behind which
// every consumer (planner, executor, fleet sim, closed forms) now talks to
// "the code". The heart is differential testing — RS decodability against
// the MDS count rule over every erasure pattern, LRC decodability against
// the independent maximally-recoverable criterion (placement/lrc.hpp) and
// against actual byte-exact decodes — plus the hand-computed tolerance,
// fraction, and repair-read oracles the closed forms consume.
#include "gf/code_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "placement/lrc.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlec {
namespace {

std::vector<std::size_t> mask_to_list(ErasureMask mask, std::size_t width) {
  std::vector<std::size_t> list;
  for (std::size_t i = 0; i < width; ++i)
    if ((mask >> i) & 1U) list.push_back(i);
  return list;
}

/// Encode a random stripe with `model`, zero the shards in `lost`, decode,
/// and compare against the originals. Returns false on any byte mismatch.
bool decode_round_trip(const CodeModel& model, const std::vector<std::size_t>& lost, Rng& rng,
                       std::size_t len = 96) {
  const std::size_t k = model.data_chunks();
  std::vector<std::vector<gf::byte_t>> shards(model.width(), std::vector<gf::byte_t>(len, 0));
  for (std::size_t i = 0; i < k; ++i)
    for (auto& b : shards[i]) b = static_cast<gf::byte_t>(rng.uniform_below(256));
  {
    std::vector<std::span<const gf::byte_t>> data;
    for (std::size_t i = 0; i < k; ++i) data.emplace_back(shards[i]);
    std::vector<std::span<gf::byte_t>> parity;
    for (std::size_t i = k; i < model.width(); ++i) parity.emplace_back(shards[i]);
    model.encode(data, parity);
  }
  const auto pristine = shards;
  for (std::size_t idx : lost) std::fill(shards[idx].begin(), shards[idx].end(), 0xEE);
  model.decode(shards, lost);
  return shards == pristine;
}

// ---------------------------------------------------------------------------
// Differential: RS decodability is exactly the MDS count rule.

TEST(CodeModel, RsCanRepairMatchesCountRuleOverAllPatterns) {
  const std::pair<std::size_t, std::size_t> shapes[] = {{2, 1}, {4, 2}, {4, 3}, {5, 2}, {3, 0}};
  for (const auto& [k, p] : shapes) {
    const auto model = make_code_model(LevelCode::make_rs({k, p}));
    const std::size_t n = k + p;
    for (ErasureMask mask = 0; mask < (ErasureMask{1} << n); ++mask) {
      const bool expect = static_cast<std::size_t>(std::popcount(mask)) <= p;
      EXPECT_EQ(model->can_repair(mask), expect) << "rs(" << k << "+" << p << ") mask=" << mask;
      const auto list = mask_to_list(mask, n);
      EXPECT_EQ(model->can_repair(std::span<const std::size_t>(list)), expect);
    }
    EXPECT_EQ(model->min_tolerance(), p);
    EXPECT_EQ(model->max_tolerance(), p);
    EXPECT_EQ(model->decodable_fraction(p), 1.0);
    EXPECT_EQ(model->decodable_fraction(p + 1), 0.0);
    EXPECT_EQ(model->avg_single_repair_reads(), static_cast<double>(k));
  }
}

// ---------------------------------------------------------------------------
// Differential against the independent maximally-recoverable criterion
// (placement/lrc.hpp), exhaustively over every erasure pattern. MR is an
// upper bound on what ANY code with this layout can decode, so the model
// must never claim a pattern MR calls lost (that would be a soundness
// bug in the generator table). The converse holds in full only for the
// single-global shapes; with r >= 2 globals the Cauchy construction
// meets the r+1 distance guarantee everywhere (asserted via
// min_tolerance) but concedes some deeper patterns that a coefficient-
// tuned MR code would recover — the table prices exactly what the byte
// decoder can do, which is the invariant the rest of the stack needs.

TEST(CodeModel, LrcCanRepairIsSoundAgainstMaximallyRecoverableBound) {
  const LrcCode shapes[] = {{4, 2, 1}, {6, 3, 2}, {6, 2, 2}, {4, 1, 2}};
  for (const LrcCode& c : shapes) {
    const auto model = make_code_model(LevelCode::make_lrc(c));
    const LrcStripeShape shape(c);
    const std::size_t n = c.width();
    EXPECT_EQ(model->min_tolerance(), c.r + 1) << "lrc" << c.notation();
    for (ErasureMask mask = 0; mask < (ErasureMask{1} << n); ++mask) {
      const auto list = mask_to_list(mask, n);
      const bool mr = shape.recoverable(list);
      if (model->can_repair(mask)) {
        EXPECT_TRUE(mr) << "lrc" << c.notation() << " mask=" << mask
                        << ": model claims a pattern MR rules out";
      }
      // Up to r+1 losses the two criteria must agree exactly.
      if (static_cast<std::size_t>(std::popcount(mask)) <= c.r + 1) {
        EXPECT_EQ(model->can_repair(mask), mr)
            << "lrc" << c.notation() << " mask=" << mask;
      }
    }
  }
}

TEST(CodeModel, LrcSingleGlobalMatchesMaximallyRecoverableExactly) {
  const LrcCode c{4, 2, 1};
  const auto model = make_code_model(LevelCode::make_lrc(c));
  const LrcStripeShape shape(c);
  for (ErasureMask mask = 0; mask < (ErasureMask{1} << c.width()); ++mask) {
    const auto list = mask_to_list(mask, c.width());
    EXPECT_EQ(model->can_repair(mask), shape.recoverable(list))
        << "lrc" << c.notation() << " mask=" << mask;
  }
}

// ---------------------------------------------------------------------------
// Differential: whenever the model says decodable, a real byte decode must
// reconstruct exactly; whenever it says lost, decode must refuse.

TEST(CodeModel, LrcDecodabilityAgreesWithByteExactDecodeExhaustively) {
  const LrcCode c{4, 2, 1};  // width 7: all 128 patterns
  const auto model = make_code_model(LevelCode::make_lrc(c));
  Rng rng(2024);
  for (ErasureMask mask = 0; mask < (ErasureMask{1} << c.width()); ++mask) {
    const auto lost = mask_to_list(mask, c.width());
    if (model->can_repair(mask)) {
      EXPECT_TRUE(decode_round_trip(*model, lost, rng)) << "mask=" << mask;
    } else {
      std::vector<std::vector<gf::byte_t>> shards(c.width(), std::vector<gf::byte_t>(16, 0));
      EXPECT_THROW(model->decode(shards, lost), PreconditionError) << "mask=" << mask;
    }
  }
}

TEST(CodeModel, LrcWideShapeSampledPatternsDecodeByteExactly) {
  const LrcCode c{12, 2, 2};  // width 16
  const auto model = make_code_model(LevelCode::make_lrc(c));
  Rng rng(77);
  std::size_t decodable_seen = 0;
  for (int round = 0; round < 260; ++round) {
    const std::size_t losses = 1 + rng.uniform_below(c.l + c.r);
    const auto sampled = rng.sample_without_replacement(c.width(), losses);
    const std::vector<std::size_t> lost(sampled.begin(), sampled.end());
    ErasureMask mask = 0;
    for (std::size_t idx : lost) mask |= ErasureMask{1} << idx;
    const LrcStripeShape shape(c);
    // Soundness versus the MR bound (equality need not hold above r+1
    // losses; see LrcCanRepairIsSoundAgainstMaximallyRecoverableBound).
    if (model->can_repair(mask)) {
      ASSERT_TRUE(shape.recoverable(lost)) << "mask=" << mask;
    }
    if (!model->can_repair(mask)) continue;
    ++decodable_seen;
    ASSERT_TRUE(decode_round_trip(*model, lost, rng)) << "mask=" << mask;
  }
  EXPECT_GE(decodable_seen, 200u);  // the sampler must actually exercise decodes
}

// ---------------------------------------------------------------------------
// Hand-computed structural oracles.

TEST(CodeModel, Lrc421ToleranceStructure) {
  // lrc(4,2,1), width 7: every 2-pattern decodes; of the C(7,3) = 35
  // 3-patterns, 8 are fatal (2 with a whole group gone, 6 with two group
  // members plus the global), so frac(3) = 27/35.
  const auto model = make_code_model(LevelCode::make_lrc({4, 2, 1}));
  EXPECT_EQ(model->min_tolerance(), 2u);
  EXPECT_EQ(model->max_tolerance(), 3u);
  EXPECT_EQ(model->decodable_fraction(2), 1.0);
  EXPECT_NEAR(model->decodable_fraction(3), 27.0 / 35.0, 1e-12);
  EXPECT_EQ(model->decodable_fraction(4), 0.0);
}

TEST(CodeModel, Lrc1222ToleranceAndRepairReads) {
  // lrc(12,2,2): any 3 erasures decode (MR), some 4-patterns do not.
  // Single-failure reads: 14 group members cost 6 (group width 7 minus
  // one), 2 globals cost k = 12 -> mean (14*6 + 2*12)/16 = 6.75 < 12.
  const auto model = make_code_model(LevelCode::make_lrc({12, 2, 2}));
  EXPECT_EQ(model->min_tolerance(), 3u);
  EXPECT_EQ(model->max_tolerance(), 4u);
  EXPECT_LT(model->decodable_fraction(4), 1.0);
  EXPECT_GT(model->decodable_fraction(4), 0.0);
  EXPECT_DOUBLE_EQ(model->avg_single_repair_reads(), 6.75);
  EXPECT_LT(model->avg_single_repair_reads(),
            static_cast<double>(model->data_chunks()));
}

TEST(CodeModel, LrcRepairReadsFollowTheFailurePattern) {
  const auto model = make_code_model(LevelCode::make_lrc({4, 2, 1}));
  // Lone data loss: its group (2 data + 1 local parity) has 2 survivors.
  EXPECT_DOUBLE_EQ(model->single_repair_reads(0), 2.0);
  // Lone local-parity loss: same locality.
  EXPECT_DOUBLE_EQ(model->single_repair_reads(4), 2.0);
  // Lone global-parity loss: needs all k data chunks.
  EXPECT_DOUBLE_EQ(model->single_repair_reads(6), 4.0);
  // Two losses in one group: locality gone, position 0 pays a global decode.
  const ErasureMask both_in_group = (ErasureMask{1} << 0) | (ErasureMask{1} << 1);
  EXPECT_DOUBLE_EQ(model->repair_reads(0, both_in_group), 4.0);
  // Two losses in different groups: each keeps its local repair.
  const ErasureMask split = (ErasureMask{1} << 0) | (ErasureMask{1} << 2);
  EXPECT_DOUBLE_EQ(model->repair_reads(0, split), 2.0);
  EXPECT_DOUBLE_EQ(model->repair_reads(2, split), 2.0);
}

// ---------------------------------------------------------------------------
// Wide RS: the 256-symbol field limit, round-trips at k = 50, and the
// process-wide plan cache.

TEST(CodeModel, WideRsRoundTripsAndValidatesLimits) {
  const auto model = make_code_model(LevelCode::make_rs({50, 10}));
  EXPECT_EQ(model->family(), CodeFamily::kRs);
  EXPECT_EQ(model->min_tolerance(), 10u);
  Rng rng(9);
  for (int round = 0; round < 5; ++round) {
    const std::size_t losses = 1 + rng.uniform_below(10);
    const auto sampled = rng.sample_without_replacement(60, losses);
    EXPECT_TRUE(
        decode_round_trip(*model, std::vector<std::size_t>(sampled.begin(), sampled.end()), rng));
  }
  // The field caps width at 256.
  EXPECT_THROW(make_code_model(LevelCode::make_rs({250, 10})), PreconditionError);
  EXPECT_NO_THROW(make_code_model(LevelCode::make_rs({246, 10})));
}

TEST(CodeModel, FactoryCachesPerParameterSet) {
  const auto a = make_code_model(LevelCode::make_rs({50, 10}));
  const auto b = make_code_model(LevelCode::make_rs({50, 10}));
  EXPECT_EQ(a.get(), b.get());  // one plan/table per process per shape
  const auto c = make_code_model(LevelCode::make_rs({50, 9}));
  EXPECT_NE(a.get(), c.get());
  const auto l1 = make_code_model(LevelCode::make_lrc({4, 2, 1}));
  const auto l2 = make_code_model(LevelCode::make_lrc({4, 2, 1}));
  EXPECT_EQ(l1.get(), l2.get());
}

TEST(CodeModel, LrcTableWidthLimitEnforced) {
  EXPECT_THROW(make_code_model(LevelCode::make_lrc({18, 2, 2})), PreconditionError);
  EXPECT_NO_THROW(make_code_model(LevelCode::make_lrc({14, 2, 2})));
}

TEST(CodeModel, NotationIsFamilyQualified) {
  EXPECT_EQ(LevelCode::make_rs({10, 2}).notation(), "rs(10+2)");
  EXPECT_EQ(LevelCode::make_lrc({12, 2, 2}).notation(), "lrc(12,2,2)");
  EXPECT_EQ(parse_code_family("rs"), CodeFamily::kRs);
  EXPECT_EQ(parse_code_family("lrc"), CodeFamily::kLrc);
  EXPECT_THROW(parse_code_family("raptor"), PreconditionError);
  EXPECT_THROW(parse_code_family("rs_wide"), PreconditionError);  // retired tag
}

}  // namespace
}  // namespace mlec
