#include "placement/lrc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace mlec {
namespace {

const LrcCode kPaperLrc{14, 2, 4};  // the paper's §5.2.3 configuration
const LrcCode kFigureLrc{4, 2, 2};  // Figure 14

TEST(LrcShape, RolesAndGroups) {
  const LrcStripeShape shape(kFigureLrc);
  // Layout: d0 d1 | d2 d3 | L0 L1 | G0 G1.
  EXPECT_EQ(shape.role(0), LrcChunkRole::kData);
  EXPECT_EQ(shape.group(0), 0u);
  EXPECT_EQ(shape.group(1), 0u);
  EXPECT_EQ(shape.group(2), 1u);
  EXPECT_EQ(shape.role(4), LrcChunkRole::kLocalParity);
  EXPECT_EQ(shape.group(4), 0u);
  EXPECT_EQ(shape.group(5), 1u);
  EXPECT_EQ(shape.role(6), LrcChunkRole::kGlobalParity);
  EXPECT_EQ(shape.group(6), 2u);  // sentinel outside local groups
}

TEST(LrcShape, SingleFailureAlwaysRecoverable) {
  const LrcStripeShape shape(kPaperLrc);
  for (std::size_t c = 0; c < kPaperLrc.width(); ++c)
    EXPECT_TRUE(shape.recoverable({c})) << "chunk " << c;
}

TEST(LrcShape, GroupAbsorbsOneFailure) {
  const LrcStripeShape shape(kPaperLrc);
  // r+1 = 5 failures inside one group: residual 4 <= r, recoverable.
  EXPECT_TRUE(shape.recoverable({0, 1, 2, 3, 4}));
  // r+2 = 6 failures inside one group: residual 5 > r, lost.
  EXPECT_FALSE(shape.recoverable({0, 1, 2, 3, 4, 5}));
}

TEST(LrcShape, SpreadFailuresAreCheaper) {
  const LrcStripeShape shape(kPaperLrc);
  // 6 failures spread as 3+3 across both groups: residual 2+2 = 4 <= r.
  EXPECT_TRUE(shape.recoverable({0, 1, 2, 7, 8, 9}));
}

TEST(LrcShape, GlobalParitiesCountFully) {
  const LrcStripeShape shape(kPaperLrc);
  // All 4 globals lost: residual 4, still fine.
  EXPECT_TRUE(shape.recoverable({16, 17, 18, 19}));
  // All globals + 2 in one group: residual 5 > r.
  EXPECT_FALSE(shape.recoverable({16, 17, 18, 19, 0, 1}));
  // All globals + 1 data (absorbed by its local parity): recoverable.
  EXPECT_TRUE(shape.recoverable({16, 17, 18, 19, 0}));
}

TEST(LrcShape, LocalParityLossesJoinTheirGroup) {
  const LrcStripeShape shape(kPaperLrc);
  // Local parity of group 0 is chunk 14; its loss plus one data chunk of the
  // same group leaves residual 1.
  EXPECT_TRUE(shape.recoverable({14, 0}));
  // Entire group 0 (7 data + local parity): residual 7 > r.
  EXPECT_FALSE(shape.recoverable({0, 1, 2, 3, 4, 5, 6, 14}));
}

TEST(LrcShape, CountsApiMatchesChunkApi) {
  const LrcStripeShape shape(kPaperLrc);
  EXPECT_TRUE(LrcStripeShape::recoverable_counts(kPaperLrc, {5, 0}, 0));
  EXPECT_FALSE(LrcStripeShape::recoverable_counts(kPaperLrc, {6, 0}, 0));
  EXPECT_FALSE(LrcStripeShape::recoverable_counts(kPaperLrc, {2, 0}, 4));
  EXPECT_TRUE(LrcStripeShape::recoverable_counts(kPaperLrc, {1, 1}, 4));
}

TEST(LrcShape, ResidualDistributionMatchesBruteForce) {
  // Enumerate every failure subset of small shapes under uneven per-chunk
  // loss probabilities: the loss mass must equal the summed probability of
  // the subsets recoverable() rejects, and each residual's mass the
  // probability of the subsets whose residual it is.
  Rng rng(77);
  for (const LrcCode code : {LrcCode{4, 2, 1}, kFigureLrc, LrcCode{6, 3, 2}, LrcCode{6, 2, 3}}) {
    const LrcStripeShape shape(code);
    const std::size_t w = shape.width();
    std::vector<double> loss(w);
    for (auto& u : loss) u = 0.05 + 0.6 * rng.uniform();
    const DiscreteDist dist = shape.residual_distribution(loss);
    ASSERT_EQ(dist.size(), code.r + 2);

    std::vector<double> brute(code.r + 2, 0.0);
    double lost = 0.0;
    for (std::uint32_t mask = 0; mask < (1U << w); ++mask) {
      double prob = 1.0;
      std::vector<std::size_t> failed;
      std::vector<std::size_t> per_group(code.l, 0);
      std::size_t globals = 0;
      for (std::size_t c = 0; c < w; ++c) {
        const bool f = ((mask >> c) & 1U) != 0;
        prob *= f ? loss[c] : 1.0 - loss[c];
        if (!f) continue;
        failed.push_back(c);
        if (shape.group(c) == code.l)
          ++globals;
        else
          ++per_group[shape.group(c)];
      }
      if (!shape.recoverable(failed)) lost += prob;
      // Residual: the fewest globals that would make the pattern
      // recoverable, lumped at r+1.
      std::size_t residual = 0;
      while (residual <= code.r &&
             !LrcStripeShape::recoverable_counts(LrcCode{code.k, code.l, residual}, per_group,
                                                 globals))
        ++residual;
      brute[residual] += prob;
    }
    EXPECT_NEAR(dist.tail_geq(code.r + 1), lost, 1e-12) << code.notation();
    for (std::size_t j = 0; j < brute.size(); ++j)
      EXPECT_NEAR(dist.pmf(j), brute[j], 1e-12) << code.notation() << " residual " << j;
  }
}

TEST(LrcShape, SingleRepairReads) {
  const LrcStripeShape shape(kPaperLrc);
  EXPECT_EQ(shape.single_repair_reads(0), 7u);   // data: local group
  EXPECT_EQ(shape.single_repair_reads(14), 7u);  // local parity: its group
  EXPECT_EQ(shape.single_repair_reads(16), 14u); // global parity: all data
}

TEST(LrcPlacement, DeclusteredUsesDistinctRacks) {
  const Topology topo(DataCenterConfig::paper_default());
  const auto placements = place_lrc_declustered(topo, kPaperLrc, 50);
  ASSERT_EQ(placements.size(), 50u);
  for (const auto& p : placements) {
    ASSERT_EQ(p.racks.size(), 20u);
    const std::set<RackId> uniq(p.racks.begin(), p.racks.end());
    EXPECT_EQ(uniq.size(), 20u);
    for (RackId r : p.racks) EXPECT_LT(r, 60u);
  }
}

TEST(LrcPlacement, RejectsTooFewRacks) {
  DataCenterConfig dc = DataCenterConfig::paper_default();
  dc.racks = 10;
  const Topology topo(dc);
  EXPECT_THROW(place_lrc_declustered(topo, kPaperLrc, 1), PreconditionError);
}

}  // namespace
}  // namespace mlec
