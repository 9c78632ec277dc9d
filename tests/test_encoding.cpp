#include "analysis/encoding.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace mlec {
namespace {

TEST(Encoding, MeasurementIsPositiveAndPlausible) {
  const auto m = measure_encoding_throughput(4, 2, 128.0, 0.02);
  EXPECT_EQ(m.k, 4u);
  EXPECT_EQ(m.p, 2u);
  EXPECT_GT(m.data_mbps, 10.0);      // even a slow machine beats 10 MB/s
  EXPECT_LT(m.data_mbps, 1e6);       // and nothing encodes at 1 TB/s scalar
}

TEST(Encoding, MoreParityIsSlower) {
  // p scales work linearly; compare p=1 vs p=8 with margin for timer noise.
  // A neighbouring process can take the core during one window, so the two
  // codes alternate over several windows and the best of each is compared.
  double p1 = 0.0, p8 = 0.0;
  for (int window = 0; window < 5; ++window) {
    p1 = std::max(p1, measure_encoding_throughput(10, 1, 128.0, 0.03).data_mbps);
    p8 = std::max(p8, measure_encoding_throughput(10, 8, 128.0, 0.03).data_mbps);
  }
  EXPECT_GT(p1, p8 * 1.5);
}

TEST(Encoding, InvalidArgumentsRejected) {
  EXPECT_THROW(measure_encoding_throughput(0, 1), PreconditionError);
  EXPECT_THROW(measure_encoding_throughput(4, 0), PreconditionError);
  EXPECT_THROW(measure_encoding_throughput(4, 2, -1.0), PreconditionError);
}

TEST(Encoding, CacheReturnsConsistentValue) {
  const double a = cached_encoding_mbps(6, 2);
  const double b = cached_encoding_mbps(6, 2);
  EXPECT_DOUBLE_EQ(a, b);  // memoized, not re-measured
}

TEST(Encoding, MlecCompositionBelowBothStages) {
  const MlecCode code{{4, 1}, {6, 2}};
  const double combined = mlec_encoding_mbps(code);
  const double net = cached_encoding_mbps(4, 1);
  const double loc = cached_encoding_mbps(6, 2);
  EXPECT_LT(combined, net);
  EXPECT_LT(combined, loc);
  // Harmonic composition: 1/c = 1/a + 1/b.
  EXPECT_NEAR(1.0 / combined, 1.0 / net + 1.0 / loc, 0.2 / combined);
}

TEST(Encoding, LrcCompositionIsFinite) {
  const double gbps = lrc_encoding_mbps({14, 2, 4}) / 1e3;
  EXPECT_GT(gbps, 0.0);
}

}  // namespace
}  // namespace mlec
