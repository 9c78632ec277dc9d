#include "ec/codec.hpp"

#include "util/error.hpp"

namespace mlec::ec {

EncodePlan::EncodePlan(std::size_t rows, std::size_t cols,
                       std::span<const byte_t> coefficients)
    : rows_(rows), cols_(cols), coeffs_(coefficients.begin(), coefficients.end()) {
  MLEC_REQUIRE(coefficients.size() == rows * cols, "coefficient matrix size mismatch");
  tables_.reserve(rows * cols);
  for (const byte_t c : coeffs_) tables_.push_back(gf::make_mul_table(c));
}

void encode(const EncodePlan& plan, const byte_t* const* src, byte_t* const* dst, std::size_t len,
            bool accumulate) {
  if (plan.rows() == 0 || len == 0) return;
  kernels().dot(plan.tables(), plan.cols(), plan.rows(), src, dst, len, accumulate);
}

void encode(const EncodePlan& plan, std::span<const std::span<const byte_t>> src,
            std::span<const std::span<byte_t>> dst, bool accumulate) {
  MLEC_REQUIRE(src.size() == plan.cols(), "expected cols() source shards");
  MLEC_REQUIRE(dst.size() == plan.rows(), "expected rows() destination shards");
  if (plan.rows() == 0) return;
  const std::size_t len = src.empty() ? (dst.empty() ? 0 : dst[0].size()) : src[0].size();
  std::vector<const byte_t*> s(src.size());
  for (std::size_t c = 0; c < src.size(); ++c) {
    MLEC_REQUIRE(src[c].size() == len, "source shard size mismatch");
    s[c] = src[c].data();
  }
  std::vector<byte_t*> d(dst.size());
  for (std::size_t r = 0; r < dst.size(); ++r) {
    MLEC_REQUIRE(dst[r].size() == len, "destination shard size mismatch");
    d[r] = dst[r].data();
  }
  encode(plan, s.data(), d.data(), len, accumulate);
}

}  // namespace mlec::ec
