#include "gf/rs.hpp"

#include "util/error.hpp"

namespace mlec::gf {

namespace {

Matrix checked_cauchy(std::size_t k, std::size_t p) {
  MLEC_REQUIRE(k >= 1, "RS needs at least one data shard");
  MLEC_REQUIRE(k + p <= 256, "RS over GF(256) supports at most 256 shards");
  return Matrix::cauchy(p, k);
}

/// The systematic generator [I; C] over the data symbols, row-major.
std::vector<byte_t> systematic_generator(const Matrix& parity_rows) {
  const std::size_t k = parity_rows.cols();
  const std::size_t p = parity_rows.rows();
  std::vector<byte_t> gen((k + p) * k, 0);
  for (std::size_t i = 0; i < k; ++i) gen[i * k + i] = 1;
  for (std::size_t r = 0; r < p; ++r)
    for (std::size_t c = 0; c < k; ++c) gen[(k + r) * k + c] = parity_rows.at(r, c);
  return gen;
}

}  // namespace

RsCode::RsCode(std::size_t k, std::size_t p)
    : k_(k),
      p_(p),
      parity_rows_(checked_cauchy(k, p)),
      plans_(k + p, k, systematic_generator(parity_rows_)),
      encode_plan_(p, k, std::span(plans_.generator()).subspan(k * k)) {}

void RsCode::encode(std::span<const std::span<const byte_t>> data,
                    std::span<const std::span<byte_t>> parity) const {
  MLEC_REQUIRE(data.size() == k_, "expected k data shards");
  MLEC_REQUIRE(parity.size() == p_, "expected p parity shards");
  if (p_ == 0) return;
  const std::size_t len = data.empty() ? 0 : data[0].size();
  for (const auto& shard : data) MLEC_REQUIRE(shard.size() == len, "data shard size mismatch");
  for (const auto& shard : parity) MLEC_REQUIRE(shard.size() == len, "parity shard size mismatch");
  ec::encode(encode_plan_, data, parity);
}

void RsCode::encode(const std::vector<std::vector<byte_t>>& data,
                    std::vector<std::vector<byte_t>>& parity) const {
  std::vector<std::span<const byte_t>> d(data.begin(), data.end());
  std::vector<std::span<byte_t>> q(parity.begin(), parity.end());
  encode(std::span<const std::span<const byte_t>>(d), std::span<const std::span<byte_t>>(q));
}

bool RsCode::encode_parallel(std::span<const std::span<const byte_t>> data,
                             std::span<const std::span<byte_t>> parity, ThreadPool& pool,
                             StopToken stop) const {
  MLEC_REQUIRE(data.size() == k_, "expected k data shards");
  MLEC_REQUIRE(parity.size() == p_, "expected p parity shards");
  if (p_ == 0) return true;
  return ec::encode_parallel(encode_plan_, data, parity, pool, stop);
}

std::shared_ptr<const ec::DecodePlan> RsCode::decode_plan(
    std::span<const std::size_t> lost) const {
  MLEC_REQUIRE(p_ > 0 || lost.empty(), "a p == 0 code has no parity to repair from");
  MLEC_REQUIRE(lost.size() <= p_, "cannot recover more shards than parities");
  return plans_.get(lost);
}

void RsCode::decode(std::vector<std::vector<byte_t>>& shards,
                    std::span<const std::size_t> lost) const {
  MLEC_REQUIRE(shards.size() == k_ + p_, "expected k+p shard buffers");
  if (lost.empty()) return;
  const std::size_t len = shards[0].size();
  for (const auto& s : shards) MLEC_REQUIRE(s.size() == len, "shard size mismatch");
  const auto plan = decode_plan(lost);
  std::vector<byte_t*> ptrs(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) ptrs[i] = shards[i].data();
  ec::decode(*plan, ptrs.data(), len);
}

bool RsCode::decode_parallel(std::vector<std::vector<byte_t>>& shards,
                             std::span<const std::size_t> lost, ThreadPool& pool,
                             StopToken stop) const {
  MLEC_REQUIRE(shards.size() == k_ + p_, "expected k+p shard buffers");
  if (lost.empty()) return true;
  const auto plan = decode_plan(lost);
  std::vector<std::span<byte_t>> spans(shards.begin(), shards.end());
  return ec::decode_parallel(*plan, std::span<const std::span<byte_t>>(spans), pool, stop);
}

}  // namespace mlec::gf
