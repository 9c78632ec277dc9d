#include "gf/code_model.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>

#include "ec/codec.hpp"
#include "ec/decode.hpp"
#include "gf/matrix.hpp"
#include "util/error.hpp"
#include "util/thread_safety.hpp"

namespace mlec {

namespace {

/// Widest LRC stripe whose decodability table we precompute: 2^20 entries
/// (1 MB of bools) covers every published Azure shape with lots of room.
constexpr std::size_t kLrcBitmaskWidthLimit = 20;

ErasureMask mask_of(std::span<const std::size_t> erased, std::size_t width) {
  ErasureMask mask = 0;
  for (std::size_t idx : erased) {
    MLEC_REQUIRE(idx < width, "erased index out of range");
    const ErasureMask bit = ErasureMask{1} << idx;
    MLEC_REQUIRE((mask & bit) == 0, "duplicate erased index");
    mask |= bit;
  }
  return mask;
}

// ---------------------------------------------------------------------------
// Reed-Solomon (any width up to 256 shards): MDS, so every structural query
// is closed form over (k, p); the byte plane delegates to gf::RsCode.

class RsCodeModel final : public CodeModel {
 public:
  explicit RsCodeModel(const LevelCode& level)
      : level_(level), code_(level.rs.k, level.rs.p) {}

  CodeFamily family() const override { return level_.family; }
  const LevelCode& level() const override { return level_; }

  bool can_repair(ErasureMask erased) const override {
    return static_cast<std::size_t>(std::popcount(erased)) <= level_.rs.p;
  }
  bool can_repair(std::span<const std::size_t> erased) const override {
    return erased.size() <= level_.rs.p;
  }

  std::size_t min_tolerance() const override { return level_.rs.p; }
  std::size_t max_tolerance() const override { return level_.rs.p; }
  double decodable_fraction(std::size_t f) const override {
    return f <= level_.rs.p ? 1.0 : 0.0;
  }

  double repair_reads(std::size_t position, ErasureMask erased) const override {
    MLEC_REQUIRE(position < width(), "position out of range");
    MLEC_REQUIRE((erased >> position) & 1U, "erased mask must contain the position");
    MLEC_REQUIRE(can_repair(erased), "pattern is not decodable");
    return static_cast<double>(level_.rs.k);
  }
  double avg_single_repair_reads() const override {
    return static_cast<double>(level_.rs.k);
  }

  void encode(std::span<const std::span<const gf::byte_t>> data,
              std::span<const std::span<gf::byte_t>> parity) const override {
    code_.encode(data, parity);
  }
  void decode(std::vector<std::vector<gf::byte_t>>& shards,
              std::span<const std::size_t> lost) const override {
    code_.decode(shards, lost);
  }

 private:
  LevelCode level_;
  gf::RsCode code_;
};

// ---------------------------------------------------------------------------
// Azure-style LRC: k data chunks in l groups (positions g*k/l..), one XOR
// local parity per group (positions k..k+l-1), r Cauchy global parities
// (positions k+l..). Decodability is the GF(256) rank of the survivor rows
// of this concrete generator, precomputed into a bitmask-indexed table
// (O(1) queries) with monotone pruning: erasing more never helps, so a mask
// whose one-bit-removed submask already fails skips the rank test.

class LrcCodeModel final : public CodeModel {
 public:
  explicit LrcCodeModel(const LevelCode& level) : level_(level) {
    const LrcCode& c = level.lrc;
    const std::size_t n = c.width();
    const std::size_t k = c.k;
    MLEC_REQUIRE(n <= kLrcBitmaskWidthLimit,
                 "LRC decodability table supports at most 20 shards");

    // Generator rows over the k data symbols: identity for data, all-ones
    // per group for local parities, Cauchy for globals.
    gen_ = gf::Matrix(n, k);
    const gf::Matrix global = gf::Matrix::cauchy(c.r, k);
    const std::size_t gd = c.group_data_chunks();
    for (std::size_t i = 0; i < k; ++i) gen_.at(i, i) = 1;
    for (std::size_t g = 0; g < c.l; ++g)
      for (std::size_t j = 0; j < gd; ++j) gen_.at(k + g, g * gd + j) = 1;
    for (std::size_t j = 0; j < c.r; ++j)
      for (std::size_t col = 0; col < k; ++col) gen_.at(k + c.l + j, col) = global.at(j, col);

    std::vector<gf::byte_t> coeffs((c.l + c.r) * k);
    for (std::size_t row = 0; row < c.l + c.r; ++row)
      for (std::size_t col = 0; col < k; ++col) coeffs[row * k + col] = gen_.at(k + row, col);
    encode_plan_ = ec::EncodePlan(c.l + c.r, k, coeffs);

    flat_gen_.resize(n * k);
    for (std::size_t row = 0; row < n; ++row)
      for (std::size_t col = 0; col < k; ++col) flat_gen_[row * k + col] = gen_.at(row, col);

    build_decodability_table();

    single_reads_.resize(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      single_reads_[i] = group_of(i) < c.l ? static_cast<double>(gd) : static_cast<double>(k);
      total += single_reads_[i];
    }
    avg_single_reads_ = total / static_cast<double>(n);
  }

  CodeFamily family() const override { return CodeFamily::kLrc; }
  const LevelCode& level() const override { return level_; }

  bool can_repair(ErasureMask erased) const override {
    MLEC_REQUIRE(erased < (ErasureMask{1} << width()), "erased mask wider than the code");
    return can_repair_[erased];
  }
  bool can_repair(std::span<const std::size_t> erased) const override {
    return can_repair_[mask_of(erased, width())];
  }

  std::size_t min_tolerance() const override { return min_tolerance_; }
  std::size_t max_tolerance() const override { return max_tolerance_; }
  double decodable_fraction(std::size_t f) const override {
    return f < decodable_frac_.size() ? decodable_frac_[f] : 0.0;
  }

  double repair_reads(std::size_t position, ErasureMask erased) const override {
    MLEC_REQUIRE(position < width(), "position out of range");
    MLEC_REQUIRE((erased >> position) & 1U, "erased mask must contain the position");
    MLEC_REQUIRE(can_repair(erased), "pattern is not decodable");
    // Local repair applies when the position's group holds no OTHER
    // erasure: read the surviving group members (group width minus one).
    const std::size_t g = group_of(position);
    if (g < level_.lrc.l && (erased & group_mask_[g]) == (ErasureMask{1} << position))
      return single_reads_[position];
    return static_cast<double>(level_.lrc.k);
  }
  double avg_single_repair_reads() const override { return avg_single_reads_; }

  void encode(std::span<const std::span<const gf::byte_t>> data,
              std::span<const std::span<gf::byte_t>> parity) const override {
    const LrcCode& c = level_.lrc;
    MLEC_REQUIRE(data.size() == c.k, "expected k data shards");
    MLEC_REQUIRE(parity.size() == c.l + c.r, "expected l+r parity shards");
    const std::size_t len = data.empty() ? 0 : data[0].size();
    for (const auto& shard : data) MLEC_REQUIRE(shard.size() == len, "data shard size mismatch");
    for (const auto& shard : parity)
      MLEC_REQUIRE(shard.size() == len, "parity shard size mismatch");
    ec::encode(encode_plan_, data, parity);
  }

  void decode(std::vector<std::vector<gf::byte_t>>& shards,
              std::span<const std::size_t> lost) const override {
    MLEC_REQUIRE(shards.size() == width(), "expected one buffer per shard");
    MLEC_REQUIRE(can_repair(lost), "pattern is not decodable");
    if (lost.empty()) return;
    const std::size_t len = shards[0].size();
    for (const auto& s : shards) MLEC_REQUIRE(s.size() == len, "shard size mismatch");

    // Fused plan per erasure pattern, cached: DecodePlan runs the same
    // greedy rank-growing survivor selection this model used to do inline
    // (stripe order, so intact data passes through untouched), then all
    // byte work is dispatched ec kernels.
    const auto plan = decode_plan(lost);
    std::vector<gf::byte_t*> ptrs(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) ptrs[i] = shards[i].data();
    ec::decode(*plan, ptrs.data(), len);
  }

  /// Plan for `lost`, built on first use and cached (keyed by the sorted
  /// pattern). A decodable pattern always yields a viable plan — both walk
  /// survivor rows the same way.
  std::shared_ptr<const ec::DecodePlan> decode_plan(std::span<const std::size_t> lost) const
      MLEC_EXCLUDES(plan_mutex_) {
    std::vector<std::size_t> key(lost.begin(), lost.end());
    std::sort(key.begin(), key.end());
    {
      const MutexLock lock(plan_mutex_);
      if (auto it = plan_cache_.find(key); it != plan_cache_.end()) return it->second;
    }
    // Built outside the lock (same emplace race as RsCode::decode_plan:
    // the losing builder's identical plan is dropped).
    auto plan = std::make_shared<const ec::DecodePlan>(width(), level_.lrc.k, flat_gen_, key);
    MLEC_ASSERT(plan->viable(), "decodable pattern must yield a full-rank survivor set");
    const MutexLock lock(plan_mutex_);
    return plan_cache_.emplace(std::move(key), std::move(plan)).first->second;
  }

 private:
  /// Local group of a position; l for global parities.
  std::size_t group_of(std::size_t position) const {
    const LrcCode& c = level_.lrc;
    if (position < c.k) return position / c.group_data_chunks();
    if (position < c.k + c.l) return position - c.k;
    return c.l;
  }

  /// Survivor rows span the k data symbols?
  bool full_rank_survivors(ErasureMask erased) const {
    const std::size_t n = width();
    const std::size_t k = level_.lrc.k;
    std::vector<std::vector<gf::byte_t>> reduced;
    std::vector<std::size_t> pivots;
    for (std::size_t row = 0; row < n && reduced.size() < k; ++row) {
      if ((erased >> row) & 1U) continue;
      std::vector<gf::byte_t> v(k);
      for (std::size_t col = 0; col < k; ++col) v[col] = gen_.at(row, col);
      for (std::size_t r = 0; r < reduced.size(); ++r) {
        const gf::byte_t factor = v[pivots[r]];
        if (factor == 0) continue;
        for (std::size_t col = 0; col < k; ++col)
          v[col] = gf::add(v[col], gf::mul(factor, reduced[r][col]));
      }
      std::size_t pivot = k;
      for (std::size_t col = 0; col < k; ++col)
        if (v[col] != 0) {
          pivot = col;
          break;
        }
      if (pivot == k) continue;
      const gf::byte_t scale = gf::inv(v[pivot]);
      for (std::size_t col = 0; col < k; ++col) v[col] = gf::mul(scale, v[col]);
      reduced.push_back(std::move(v));
      pivots.push_back(pivot);
    }
    return reduced.size() == k;
  }

  void build_decodability_table() {
    const std::size_t n = width();
    const std::size_t k = level_.lrc.k;
    const std::size_t parities = n - k;
    can_repair_.assign(ErasureMask{1} << n, false);
    std::vector<double> decodable(n + 1, 0.0);
    std::vector<double> patterns(n + 1, 0.0);

    // Increasing mask order guarantees every one-bit-removed submask is
    // already classified (it is numerically smaller).
    for (ErasureMask mask = 0; mask < (ErasureMask{1} << n); ++mask) {
      const auto f = static_cast<std::size_t>(std::popcount(mask));
      patterns[f] += 1.0;
      if (f > parities) continue;  // fewer than k survivors
      bool candidate = true;
      for (std::size_t b = 0; b < n && candidate; ++b)
        if ((mask >> b) & 1U) candidate = can_repair_[mask & ~(ErasureMask{1} << b)];
      const bool ok = candidate && (mask == 0 || full_rank_survivors(mask));
      can_repair_[mask] = ok;
      if (ok) decodable[f] += 1.0;
    }

    decodable_frac_.resize(n + 1);
    max_tolerance_ = 0;
    for (std::size_t f = 0; f <= n; ++f) {
      decodable_frac_[f] = decodable[f] / patterns[f];
      if (decodable[f] > 0.0) max_tolerance_ = f;
    }
    min_tolerance_ = 0;
    while (min_tolerance_ < n && decodable_frac_[min_tolerance_ + 1] == 1.0) ++min_tolerance_;

    group_mask_.assign(level_.lrc.l, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t g = group_of(i);
      if (g < level_.lrc.l) group_mask_[g] |= ErasureMask{1} << i;
    }
  }

  LevelCode level_;
  gf::Matrix gen_;                  ///< n x k generator over the data symbols
  std::vector<gf::byte_t> flat_gen_;  ///< gen_ flattened row-major for DecodePlan
  ec::EncodePlan encode_plan_;
  mutable Mutex plan_mutex_;
  mutable std::map<std::vector<std::size_t>, std::shared_ptr<const ec::DecodePlan>> plan_cache_
      MLEC_GUARDED_BY(plan_mutex_);
  std::vector<bool> can_repair_;  ///< indexed by erasure bitmask
  std::vector<double> decodable_frac_;
  std::vector<double> single_reads_;
  std::vector<ErasureMask> group_mask_;
  double avg_single_reads_ = 0.0;
  std::size_t min_tolerance_ = 0;
  std::size_t max_tolerance_ = 0;
};

}  // namespace

const char* to_string(CodeFamily family) {
  switch (family) {
    case CodeFamily::kRs: return "rs";
    case CodeFamily::kLrc: return "lrc";
  }
  throw InternalError("unknown code family");
}

CodeFamily parse_code_family(const std::string& text) {
  if (text == "rs") return CodeFamily::kRs;
  if (text == "lrc") return CodeFamily::kLrc;
  throw PreconditionError("unknown code family '" + text + "' (expected rs, lrc)");
}

std::string LevelCode::notation() const {
  return std::string(to_string(family)) + (family == CodeFamily::kLrc ? lrc.notation() : rs.notation());
}

void LevelCode::validate() const {
  switch (family) {
    case CodeFamily::kRs:
      rs.validate();
      MLEC_REQUIRE(rs.width() <= 256, "RS over GF(256) supports at most 256 shards");
      return;
    case CodeFamily::kLrc:
      lrc.validate();
      MLEC_REQUIRE(lrc.width() <= kLrcBitmaskWidthLimit,
                   "LRC decodability table supports at most 20 shards");
      return;
  }
  throw InternalError("unknown code family");
}

namespace {

/// Process-wide model cache. A named struct (not loose function-local
/// statics) so the map can carry a MLEC_GUARDED_BY annotation.
struct ModelCache {
  Mutex mutex;
  std::map<std::string, std::shared_ptr<const CodeModel>> entries MLEC_GUARDED_BY(mutex);
};

ModelCache& model_cache() {
  static ModelCache cache;
  return cache;
}

}  // namespace

std::shared_ptr<const CodeModel> make_code_model(const LevelCode& level) {
  level.validate();
  const std::string key = level.notation();
  ModelCache& cache = model_cache();
  // Models are built under the lock: construction cost (the LRC decodability
  // table) is paid once per shape and double-building would waste it.
  const MutexLock lock(cache.mutex);
  if (auto it = cache.entries.find(key); it != cache.entries.end()) return it->second;
  std::shared_ptr<const CodeModel> model;
  if (level.family == CodeFamily::kLrc)
    model = std::make_shared<const LrcCodeModel>(level);
  else
    model = std::make_shared<const RsCodeModel>(level);
  cache.entries.emplace(key, model);
  return model;
}

}  // namespace mlec
