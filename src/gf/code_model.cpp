#include "gf/code_model.hpp"

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

/// LRC generator rows over the k data symbols, row-major: identity for
/// data, all-ones per group for local parities, Cauchy for globals.
std::vector<gf::byte_t> lrc_generator(const LrcCode& c) {
  const std::size_t k = c.k;
  const std::size_t gd = c.group_data_chunks();
  const gf::Matrix global = gf::Matrix::cauchy(c.r, k);
  std::vector<gf::byte_t> gen(c.width() * k, 0);
  for (std::size_t i = 0; i < k; ++i) gen[i * k + i] = 1;
  for (std::size_t g = 0; g < c.l; ++g)
    for (std::size_t j = 0; j < gd; ++j) gen[(k + g) * k + g * gd + j] = 1;
  for (std::size_t j = 0; j < c.r; ++j)
    for (std::size_t col = 0; col < k; ++col) gen[(k + c.l + j) * k + col] = global.at(j, col);
  return gen;
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
  explicit LrcCodeModel(const LevelCode& level)
      : level_(level),
        plans_(level.lrc.width(), level.lrc.k, lrc_generator(level.lrc)),
        encode_plan_(level.lrc.l + level.lrc.r, level.lrc.k,
                     std::span(plans_.generator()).subspan(level.lrc.k * level.lrc.k)) {
    const LrcCode& c = level.lrc;
    const std::size_t n = c.width();
    const std::size_t k = c.k;
    const std::size_t gd = c.group_data_chunks();
    MLEC_REQUIRE(n <= kLrcBitmaskWidthLimit,
                 "LRC decodability table supports at most 20 shards");

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

    // The cached fused plan: every byte of work is dispatched ec kernels.
    const auto plan = plans_.get(lost);
    std::vector<gf::byte_t*> ptrs(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) ptrs[i] = shards[i].data();
    ec::decode(*plan, ptrs.data(), len);
  }

 private:
  /// Local group of a position; l for global parities.
  std::size_t group_of(std::size_t position) const {
    const LrcCode& c = level_.lrc;
    if (position < c.k) return position / c.group_data_chunks();
    if (position < c.k + c.l) return position - c.k;
    return c.l;
  }

  void build_decodability_table() {
    const std::size_t n = width();
    const std::size_t k = level_.lrc.k;
    const std::size_t parities = n - k;
    can_repair_.assign(ErasureMask{1} << n, false);
    std::vector<double> decodable(n + 1, 0.0);
    std::vector<double> patterns(n + 1, 0.0);

    // Decodable iff the survivor rows span the data: the walk a DecodePlan
    // for the pattern runs, so the table and the byte decoder agree.
    std::vector<std::size_t> survivors;
    auto full_rank = [&](ErasureMask erased) {
      survivors.clear();
      for (std::size_t row = 0; row < n; ++row)
        if (((erased >> row) & 1U) == 0) survivors.push_back(row);
      return ec::independent_rows(k, plans_.generator(), survivors).size() == k;
    };

    // Increasing mask order guarantees every one-bit-removed submask is
    // already classified (it is numerically smaller).
    for (ErasureMask mask = 0; mask < (ErasureMask{1} << n); ++mask) {
      const auto f = static_cast<std::size_t>(std::popcount(mask));
      patterns[f] += 1.0;
      if (f > parities) continue;  // fewer than k survivors
      bool candidate = true;
      for (std::size_t b = 0; b < n && candidate; ++b)
        if ((mask >> b) & 1U) candidate = can_repair_[mask & ~(ErasureMask{1} << b)];
      const bool ok = candidate && (mask == 0 || full_rank(mask));
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
  ec::DecodePlanCache plans_;  ///< over the n x k generator, its one copy
  ec::EncodePlan encode_plan_;
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
