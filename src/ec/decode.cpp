#include "ec/decode.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mlec::ec {

namespace {

/// row ^= f * other over k symbols.
void add_scaled(byte_t* row, byte_t f, const byte_t* other, std::size_t k) {
  for (std::size_t c = 0; c < k; ++c) row[c] = gf::add(row[c], gf::mul(f, other[c]));
}

void scale(byte_t* row, byte_t f, std::size_t k) {
  for (std::size_t c = 0; c < k; ++c) row[c] = gf::mul(f, row[c]);
}

}  // namespace

std::vector<std::size_t> independent_rows(std::size_t k, std::span<const byte_t> generator,
                                          std::span<const std::size_t> candidates,
                                          std::vector<byte_t>* inverse) {
  // Kept row i is reduced to a 1 at pivots[i] and a 0 at every earlier
  // pivot; combo row i holds it as a combination of the kept generator rows
  // (tracked only when the inverse is wanted).
  std::vector<std::size_t> kept;
  std::vector<std::size_t> pivots;
  std::vector<byte_t> reduced;
  std::vector<byte_t> combo;
  kept.reserve(k);
  reduced.reserve(k * k);
  for (const std::size_t row : candidates) {
    if (kept.size() == k) break;
    const std::size_t i = kept.size();
    reduced.insert(reduced.end(), generator.begin() + static_cast<std::ptrdiff_t>(row * k),
                   generator.begin() + static_cast<std::ptrdiff_t>((row + 1) * k));
    byte_t* v = reduced.data() + i * k;
    byte_t* a = nullptr;
    if (inverse != nullptr) {
      combo.resize((i + 1) * k, 0);
      a = combo.data() + i * k;
      a[i] = 1;
    }
    for (std::size_t r = 0; r < i; ++r) {
      const byte_t f = v[pivots[r]];
      if (f == 0) continue;
      add_scaled(v, f, reduced.data() + r * k, k);
      if (a != nullptr) add_scaled(a, f, combo.data() + r * k, k);
    }
    std::size_t pivot = 0;
    while (pivot < k && v[pivot] == 0) ++pivot;
    if (pivot == k) {  // dependent on the rows already kept
      reduced.resize(i * k);
      if (a != nullptr) combo.resize(i * k);
      continue;
    }
    const byte_t s = gf::inv(v[pivot]);
    scale(v, s, k);
    if (a != nullptr) scale(a, s, k);
    kept.push_back(row);
    pivots.push_back(pivot);
  }
  if (inverse != nullptr && kept.size() == k) {
    // Back-substitute from the last row up until kept row i is the unit
    // row e_{pivots[i]}; then combo * S = P for the permutation P, so row
    // pivots[i] of S^-1 is combo row i.
    for (std::size_t i = k; i-- > 0;)
      for (std::size_t j = i + 1; j < k; ++j) {
        const byte_t f = reduced[i * k + pivots[j]];
        if (f == 0) continue;
        add_scaled(reduced.data() + i * k, f, reduced.data() + j * k, k);
        add_scaled(combo.data() + i * k, f, combo.data() + j * k, k);
      }
    inverse->assign(k * k, 0);
    for (std::size_t i = 0; i < k; ++i)
      std::copy_n(combo.begin() + static_cast<std::ptrdiff_t>(i * k), k,
                  inverse->begin() + static_cast<std::ptrdiff_t>(pivots[i] * k));
  }
  return kept;
}

DecodePlan::DecodePlan(std::size_t n, std::size_t k, std::span<const byte_t> generator,
                       std::span<const std::size_t> erased)
    : n_(n), k_(k) {
  MLEC_REQUIRE(k >= 1, "a code needs at least one data symbol");
  MLEC_REQUIRE(n >= k, "generator needs at least the k data rows");
  MLEC_REQUIRE(generator.size() == n * k, "generator matrix size mismatch");
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < k; ++c)
      MLEC_REQUIRE(generator[r * k + c] == (r == c ? 1 : 0),
                   "DecodePlan requires a systematic generator (identity data rows)");

  std::vector<bool> is_lost(n, false);
  for (std::size_t idx : erased) {
    MLEC_REQUIRE(idx < n, "erased index out of range");
    MLEC_REQUIRE(!is_lost[idx], "duplicate erased index");
    is_lost[idx] = true;
    (idx < k ? lost_data_ : lost_parity_).push_back(idx);
  }
  if (erased.empty()) return;

  // Stripe-order survivors: intact data rows are identity rows and always
  // kept first, so for MDS codes this is "the first k survivors"; for LRC
  // the walk passes over locally dependent parity rows.
  std::vector<std::size_t> candidates;
  for (std::size_t row = 0; row < n; ++row)
    if (!is_lost[row]) candidates.push_back(row);
  std::vector<byte_t> inv;
  survivors_ = independent_rows(k, generator, candidates, lost_data_.empty() ? nullptr : &inv);
  if (survivors_.size() < k) {
    viable_ = false;
    return;
  }

  if (!lost_data_.empty()) {
    // Lost data symbol d = sum_r inv[d][r] * shard[survivors[r]].
    std::vector<byte_t> coeffs(lost_data_.size() * k);
    for (std::size_t r = 0; r < lost_data_.size(); ++r)
      std::copy_n(inv.begin() + static_cast<std::ptrdiff_t>(lost_data_[r] * k), k,
                  coeffs.begin() + static_cast<std::ptrdiff_t>(r * k));
    data_plan_ = EncodePlan(lost_data_.size(), k, coeffs);
  }

  if (!lost_parity_.empty()) {
    // Lost parity row p re-encodes from the (then complete) data rows.
    std::vector<byte_t> coeffs(lost_parity_.size() * k);
    for (std::size_t r = 0; r < lost_parity_.size(); ++r)
      for (std::size_t c = 0; c < k; ++c) coeffs[r * k + c] = generator[lost_parity_[r] * k + c];
    parity_plan_ = EncodePlan(lost_parity_.size(), k, coeffs);
  }
}

std::shared_ptr<const DecodePlan> DecodePlanCache::get(
    std::span<const std::size_t> erased) const {
  std::vector<std::size_t> key(erased.begin(), erased.end());
  std::sort(key.begin(), key.end());
  {
    const MutexLock lock(mutex_);
    if (auto it = plans_.find(key); it != plans_.end()) return it->second;
  }
  auto plan = std::make_shared<const DecodePlan>(n_, k_, generator_, key);
  const MutexLock lock(mutex_);
  return plans_.emplace(std::move(key), std::move(plan)).first->second;
}

std::size_t DecodePlanCache::size() const {
  const MutexLock lock(mutex_);
  return plans_.size();
}

void decode(const DecodePlan& plan, byte_t* const* shards, std::size_t len) {
  MLEC_REQUIRE(plan.viable(), "erasure pattern is not decodable with this plan");
  if (len == 0) return;
  const std::size_t k = plan.data_symbols();
  if (!plan.lost_data().empty()) {
    std::vector<const byte_t*> src(k);
    for (std::size_t c = 0; c < k; ++c) src[c] = shards[plan.survivors()[c]];
    std::vector<byte_t*> dst(plan.lost_data().size());
    for (std::size_t r = 0; r < dst.size(); ++r) dst[r] = shards[plan.lost_data()[r]];
    encode(plan.data_plan(), src.data(), dst.data(), len);
  }
  if (!plan.lost_parity().empty()) {
    std::vector<const byte_t*> src(k);
    for (std::size_t c = 0; c < k; ++c) src[c] = shards[c];
    std::vector<byte_t*> dst(plan.lost_parity().size());
    for (std::size_t r = 0; r < dst.size(); ++r) dst[r] = shards[plan.lost_parity()[r]];
    encode(plan.parity_plan(), src.data(), dst.data(), len);
  }
}

void decode(const DecodePlan& plan, std::span<const std::span<byte_t>> shards) {
  MLEC_REQUIRE(shards.size() == plan.width(), "expected width() shard buffers");
  if (plan.width() == 0) return;
  const std::size_t len = shards[0].size();
  std::vector<byte_t*> ptrs(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    MLEC_REQUIRE(shards[i].size() == len, "shard size mismatch");
    ptrs[i] = shards[i].data();
  }
  decode(plan, ptrs.data(), len);
}

}  // namespace mlec::ec
