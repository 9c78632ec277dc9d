// Fused decode plans: the erasure-pattern-specific half of the EC data
// plane, and the one GF(2^8) elimination of the stack.
//
// A DecodePlan is built once per (code, erasure pattern): it selects k
// linearly independent survivor rows of a systematic n x k generator (in
// stripe order, so intact data rows pass through untouched), inverts that
// submatrix over GF(2^8), and compiles two fused EncodePlans — lost data
// symbols from the k survivors, then lost parity rows from the complete
// data — so decode() is nothing but dispatched multi-source x multi-dest
// dot products (kernels.hpp), with zero matrix arithmetic on the data path.
//
// Selection and inversion are one routine, independent_rows(), which the
// LRC code model's decodability table runs too: a pattern is decodable
// exactly when its plan is viable. Each code owns a DecodePlanCache, so
// repeated repairs of one pattern are pure kernel time. Field arithmetic is
// gf::mul / gf::inv, at plan-build time only.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "ec/codec.hpp"
#include "util/thread_safety.hpp"

namespace mlec::ec {

/// Greedy rank growth over a row-major generator with k columns: walk
/// `candidates` (row indices) in order and keep each row that is linearly
/// independent of the rows already kept, stopping at k. Returns the kept
/// rows; fewer than k means the candidates do not span the k data symbols.
/// When `inverse` is non-null and k rows are kept, it receives the
/// row-major inverse of the k x k submatrix of kept rows (in kept order).
std::vector<std::size_t> independent_rows(std::size_t k, std::span<const byte_t> generator,
                                          std::span<const std::size_t> candidates,
                                          std::vector<byte_t>* inverse = nullptr);

class DecodePlan {
 public:
  DecodePlan() = default;

  /// Compile a plan for `erased` positions of a systematic code described
  /// by its n x k generator over the data symbols (row-major; rows 0..k-1
  /// must be the identity — both RS and LRC generators here are
  /// systematic). `erased` holds distinct positions < n, any order.
  ///
  /// When the survivor rows do not span the k data symbols (possible for
  /// non-MDS codes such as LRC), the plan is built but not viable(); decode
  /// with it is rejected.
  DecodePlan(std::size_t n, std::size_t k, std::span<const byte_t> generator,
             std::span<const std::size_t> erased);

  /// Survivor rows span the data symbols, so decode() can run.
  bool viable() const { return viable_; }

  std::size_t width() const { return n_; }         ///< n: total shard rows
  std::size_t data_symbols() const { return k_; }  ///< k: data shard rows

  /// The k survivor positions stage 1 reads (stripe order).
  const std::vector<std::size_t>& survivors() const { return survivors_; }
  /// Erased data positions (< k), rebuilt by stage 1.
  const std::vector<std::size_t>& lost_data() const { return lost_data_; }
  /// Erased parity positions (>= k), re-encoded by stage 2.
  const std::vector<std::size_t>& lost_parity() const { return lost_parity_; }

  /// Stage-1 plan: lost_data().size() x k inverted-submatrix rows applied
  /// to the survivors.
  const EncodePlan& data_plan() const { return data_plan_; }
  /// Stage-2 plan: lost_parity().size() x k generator rows applied to the
  /// data shards.
  const EncodePlan& parity_plan() const { return parity_plan_; }

 private:
  std::size_t n_ = 0;
  std::size_t k_ = 0;
  bool viable_ = true;
  std::vector<std::size_t> survivors_;
  std::vector<std::size_t> lost_data_;
  std::vector<std::size_t> lost_parity_;
  EncodePlan data_plan_;
  EncodePlan parity_plan_;
};

/// One code's decode plans, one per erasure pattern: keyed by the sorted
/// pattern, built on first use and shared for the life of the cache. Plans
/// are built outside the lock (inversion is costly for wide codes); a
/// racing builder of the same pattern loses the emplace and its identical
/// plan is dropped. Non-viable plans are cached too; decode() rejects them.
class DecodePlanCache {
 public:
  /// `generator` as for DecodePlan: n x k, row-major, systematic.
  DecodePlanCache(std::size_t n, std::size_t k, std::vector<byte_t> generator)
      : n_(n), k_(k), generator_(std::move(generator)) {}

  const std::vector<byte_t>& generator() const { return generator_; }

  /// The plan for `erased` (distinct positions < n, any order).
  std::shared_ptr<const DecodePlan> get(std::span<const std::size_t> erased) const
      MLEC_EXCLUDES(mutex_);

  /// Cached erasure patterns.
  std::size_t size() const MLEC_EXCLUDES(mutex_);

 private:
  std::size_t n_;
  std::size_t k_;
  std::vector<byte_t> generator_;
  mutable Mutex mutex_;
  mutable std::map<std::vector<std::size_t>, std::shared_ptr<const DecodePlan>> plans_
      MLEC_GUARDED_BY(mutex_);
};

/// Rebuild the erased shards in place: `shards` holds all width() buffer
/// pointers of length `len`; entries at erased positions are outputs,
/// all surviving entries must contain valid data. Two fused passes over
/// the dispatched kernels. Requires plan.viable().
void decode(const DecodePlan& plan, byte_t* const* shards, std::size_t len);

/// Span-of-spans convenience overload; all width() shards the same length.
void decode(const DecodePlan& plan, std::span<const std::span<byte_t>> shards);

}  // namespace mlec::ec
