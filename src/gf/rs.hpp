// Systematic Reed-Solomon erasure coding over GF(2^8).
//
// RsCode(k, p) produces p parity shards from k data shards and can rebuild
// any <= p lost shards from any k survivors (MDS, via a Cauchy generator).
// This is the encoder measured in the Figure 11 throughput study and the
// arithmetic backing every chunk-level repair walk-through in the examples.
//
// The data plane is the SIMD-dispatched src/ec/ subsystem: encode runs as
// one fused multi-source x multi-parity pass over the shards (ec::encode
// over an ec::EncodePlan), and decode as fused passes over an
// ec::DecodePlan built once per erasure pattern and cached on the code —
// repeated repairs of the same pattern (the common case in a rebuild) pay
// zero matrix arithmetic. Everything is vectorized per the host CPU
// (scalar / AVX2 / AVX-512 / GFNI — see ec/backend.hpp for the
// dispatch rules).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "ec/codec.hpp"
#include "ec/decode.hpp"
#include "ec/stream.hpp"
#include "gf/matrix.hpp"

namespace mlec::gf {

class RsCode {
 public:
  /// Requires 1 <= k and k + p <= 256 (field-size limit). p == 0 is a
  /// valid (replication-free) configuration, but such a code cannot repair
  /// anything: decode() rejects any non-empty `lost` set for it.
  RsCode(std::size_t k, std::size_t p);

  std::size_t k() const { return k_; }
  std::size_t p() const { return p_; }

  /// Compute parity shards from data shards. data.size() == k,
  /// parity.size() == p, all shards the same length.
  void encode(std::span<const std::span<const byte_t>> data,
              std::span<const std::span<byte_t>> parity) const;

  /// Convenience overload over vectors.
  void encode(const std::vector<std::vector<byte_t>>& data,
              std::vector<std::vector<byte_t>>& parity) const;

  /// Parallel encode for large shards: slices the buffers across `pool` via
  /// the ec streaming codec. Bit-identical to encode(); returns false when
  /// `stop` truncated the work (parity contents then undefined).
  bool encode_parallel(std::span<const std::span<const byte_t>> data,
                       std::span<const std::span<byte_t>> parity, ThreadPool& pool,
                       StopToken stop = {}) const;

  /// Rebuild the shards listed in `lost` (global indices: 0..k-1 data,
  /// k..k+p-1 parity) from any k available shards.
  ///
  /// `shards` holds all k+p shard buffers; entries listed in `lost` are
  /// outputs (overwritten), all others must contain valid data. Requires
  /// lost.size() <= p.
  void decode(std::vector<std::vector<byte_t>>& shards,
              std::span<const std::size_t> lost) const;

  /// Parallel decode for large shards, mirroring encode_parallel: same
  /// contract as decode(), sliced across `pool` via ec::decode_parallel
  /// (NUMA-aware partitioning per ec::StreamOptions). Bit-identical to
  /// decode(); returns false when `stop` truncated the work (rebuilt shard
  /// contents then undefined).
  bool decode_parallel(std::vector<std::vector<byte_t>>& shards,
                       std::span<const std::size_t> lost, ThreadPool& pool,
                       StopToken stop = {}) const;

  /// The fused plan for one erasure pattern, built on first use and cached
  /// (keyed by the sorted pattern) for the lifetime of the code. Streaming
  /// callers can drive ec::decode / ec::decode_parallel with it directly.
  std::shared_ptr<const ec::DecodePlan> decode_plan(std::span<const std::size_t> lost) const;

  /// Cached erasure patterns (tests/diagnostics).
  std::size_t cached_decode_plans() const { return plans_.size(); }

  /// The p x k parity-generation rows (Cauchy).
  const Matrix& parity_rows() const { return parity_rows_; }

  /// The compiled p x k encoding plan (ec data plane), e.g. for streaming
  /// callers that drive ec::encode_parallel themselves.
  const ec::EncodePlan& encode_plan() const { return encode_plan_; }

 private:
  std::size_t k_;
  std::size_t p_;
  Matrix parity_rows_;
  ec::DecodePlanCache plans_;   // over the (k+p) x k systematic generator [I; C]
  ec::EncodePlan encode_plan_;  // p x k parity rows as nibble tables
};

}  // namespace mlec::gf
