// Azure-style locally repairable codes (paper §5.2, Figure 14).
//
// A (k,l,r) LRC splits k data chunks into l local groups with one local
// parity each and adds r global parities. We treat the code as maximally
// recoverable (Azure's LRC is): a failure pattern is decodable iff, after
// letting each local group absorb one of its failures with its local parity,
// at most r failures remain for the global parities.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "math/distribution.hpp"
#include "placement/codes.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace mlec {

/// Role of one chunk position inside an LRC stripe.
enum class LrcChunkRole {
  kData,
  kLocalParity,
  kGlobalParity,
};

/// Static description of a (k,l,r) stripe: chunk index -> (role, group).
/// Layout order: group 0 data, ..., group l-1 data, local parities 0..l-1,
/// global parities 0..r-1 (group of a global parity is l, a sentinel).
class LrcStripeShape {
 public:
  explicit LrcStripeShape(const LrcCode& code);

  const LrcCode& code() const { return code_; }
  std::size_t width() const { return code_.width(); }
  LrcChunkRole role(std::size_t chunk) const;
  /// Local group of the chunk; code().l for global parities.
  std::size_t group(std::size_t chunk) const;

  /// Maximally-recoverable decodability: given which chunk indices failed,
  /// can the stripe be decoded?
  bool recoverable(const std::vector<std::size_t>& failed_chunks) const;

  /// Same criterion from aggregate counts: failures per local group
  /// (including that group's local parity) and failed global parities.
  static bool recoverable_counts(const LrcCode& code,
                                 const std::vector<std::size_t>& failures_per_group,
                                 std::size_t failed_globals);

  /// The same criterion over independent chunk losses: the distribution of
  /// the residual (each local group's failures less the one its parity
  /// absorbs, plus the failed globals) when chunk c fails with probability
  /// chunk_loss[c], in stripe order. Residuals above r+1 are lumped at r+1,
  /// so tail_geq(r+1) is the probability the stripe is lost.
  DiscreteDist residual_distribution(const std::vector<double>& chunk_loss) const;

  /// Chunks that must be read to repair a single failed chunk: the rest of
  /// its local group for data/local-parity chunks (the LRC selling point),
  /// or k data chunks for a global parity.
  std::size_t single_repair_reads(std::size_t chunk) const;

 private:
  LrcCode code_;
};

/// Declustered LRC placement ("LRC-Dp", the only deployment the paper
/// found in practice): every chunk of a stripe on a separate rack.
struct LrcStripePlacement {
  std::vector<RackId> racks;  ///< racks[chunk index]
};

/// Place `stripes` LRC stripes over the topology, each chunk in a distinct
/// pseudorandom rack. Requires topo.racks >= code width.
std::vector<LrcStripePlacement> place_lrc_declustered(const Topology& topo, const LrcCode& code,
                                                      std::size_t stripes, std::uint64_t seed = 42);

}  // namespace mlec
