#include "placement/lrc.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "math/combin.hpp"
#include "util/error.hpp"

namespace mlec {

LrcStripeShape::LrcStripeShape(const LrcCode& code) : code_(code) { code_.validate(); }

LrcChunkRole LrcStripeShape::role(std::size_t chunk) const {
  MLEC_REQUIRE(chunk < width(), "chunk index out of range");
  if (chunk < code_.k) return LrcChunkRole::kData;
  if (chunk < code_.k + code_.l) return LrcChunkRole::kLocalParity;
  return LrcChunkRole::kGlobalParity;
}

std::size_t LrcStripeShape::group(std::size_t chunk) const {
  MLEC_REQUIRE(chunk < width(), "chunk index out of range");
  if (chunk < code_.k) return chunk / code_.group_data_chunks();
  if (chunk < code_.k + code_.l) return chunk - code_.k;
  return code_.l;  // global parities sit outside all local groups
}

bool LrcStripeShape::recoverable(const std::vector<std::size_t>& failed_chunks) const {
  std::vector<std::size_t> per_group(code_.l, 0);
  std::size_t globals = 0;
  for (std::size_t chunk : failed_chunks) {
    const std::size_t g = group(chunk);
    if (g == code_.l)
      ++globals;
    else
      ++per_group[g];
  }
  return recoverable_counts(code_, per_group, globals);
}

bool LrcStripeShape::recoverable_counts(const LrcCode& code,
                                        const std::vector<std::size_t>& failures_per_group,
                                        std::size_t failed_globals) {
  MLEC_REQUIRE(failures_per_group.size() == code.l, "one count per local group");
  // Each group's local parity can regenerate one erasure in that group; the
  // remaining erasures must be covered by the r global parities.
  std::size_t residual = failed_globals;
  for (std::size_t f : failures_per_group) residual += f > 0 ? f - 1 : 0;
  return residual <= code.r;
}

DiscreteDist LrcStripeShape::residual_distribution(const std::vector<double>& chunk_loss) const {
  MLEC_REQUIRE(chunk_loss.size() == width(), "one loss probability per chunk");
  const std::size_t cap = code_.r + 1;
  auto probs_of = [&](std::size_t g) {
    std::vector<double> probs;
    for (std::size_t c = 0; c < width(); ++c)
      if (group(c) == g) probs.push_back(chunk_loss[c]);
    return probs;
  };
  DiscreteDist residual = DiscreteDist::delta(0);
  for (std::size_t g = 0; g < code_.l; ++g) {
    const std::vector<double> pmf = poisson_binomial_pmf(probs_of(g));
    // Deficiency max(f-1, 0): the local parity absorbs one failure. A group
    // holds at least one data chunk and its parity, so pmf has >= 3 entries.
    std::vector<double> def(pmf.size() - 1, 0.0);
    def[0] = pmf[0] + pmf[1];
    for (std::size_t f = 2; f < pmf.size(); ++f) def[f - 1] = pmf[f];
    residual = residual.convolve(DiscreteDist(std::move(def)), cap);
  }
  return residual.convolve(
      DiscreteDist(poisson_binomial_pmf(probs_of(code_.l), static_cast<std::int64_t>(cap))), cap);
}

std::size_t LrcStripeShape::single_repair_reads(std::size_t chunk) const {
  switch (role(chunk)) {
    case LrcChunkRole::kData:
    case LrcChunkRole::kLocalParity:
      return code_.group_data_chunks();  // rest of the local group
    case LrcChunkRole::kGlobalParity:
      return code_.k;
  }
  throw InternalError("unknown chunk role");
}

std::vector<LrcStripePlacement> place_lrc_declustered(const Topology& topo, const LrcCode& code,
                                                      std::size_t stripes, std::uint64_t seed) {
  code.validate();
  const std::size_t width = code.width();
  MLEC_REQUIRE(topo.config().racks >= width, "LRC-Dp needs at least one rack per chunk");
  Rng rng(seed);
  std::vector<LrcStripePlacement> out;
  out.reserve(stripes);
  for (std::size_t s = 0; s < stripes; ++s) {
    LrcStripePlacement placement;
    auto racks = rng.sample_without_replacement(topo.config().racks, width);
    placement.racks.reserve(width);
    for (auto r : racks) placement.racks.push_back(static_cast<RackId>(r));
    out.push_back(std::move(placement));
  }
  return out;
}

}  // namespace mlec
