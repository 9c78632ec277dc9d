// Pluggable code-family layer: every consumer of "the erasure code" talks
// to a CodeModel instead of a raw (k, p) pair, lifting the MDS assumption
// out of the simulators, planners, closed forms, and the byte-exact repair
// executor.
//
// A CodeModel answers four questions about one MLEC level's code:
//  * decodability — can_repair() over an erasure bitmask (or index list),
//    O(1) after construction via a precomputed table (the YTsaurus lrc.h
//    idiom) for the non-MDS families, filled by the same elimination
//    (ec::independent_rows) that builds the decoder's plans;
//  * repair cost — shards read to rebuild one position under a failure
//    pattern, and the average over single failures (the quantity that sets
//    cross-rack repair traffic);
//  * tolerance structure — min_tolerance (largest f with every f-pattern
//    decodable), max_tolerance, and the per-f decodable fraction the
//    closed forms consume in place of the MDS "p" everywhere;
//  * the concrete encoder/decoder over the SIMD ec:: data plane, with one
//    ec::DecodePlanCache per code.
//
// Families shipped here: Reed-Solomon (kRs, any width up to the GF(256)
// 256-symbol limit, wide stripes included) and Azure-style LRC (kLrc) with
// XOR local parities per group and Cauchy global parities.
// make_code_model() caches models per parameter set, so the (expensive for
// LRC) decodability table and the encode plans are built once per process.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gf/rs.hpp"
#include "placement/codes.hpp"

namespace mlec {

enum class CodeFamily {
  kRs,   ///< MDS Reed-Solomon
  kLrc,  ///< Azure-style (k, l, r) locally repairable code
};

const char* to_string(CodeFamily family);
/// Parses "rs", "lrc" (the spec_io [code] family key).
CodeFamily parse_code_family(const std::string& text);

/// One MLEC level's code selection: the family plus its parameters. The
/// rs field carries kRs shapes; the lrc field carries kLrc shapes.
struct LevelCode {
  CodeFamily family = CodeFamily::kRs;
  SlecCode rs{0, 0};
  LrcCode lrc{};

  static LevelCode make_rs(SlecCode code) { return {CodeFamily::kRs, code, {}}; }
  static LevelCode make_lrc(LrcCode code) { return {CodeFamily::kLrc, {0, 0}, code}; }

  std::size_t data_chunks() const { return family == CodeFamily::kLrc ? lrc.k : rs.k; }
  std::size_t parity_chunks() const {
    return family == CodeFamily::kLrc ? lrc.l + lrc.r : rs.p;
  }
  std::size_t width() const { return data_chunks() + parity_chunks(); }

  /// Family-qualified notation, e.g. "rs(10+2)", "lrc(12,2,2)".
  std::string notation() const;
  void validate() const;
  bool operator==(const LevelCode&) const = default;
};

/// Erased-position bitmask: bit i set means shard i is lost. Mask-based
/// queries require width() <= 64; the index-list overloads have no such
/// limit (wide RS can exceed 64 shards).
using ErasureMask = std::uint64_t;

class CodeModel {
 public:
  virtual ~CodeModel() = default;

  virtual CodeFamily family() const = 0;
  virtual const LevelCode& level() const = 0;
  std::size_t data_chunks() const { return level().data_chunks(); }
  std::size_t parity_chunks() const { return level().parity_chunks(); }
  std::size_t width() const { return level().width(); }
  std::string notation() const { return level().notation(); }

  /// O(1) decodability test over an erasure bitmask.
  virtual bool can_repair(ErasureMask erased) const = 0;
  /// Index-list form (valid for any width; indices must be distinct).
  virtual bool can_repair(std::span<const std::size_t> erased) const = 0;
  bool is_data_loss(ErasureMask erased) const { return !can_repair(erased); }

  /// Largest f such that EVERY f-erasure pattern decodes (p for MDS codes;
  /// strictly less for LRC). The closed forms' overlap threshold.
  virtual std::size_t min_tolerance() const = 0;
  /// Largest f with at least one decodable f-erasure pattern (<= parities).
  virtual std::size_t max_tolerance() const = 0;
  /// Fraction of f-erasure patterns that decode (1 for f <= min_tolerance,
  /// 0 beyond max_tolerance). The closed forms and the fleet simulator
  /// both thin (min_tolerance+1)-overlaps by 1 - decodable_fraction(t+1).
  virtual double decodable_fraction(std::size_t f) const = 0;

  /// Shards read to rebuild `position` when `erased` (which must contain
  /// `position` and be decodable) is lost: k for MDS codes, the local
  /// group width minus one for LRC positions whose group holds no other
  /// erasure — the locality payoff.
  virtual double repair_reads(std::size_t position, ErasureMask erased) const = 0;
  double single_repair_reads(std::size_t position) const {
    return repair_reads(position, ErasureMask{1} << position);
  }
  /// Mean of single_repair_reads over all positions — the per-chunk read
  /// amplification that prices cross-rack repair traffic (k for RS).
  virtual double avg_single_repair_reads() const = 0;

  /// Compute all parity shards from the data shards (sizes data_chunks()
  /// and parity_chunks(); equal shard lengths).
  virtual void encode(std::span<const std::span<const gf::byte_t>> data,
                      std::span<const std::span<gf::byte_t>> parity) const = 0;
  /// Rebuild the shards listed in `lost` (global indices over width())
  /// in place; requires can_repair(lost).
  virtual void decode(std::vector<std::vector<gf::byte_t>>& shards,
                      std::span<const std::size_t> lost) const = 0;
};

/// Build (or fetch from the process-wide cache) the model for `level`.
/// Models are immutable and shared; repeated calls with the same parameters
/// return the same instance, so encode plans and decodability tables exist
/// once per process.
std::shared_ptr<const CodeModel> make_code_model(const LevelCode& level);

}  // namespace mlec
