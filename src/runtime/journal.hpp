// Campaign checkpoint journal: the on-disk format behind resumable sweeps.
//
// A journal is a single versioned binary file, rewritten crash-safely at
// every checkpoint: serialize to `path + ".tmp"`, fsync the tmp file,
// rename over `path`, then fsync the parent directory so the rename itself
// is durable. A crash at any instant leaves either the previous journal or
// the new one — never a torn file (torn *bytes* are additionally caught by
// per-record CRCs, below).
//
// Format v3 (little-endian). Every record after the fixed preamble is
// length-framed and checksummed:
//
//   preamble: magic "MLECCAMP" | u32 version (= 3)
//   frame:    u32 payload_len | u32 crc32(payload) | payload bytes
//   frame 0:  header payload — u64 seed | u64 total_units | u64 block_units
//             | u64 fingerprint (FNV-1a of the workload's config identity —
//             resuming under a different config refuses) | u64 prefix_blocks
//             | u32 record_count | prefix accumulator (the fold of blocks
//             0..prefix_blocks-1 in index order, quarantined ones skipped)
//   frames 1..record_count: one block record each, in increasing block
//             order — u64 block | u32 attempts | u8 flags (1 = quarantined)
//             | accumulator (empty for a quarantined block). A completed
//             block lies beyond the prefix; a quarantined one may lie
//             anywhere.
//
// A block is a fixed run of `block_units` units drawing from its own
// substream, so the journal holds statistics only: no RNG state, no
// per-worker assignment.
//
// Two read paths share the parser:
//   * load()/load_file() — strict: any damage throws PreconditionError.
//   * recover()/recover_file() — resilient: returns a typed
//     JournalLoadResult. A corrupt or truncated tail is dropped at the last
//     CRC-valid record (blocks whose records were lost are simply
//     recomputed from their substreams, so the resumed campaign is still
//     bit-identical); an unusable preamble/header falls back to a fresh
//     start. recover never throws on malformed bytes.
//
// Version 1 (pre-CRC) and version 2 (per-shard RNG state) files are
// reported unusable with a migration warning rather than parsed.
//
// Resume restores the prefix and the completed blocks exactly, so a run
// killed between commits recomputes only its in-flight blocks and finishes
// bit-identical to an uninterrupted run with the same seed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/accumulator.hpp"

namespace mlec {

inline constexpr std::uint32_t kCampaignJournalVersion = 3;

struct JournalLoadResult;

/// Persistent record of one block beyond the prefix, or of a quarantined
/// block.
struct BlockRecord {
  std::uint64_t block = 0;
  std::uint32_t attempts = 0;  ///< attempts the block consumed
  bool quarantined = false;
  CampaignAccumulator acc;     ///< the block's statistics (empty if quarantined)
};

struct CampaignJournal {
  std::uint64_t seed = 0;
  std::uint64_t total_units = 0;
  std::uint64_t block_units = 0;
  std::uint64_t fingerprint = 0;
  /// Blocks 0..prefix_blocks-1 are folded into `prefix`.
  std::uint64_t prefix_blocks = 0;
  CampaignAccumulator prefix;
  std::vector<BlockRecord> records;  ///< increasing block order

  void save(std::ostream& out) const;
  /// Strict load: throws PreconditionError on any malformed, truncated, or
  /// checksum-failing input. Equivalent to recover() + requiring kOk.
  static CampaignJournal load(std::istream& in);
  /// Resilient load: never throws on malformed bytes (see file comment).
  static JournalLoadResult recover(std::istream& in);

  /// Crash-safe file write: serialize to `path + ".tmp"`, fsync it, rename
  /// over `path`, fsync the parent directory. Fault points:
  /// journal.save.pre, journal.rename.pre, journal.rename.post.
  void save_file(const std::string& path) const;
  /// Strict file load; throws PreconditionError on malformed data.
  static CampaignJournal load_file(const std::string& path);
  /// Resilient file load; kMissing when the path does not exist.
  static JournalLoadResult recover_file(const std::string& path);
};

/// Typed outcome of the resilient read path (CampaignJournal::recover).
struct JournalLoadResult {
  enum class Status {
    kOk,         ///< fully intact: every framed record parsed and verified
    kRecovered,  ///< damaged tail dropped at the last CRC-valid record
    kMissing,    ///< no file at the given path (recover_file only)
    kUnusable,   ///< bad magic/version/header: start fresh
  };

  Status status = Status::kUnusable;
  /// The recovered journal (usable() states only); `records` may be a
  /// prefix of what was written.
  CampaignJournal journal;
  std::string warning;              ///< human-readable damage description ("" when kOk)

  /// True when the caller can resume from `journal`.
  bool usable() const { return status == Status::kOk || status == Status::kRecovered; }
};

/// Blocks of `block_units` covering `total_units`; the last may be short.
inline std::uint64_t block_count(std::uint64_t total_units, std::uint64_t block_units) {
  return total_units / block_units + (total_units % block_units != 0 ? 1 : 0);
}

/// FNV-1a hash of an arbitrary identity string (workload config text).
std::uint64_t fingerprint_of(const std::string& identity);

/// Crash-safe atomic file replacement shared by every durable store in the
/// tree (campaign journals, the server's submission/estimate store): write
/// `path + ".tmp"`, fsync it, rename over `path`, fsync the parent
/// directory. A crash at any instant leaves either the old file or the new
/// one — never a torn mix. Hits the journal.rename.pre/.post fault points.
void save_bytes_durable(const std::string& path, const std::string& bytes);

}  // namespace mlec
