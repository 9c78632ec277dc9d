#include "runtime/journal.hpp"

#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

#include "runtime/io_detail.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace mlec {

namespace {

constexpr char kMagic[8] = {'M', 'L', 'E', 'C', 'C', 'A', 'M', 'P'};
constexpr std::uint8_t kFlagQuarantined = 1;
constexpr std::size_t kPreambleSize = sizeof kMagic + 4;  // magic + u32 version
constexpr std::size_t kFrameHeaderSize = 8;               // u32 len + u32 crc
// A frame is an accumulator (a handful of named slots) plus fixed fields —
// far below a megabyte. The cap exists so a corrupt length field cannot
// drive a multi-gigabyte allocation before the CRC check runs.
constexpr std::uint32_t kMaxFramePayload = 16u << 20;
// Likewise for the record count read out of a (possibly hostile) header.
constexpr std::uint32_t kMaxPlausibleRecords = 1u << 20;

std::uint32_t peek_u32(const std::string& data, std::size_t offset) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data[offset + i])) << (8 * i);
  return v;
}

void write_frame(std::ostream& out, const std::string& payload) {
  using namespace campaign_io;
  write_u32(out, static_cast<std::uint32_t>(payload.size()));
  write_u32(out, crc32(payload));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

/// Extract the next length-framed, CRC-verified payload starting at
/// `offset`. Returns false — without advancing — on truncation, an
/// implausible length, or a checksum mismatch; `why` says which.
bool next_frame(const std::string& data, std::size_t& offset, std::string& payload,
                const char*& why) {
  if (data.size() - offset < kFrameHeaderSize) {
    why = "truncated frame header";
    return false;
  }
  const std::uint32_t len = peek_u32(data, offset);
  const std::uint32_t expected_crc = peek_u32(data, offset + 4);
  if (len > kMaxFramePayload) {
    why = "implausible frame length";
    return false;
  }
  if (data.size() - offset - kFrameHeaderSize < len) {
    why = "truncated frame payload";
    return false;
  }
  if (crc32(data.data() + offset + kFrameHeaderSize, len) != expected_crc) {
    why = "frame checksum mismatch";
    return false;
  }
  payload.assign(data, offset + kFrameHeaderSize, len);
  offset += kFrameHeaderSize + len;
  return true;
}

std::string header_payload(const CampaignJournal& journal) {
  using namespace campaign_io;
  std::ostringstream os(std::ios::binary);
  write_u64(os, journal.seed);
  write_u64(os, journal.total_units);
  write_u64(os, journal.block_units);
  write_u64(os, journal.fingerprint);
  write_u64(os, journal.prefix_blocks);
  write_u32(os, static_cast<std::uint32_t>(journal.records.size()));
  journal.prefix.save(os);
  return std::move(os).str();
}

std::string record_payload(const BlockRecord& rec) {
  using namespace campaign_io;
  std::ostringstream os(std::ios::binary);
  write_u64(os, rec.block);
  write_u32(os, rec.attempts);
  write_u8(os, rec.quarantined ? kFlagQuarantined : 0);
  rec.acc.save(os);
  return std::move(os).str();
}

/// Payload parsers reuse the campaign_io readers over an in-memory stream;
/// a payload that runs short (CRC-valid but semantically malformed) throws
/// PreconditionError, which recover_from_buffer() converts to a drop.
/// Returns the header's record count.
std::uint32_t parse_header(const std::string& payload, CampaignJournal& journal) {
  using namespace campaign_io;
  std::istringstream in(payload, std::ios::binary);
  journal.seed = read_u64(in);
  journal.total_units = read_u64(in);
  journal.block_units = read_u64(in);
  journal.fingerprint = read_u64(in);
  journal.prefix_blocks = read_u64(in);
  const std::uint32_t count = read_u32(in);
  journal.prefix = CampaignAccumulator::load(in);
  MLEC_REQUIRE(journal.block_units > 0 && count <= kMaxPlausibleRecords &&
                   journal.prefix_blocks <= block_count(journal.total_units, journal.block_units),
               "campaign journal header implausible");
  return count;
}

BlockRecord parse_record(const std::string& payload) {
  using namespace campaign_io;
  std::istringstream in(payload, std::ios::binary);
  BlockRecord rec;
  rec.block = read_u64(in);
  rec.attempts = read_u32(in);
  rec.quarantined = (read_u8(in) & kFlagQuarantined) != 0;
  rec.acc = CampaignAccumulator::load(in);
  return rec;
}

JournalLoadResult unusable(std::string warning) {
  JournalLoadResult result;
  result.status = JournalLoadResult::Status::kUnusable;
  result.warning = std::move(warning);
  return result;
}

JournalLoadResult recover_from_buffer(const std::string& data) {
  if (data.size() < kPreambleSize ||
      !std::equal(kMagic, kMagic + sizeof kMagic, data.data()))
    return unusable("not a campaign journal (bad magic)");
  const std::uint32_t version = peek_u32(data, sizeof kMagic);
  if (version == 1)
    return unusable(
        "campaign journal is format v1 (pre-checksum); v1 cannot be validated "
        "and is not migrated — delete the journal to start fresh");
  if (version == 2)
    return unusable(
        "campaign journal is format v2 (per-shard RNG state); v2 is not "
        "migrated — delete the journal to start fresh");
  if (version != kCampaignJournalVersion)
    return unusable("unsupported campaign journal version " + std::to_string(version));

  std::size_t offset = kPreambleSize;
  std::string payload;
  const char* why = "";
  if (!next_frame(data, offset, payload, why))
    return unusable(std::string("campaign journal header unreadable: ") + why);

  JournalLoadResult result;
  CampaignJournal& journal = result.journal;
  std::uint32_t count = 0;
  try {
    count = parse_header(payload, journal);
  } catch (const PreconditionError& e) {
    return unusable(std::string("campaign journal header malformed: ") + e.what());
  }

  // Per-record damage truncates: everything before the first bad frame is
  // trusted (each frame was independently CRC-verified), everything after
  // is dropped because frame boundaries can no longer be located.
  const std::uint64_t blocks = block_count(journal.total_units, journal.block_units);
  std::string tail_warning;
  journal.records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!next_frame(data, offset, payload, why)) {
      tail_warning = why;
      break;
    }
    BlockRecord rec;
    try {
      rec = parse_record(payload);
    } catch (const PreconditionError&) {
      tail_warning = "malformed record payload";
      break;
    }
    if (rec.block >= blocks) {
      tail_warning = "record block out of range";
      break;
    }
    if (!journal.records.empty() && rec.block <= journal.records.back().block) {
      tail_warning = "duplicate or unordered block record";
      break;
    }
    if (!rec.quarantined && rec.block < journal.prefix_blocks) {
      tail_warning = "completed block inside the prefix";
      break;
    }
    journal.records.push_back(std::move(rec));
  }
  if (tail_warning.empty() && offset != data.size())
    tail_warning = "trailing bytes after last record";
  if (tail_warning.empty()) {
    result.status = JournalLoadResult::Status::kOk;
  } else {
    result.status = JournalLoadResult::Status::kRecovered;
    result.warning = "campaign journal damaged (" + tail_warning + "): kept " +
                     std::to_string(journal.records.size()) + " of " + std::to_string(count) +
                     " block records; dropped blocks will be recomputed";
  }
  return result;
}

std::string slurp(std::istream& in) {
  std::ostringstream os;
  os << in.rdbuf();
  return std::move(os).str();
}

#ifndef _WIN32
void write_file_durable(const std::string& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  MLEC_REQUIRE(fd >= 0, "cannot open campaign journal for writing: " + path + ": " +
                            // Copied into the message before any other call
                            // can clobber strerror's static buffer.
                            // NOLINTNEXTLINE(concurrency-mt-unsafe)
                            std::strerror(errno));
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw PreconditionError("campaign journal write failed: " + path + ": " +
                              // NOLINTNEXTLINE(concurrency-mt-unsafe)
                              std::strerror(err));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw PreconditionError("campaign journal fsync failed: " + path + ": " +
                            // NOLINTNEXTLINE(concurrency-mt-unsafe)
                            std::strerror(err));
  }
  MLEC_REQUIRE(::close(fd) == 0, "campaign journal close failed: " + path);
}

void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  // Some filesystems refuse O_RDONLY on directories; the rename itself is
  // still atomic, so degrade to best-effort rather than failing the save.
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}
#endif

}  // namespace

void save_bytes_durable(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
#ifndef _WIN32
  write_file_durable(tmp, bytes);
  MLEC_FAULT_POINT("journal.rename.pre");
  MLEC_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot atomically replace campaign journal: " + path);
  MLEC_FAULT_POINT("journal.rename.post");
  fsync_parent_dir(path);
#else
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    MLEC_REQUIRE(out.good(), "cannot open campaign journal for writing: " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    MLEC_REQUIRE(out.good(), "campaign journal write failed: " + tmp);
  }
  MLEC_FAULT_POINT("journal.rename.pre");
  std::remove(path.c_str());
  MLEC_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot atomically replace campaign journal: " + path);
  MLEC_FAULT_POINT("journal.rename.post");
#endif
}

std::uint64_t fingerprint_of(const std::string& identity) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const char c : identity) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void CampaignJournal::save(std::ostream& out) const {
  using namespace campaign_io;
  out.write(kMagic, sizeof kMagic);
  write_u32(out, kCampaignJournalVersion);
  write_frame(out, header_payload(*this));
  for (const auto& rec : records) write_frame(out, record_payload(rec));
}

CampaignJournal CampaignJournal::load(std::istream& in) {
  JournalLoadResult result = recover(in);
  MLEC_REQUIRE(result.status == JournalLoadResult::Status::kOk,
               result.warning.empty() ? "campaign journal unreadable" : result.warning);
  return std::move(result.journal);
}

JournalLoadResult CampaignJournal::recover(std::istream& in) {
  if (!in.good()) return unusable("campaign journal stream unreadable");
  return recover_from_buffer(slurp(in));
}

void CampaignJournal::save_file(const std::string& path) const {
  MLEC_FAULT_POINT("journal.save.pre");
  std::ostringstream os(std::ios::binary);
  save(os);
  save_bytes_durable(path, std::move(os).str());
}

CampaignJournal CampaignJournal::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MLEC_REQUIRE(in.good(), "cannot open campaign journal: " + path);
  return load(in);
}

JournalLoadResult CampaignJournal::recover_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    JournalLoadResult result;
    result.status = JournalLoadResult::Status::kMissing;
    result.warning = "no campaign journal at " + path;
    return result;
  }
  return recover(in);
}

}  // namespace mlec
