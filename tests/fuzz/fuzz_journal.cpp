// Campaign-journal fuzz target.
//
// Contract under test (the resume path runs on whatever bytes a crash left
// behind, so this surface is adversarial by construction):
//   * CampaignJournal::recover never throws on arbitrary bytes — it returns
//     a typed JournalLoadResult, and any usable() result contains only
//     fully CRC-verified records in strictly increasing, in-range block
//     order, with no completed block inside the folded prefix.
//   * CampaignJournal::load (the strict path) either parses or raises
//     mlec::PreconditionError. Crashes, sanitizer reports, bad_alloc from
//     attacker-controlled lengths, or any other exception escaping is a bug.
//   * Round-trip stability: a recovered journal must re-serialize to bytes
//     that recover as fully intact (kOk) with the same record set.
#include <cstdint>
#include <sstream>
#include <string>

#include "runtime/journal.hpp"
#include "util/error.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);

  std::istringstream strict_in(bytes);
  try {
    (void)mlec::CampaignJournal::load(strict_in);
  } catch (const mlec::PreconditionError&) {
    // diagnosed malformed input: the accepted strict-path outcome
  }

  std::istringstream in(bytes);
  const mlec::JournalLoadResult result = mlec::CampaignJournal::recover(in);
  if (!result.usable()) return 0;

  // Every surviving record must lie inside the header's block universe, in
  // increasing order (the campaign keys its state by block), and only a
  // quarantined block may sit inside the prefix.
  const mlec::CampaignJournal& journal = result.journal;
  if (journal.block_units == 0) __builtin_trap();
  const std::uint64_t blocks = mlec::block_count(journal.total_units, journal.block_units);
  if (journal.prefix_blocks > blocks) __builtin_trap();
  for (std::size_t i = 0; i < journal.records.size(); ++i) {
    const auto& rec = journal.records[i];
    if (rec.block >= blocks) __builtin_trap();
    if (i > 0 && rec.block <= journal.records[i - 1].block) __builtin_trap();
    if (!rec.quarantined && rec.block < journal.prefix_blocks) __builtin_trap();
  }

  // Round-trip: re-serialize the recovered journal; it must recover
  // cleanly with nothing dropped.
  std::ostringstream out;
  journal.save(out);
  std::istringstream again(out.str());
  const mlec::JournalLoadResult reread = mlec::CampaignJournal::recover(again);
  if (reread.status != mlec::JournalLoadResult::Status::kOk ||
      reread.journal.records.size() != journal.records.size())
    __builtin_trap();
  return 0;
}
