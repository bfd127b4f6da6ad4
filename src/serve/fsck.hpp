// Boot-time spool integrity scrub (DESIGN.md §17.3).
//
// fsck_spool replays the write-ahead journal against the world it claims
// to describe — job spool, durable result store, result cache, disk ledger
// — and reconciles every disagreement with a typed, counted verdict:
//
//   torn-journal-tail    truncated at the last whole record
//   corrupt-journal      foreign magic or version: rebuilt empty, then the
//                        spool + results are re-adopted (no quarantine)
//   corrupt-spool-entry  .job fails frame/CRC/parse: quarantined (.corrupt)
//   orphan-spool-entry   .job the journal never admitted: adopted
//   stale-spool-entry    .job whose job already has a durable result:
//                        removed (re-running it would duplicate execution)
//   corrupt-result       result file fails CRC or its journal fingerprint:
//                        quarantined
//   orphan-result        result without a terminal record: adopted
//   missing-result       terminal record, no result file, no eviction
//                        record: failed-honest tombstone written (the
//                        original bytes are gone; fsck never fabricates)
//   lost-spool-entry     admitted, never terminal, no spool file left:
//                        failed-honest tombstone written
//   corrupt-cache-entry  cache entry fails frame/CRC: removed (advisory)
//   temp-debris          atomic-write temp leftovers: removed
//   ledger-drift         bytes no classified artifact explains: charged to
//                        the recount and flagged
//   unreadable           journal, result, spool entry or cache entry whose
//                        read failed (I/O error, not bad bytes): left in
//                        place and counted as a repair failure; no tombstone
//                        for its id (its journal records outlive
//                        compaction), and an unreadable journal gets no
//                        rebuild, adoption, tombstone or compaction
//
// Every repair goes through the iofault seam, so fsck itself is
// chaos-survivable: an injected ENOSPC/EIO/torn rename turns the item's
// action into "repair-failed: ..." and the scrub continues — it never
// throws out of fsck_spool.
//
// fsck is the only boot-time reader of the spool: given a SpoolImage it
// hands over everything it decoded, and Service adopts that instead of
// reading the files again.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/durable.hpp"
#include "serve/protocol.hpp"

namespace crusade::serve {

enum class FsckFinding : std::uint8_t {
  TornJournalTail,
  CorruptJournal,
  CorruptSpoolEntry,
  OrphanSpoolEntry,
  StaleSpoolEntry,
  CorruptResult,
  OrphanResult,
  MissingResult,
  LostSpoolEntry,
  CorruptCacheEntry,
  TempDebris,
  LedgerDrift,
  Unreadable,
};
inline constexpr unsigned kFsckFindingCount = 13;
const char* to_string(FsckFinding finding);

struct FsckItem {
  FsckFinding finding = FsckFinding::TornJournalTail;
  std::uint64_t id = 0;    ///< job id when the finding names one, else 0
  std::string path;        ///< file the finding is about (journal, .job, ...)
  std::string action;      ///< "truncated", "quarantined", "adopted",
                           ///< "removed", "tombstone", "charged",
                           ///< "detected" (repair=false), or
                           ///< "repair-failed: <why>"
  long long bytes = 0;     ///< size of the file involved (forensics)
};

struct FsckReport {
  std::vector<FsckItem> items;
  /// Valid records replayed from the journal (pre-repair).
  std::uint64_t journal_records = 0;
  /// Actual bytes on disk under the spool after repairs — the authoritative
  /// recount the service's disk ledger is reset to.
  long long disk_bytes = 0;
  int repairs = 0;           ///< actions that changed the world and stuck
  int quarantines = 0;       ///< subset of repairs that renamed evidence aside
  int repair_failures = 0;   ///< repairs the (possibly chaos-armed) fs refused
  int count(FsckFinding finding) const;
  bool clean() const { return items.empty(); }
  std::string to_json() const;
};

/// What a scrub read and found valid, after its repairs.
struct SpoolImage {
  struct Result {
    DurableResult result;   ///< valid durable result (tombstones included)
    std::uint64_t fnv = 0;  ///< fnv1a of the framed file
  };
  struct Job {
    std::uint64_t id = 0;
    SubmitRequest request;  ///< the spooled job (not stale, not corrupt)
  };
  struct CacheEntry {
    std::uint64_t key = 0;
    long long cost_ms = 0;
    std::string body;
  };
  struct File {
    std::string path;
    long long bytes = 0;
    long long mtime = 0;  ///< seconds since the epoch
    bool drift = false;   ///< no artifact pattern explains it
  };
  std::vector<Result> results;
  std::vector<Job> jobs;
  std::vector<CacheEntry> cache;
  /// Every regular file left under the spool after the repairs.
  std::vector<File> files;
  /// Highest job id any result file, spool file or journal record names
  /// (unreadable files and tombstones included), so a booting service never
  /// reissues an id the spool still knows.
  std::uint64_t max_id = 0;
  /// False when the journal could not be read: it then vouches for nothing
  /// and must not be compacted.
  bool journal_known = false;
  /// Journal records of ids the scrub could not settle (an unreadable file,
  /// a tombstone that could not be written): compaction carries them over
  /// so a later scrub can still keep the journal's promise.
  std::vector<JournalRecord> unsettled;
};

/// Scrubs `spool_dir` (created if missing).  repair=false classifies only —
/// every item's action is "detected" and nothing on disk changes.  When
/// `live` is given it receives what the scrub read (see SpoolImage).  Never
/// throws; an unusable spool directory yields a report whose items say so.
FsckReport fsck_spool(const std::string& spool_dir, bool repair,
                      SpoolImage* live = nullptr);

}  // namespace crusade::serve
