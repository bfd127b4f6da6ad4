// Durable-by-design crusaded (DESIGN.md §17): the write-ahead job journal
// and the durable terminal-result store.
//
// Two cooperating pieces make a job's whole lifecycle survive SIGKILL:
//
//  * The journal is an append-only file of CRC-framed records — one per
//    lifecycle transition (admitted, attempt-started, terminal, result
//    evicted).  Every record carries its own length + CRC, so a torn tail
//    (power loss mid-append) is detected and truncated at the last whole
//    record instead of poisoning replay.  The file opens with a
//    magic/version header ("CJRN") and is compacted to the live set at
//    every boot.
//
//  * A DurableResult is the full terminal answer of one job — outcome,
//    result body, detail, retry history with crash forensics — serialized
//    with the deterministic ckpt BinWriter and written as a framed "CRES"
//    file under <spool>/results/<id>.res before the terminal state is ever
//    published in memory.  `crusade result <id>` after a daemon SIGKILL +
//    restart therefore returns the bit-identical bytes, failed-honest and
//    degraded-honest outcomes included.
//
// Boot-time fsck (serve/fsck.hpp) replays the journal against the spool +
// result store and reconciles every disagreement with a typed verdict.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/service.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace crusade::serve {

// --- on-disk format magics (all framed via util/disk_format.hpp) ---------
inline constexpr char kJournalMagic[5] = "CJRN";
inline constexpr std::uint32_t kJournalVersion = 1;
inline constexpr char kSpoolJobMagic[5] = "CJOB";
inline constexpr std::uint32_t kSpoolJobVersion = 1;
inline constexpr char kResultBlobMagic[5] = "CRSB";
inline constexpr std::uint32_t kResultBlobVersion = 1;
inline constexpr char kCacheEntryMagic[5] = "CCHE";
inline constexpr std::uint32_t kCacheEntryVersion = 1;
inline constexpr char kDurableResultMagic[5] = "CRES";
inline constexpr std::uint32_t kDurableResultVersion = 1;
inline constexpr char kWorkerTraceMagic[5] = "CTRC";
inline constexpr std::uint32_t kWorkerTraceVersion = 1;

// --- durable terminal results --------------------------------------------

/// Everything status()/result_body() need to answer for a terminal job,
/// in a deterministic binary payload (framed "CRES" on disk).
struct DurableResult {
  std::uint64_t id = 0;
  JobKind kind = JobKind::Run;
  JobOutcome outcome = JobOutcome::None;
  int priority = 0;
  int attempts = 0;
  bool cached = false;
  int finish_seq = 0;
  long wait_ms = 0;
  long run_ms = 0;
  std::string detail;
  std::string body;
  std::vector<AttemptRecord> history;
};

/// Deterministic payload bytes (the part under the "CRES" frame).
std::string encode_durable_result(const DurableResult& r);
/// Throws Error on truncation, trailing bytes, or out-of-range enums.
DurableResult decode_durable_result(const std::string& payload);

/// The result body of every answer that is a failure rather than a
/// synthesis result (cancellation, crash budget, fsck tombstone):
/// {"kind","error","error_class","attempts"}.
std::string failure_body(JobKind kind, const char* error_class,
                         const std::string& message, int attempts);

// --- the write-ahead journal ---------------------------------------------

enum class JournalRecordType : std::uint8_t {
  Admitted = 1,        ///< job spooled + visible; spec fingerprint recorded
  AttemptStarted = 2,  ///< a supervised fork is about to run this attempt
  Terminal = 3,        ///< durable result written; fnv fingerprints the file
  ResultEvicted = 4,   ///< retention dropped the durable result on purpose
};
const char* to_string(JournalRecordType type);

/// One journal record.  Every record carries the full field set (unused
/// fields stay zero) so the framing is fixed-size and version-1 replay
/// never needs per-type length logic.
struct JournalRecord {
  JournalRecordType type = JournalRecordType::Admitted;
  std::uint64_t id = 0;
  std::uint32_t attempt = 0;     ///< AttemptStarted
  std::uint8_t kind = 0;         ///< Admitted/Terminal: JobKind
  std::uint8_t outcome = 0;      ///< Terminal: JobOutcome
  std::uint32_t attempts = 0;    ///< Terminal
  std::uint64_t spec_fnv = 0;    ///< Admitted: fnv1a of the spec text
  std::uint64_t result_fnv = 0;  ///< Terminal: fnv1a of the result file bytes
};

/// The Admitted record for job `id` spooled from `request`.
JournalRecord admitted_record(std::uint64_t id, const SubmitRequest& request);
/// The Terminal record for durable result `r`; `result_fnv` fingerprints
/// its framed file (0 = unchecked).
JournalRecord terminal_record(const DurableResult& r,
                              std::uint64_t result_fnv);

/// Journal replay verdict: the valid prefix, and whether (and where) the
/// tail was torn.  A missing file replays as empty and clean.
struct JournalReplay {
  std::vector<JournalRecord> records;
  bool missing = false;
  bool torn_tail = false;
  /// Byte offset of the first invalid byte — the truncation point that
  /// repairs a torn tail.
  std::uint64_t valid_bytes = 0;
  /// Non-empty when the file exists but its header is unreadable (foreign
  /// magic, unsupported version): the journal must be rebuilt, not trusted.
  std::string header_error;
  /// Non-empty when the file exists but reading it failed (I/O error): its
  /// contents are unknown — neither torn nor corrupt, so nothing may be
  /// rebuilt from (or instead of) it.
  std::string read_error;
};

/// Append-only writer.  Appends go through the iofault seam (xwrite/xfsync)
/// with checked returns; any failure closes nothing, loses nothing already
/// durable, and is reported to the caller — journal trouble must degrade
/// durability accounting, never wedge the service.  Thread-safe.
class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens `path` for appending, writing the magic/version header if the
  /// file is new or empty.  Returns false (service keeps running without a
  /// journal) when the file cannot be opened.
  bool open(const std::string& path) CRUSADE_EXCLUDES(mu_);
  void close() CRUSADE_EXCLUDES(mu_);
  bool is_open() const CRUSADE_EXCLUDES(mu_);

  /// Appends one CRC-framed record and fsyncs.  Returns the journal size in
  /// bytes after the append, or 0 on failure (counted in append_failures).
  std::uint64_t append(const JournalRecord& record) CRUSADE_EXCLUDES(mu_);
  std::uint64_t append_failures() const CRUSADE_EXCLUDES(mu_);

  /// Replays `path` record by record, stopping at the first record whose
  /// length or CRC does not check out (a torn append).
  static JournalReplay replay(const std::string& path);
  /// Truncates a torn tail at `valid_bytes` (fsck's repair).
  static bool truncate_tail(const std::string& path,
                            std::uint64_t valid_bytes);
  /// Atomically replaces the journal with header + exactly `records` —
  /// boot-time compaction to the live set.
  static bool rewrite(const std::string& path,
                      const std::vector<JournalRecord>& records);

 private:
  mutable util::Mutex mu_;
  int fd_ CRUSADE_GUARDED_BY(mu_) = -1;
  std::uint64_t bytes_ CRUSADE_GUARDED_BY(mu_) = 0;
  std::uint64_t failures_ CRUSADE_GUARDED_BY(mu_) = 0;
};

}  // namespace crusade::serve
