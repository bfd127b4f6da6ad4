// Crash-safe checkpoint/recovery for the co-synthesis search (DESIGN.md
// §11).
//
// A checkpoint captures a state the uninterrupted search passes through —
// the committed architecture after a whole-cluster allocation step, or the
// merge loop's state at a pass boundary — plus the accumulated RunStats and
// the fingerprint of the (specification, parameters) pair it belongs to.
// Because the search is deterministic, resuming from any checkpoint
// reproduces the bit-identical final architecture of a run that was never
// interrupted; the soak harness (`crusade soak`, tools/soak.sh) SIGKILLs
// synthesis processes at random points and asserts exactly that.
//
// File format (all little-endian):
//   bytes 0-3   magic "CKPT"
//   bytes 4-7   format version (u32)
//   bytes 8-11  CRC-32 of the payload
//   bytes 12-19 payload length (u64)
//   bytes 20-   payload (serialize.hpp primitives)
//
// Files are written with atomic_write_file (temp + fsync + rename), so a
// crash at any instant leaves either the previous complete checkpoint or
// the new complete one.  The loader fails loudly — typed Error, never a
// crash and never a silent restart — on truncation, CRC mismatch,
// unsupported version, or a specification/parameter fingerprint that does
// not match the resuming run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/architecture.hpp"
#include "obs/runstats.hpp"
#include "reconfig/merge.hpp"
#include "sched/scheduler.hpp"

namespace crusade::ckpt {

/// Bumped whenever the payload layout changes; old files are rejected with
/// a version error rather than misread.
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Which phase of the pipeline the checkpoint state belongs to.
enum class Stage : std::uint8_t {
  /// Mid-allocation: `arch` holds the committed placements of the clusters
  /// flagged in `placed`; allocation resumes at the next unplaced cluster.
  Allocation = 0,
  /// Allocation (incl. repair and evacuation) is complete; `merge_report`
  /// records the merge passes finished so far and the loop resumes at pass
  /// `merge_report.passes`.
  Merge = 1,
  /// The merge loop ran to its natural end; resume skips straight to
  /// interface synthesis and the final phases.
  MergeDone = 2,
};

const char* to_string(Stage stage);

struct Checkpoint {
  Stage stage = Stage::Allocation;
  /// Fingerprint of the specification text and the search-shaping
  /// parameters (Crusade::fingerprint); a checkpoint only resumes a run
  /// that would have produced it.
  std::uint64_t spec_hash = 0;
  /// Committed architecture at the checkpoint state.
  Architecture arch;
  /// Per-cluster placement flags (Allocation stage; all-ones afterwards).
  std::vector<char> placed;
  /// Allocator schedule evaluations spent up to this state — seeds the
  /// resumed allocator so budgets and RunStats continue, not restart.
  std::int64_t sched_evals = 0;
  int clusters_with_misses = 0;
  /// Allocation acceptance bar at the checkpoint state (AllocProgress):
  /// restored verbatim because after budget exhaustion the bar goes stale on
  /// purpose and a resumed run must inherit the same stale values.
  ScheduleScore committed;
  /// Merge-loop progress (Merge/MergeDone stages; default elsewhere).
  MergeReport merge_report;
  /// Accumulated pre-crash statistics: phase wall times and counters as of
  /// this state.  A resumed run continues these tallies so its final
  /// RunStats covers the whole search, not just the last incarnation.
  RunStats stats;
};

/// Serializes a checkpoint to the full file byte string (header + payload).
std::string encode_checkpoint(const Checkpoint& c);

/// Parses checkpoint file bytes.  Throws Error on truncation, bad magic,
/// unsupported version, CRC mismatch, or trailing garbage.
Checkpoint decode_checkpoint(const std::string& bytes,
                             const ResourceLibrary& lib);

/// Writes the checkpoint crash-safely (atomic_write_file).
void save_checkpoint(const std::string& path, const Checkpoint& c);

/// Reads and validates a checkpoint file.  Throws Error with a diagnosis
/// (missing file, truncated, corrupt, version/format mismatch).
Checkpoint load_checkpoint(const std::string& path,
                           const ResourceLibrary& lib);

/// Throws Error unless the checkpoint's fingerprint matches `expected` —
/// resuming under a different specification or parameters would silently
/// produce an architecture belonging to neither run.
void check_spec_hash(const Checkpoint& c, std::uint64_t expected);

/// Integrity summary of a checkpoint file, verified without materializing
/// the architecture (no ResourceLibrary needed): header fields plus the
/// leading payload fields.  The daemon's restart recovery uses this to
/// decide resume-vs-fresh for every spooled job before paying for a full
/// decode inside a worker.
struct CheckpointInfo {
  std::uint32_t version = 0;
  Stage stage = Stage::Allocation;
  std::uint64_t spec_hash = 0;
  std::uint64_t payload_bytes = 0;
};

/// Reads and integrity-checks a checkpoint file (magic, version, length,
/// CRC) and returns the summary above.  Throws the same typed Errors as
/// load_checkpoint on truncation/corruption/version mismatch.
CheckpointInfo peek_checkpoint(const std::string& path);

}  // namespace crusade::ckpt
