#include "ckpt/checkpoint.hpp"

#include "ckpt/serialize.hpp"
#include "util/atomic_file.hpp"
#include "util/disk_format.hpp"
#include "util/error.hpp"

namespace crusade::ckpt {

namespace {

constexpr char kMagic[4] = {'C', 'K', 'P', 'T'};
constexpr std::size_t kHeaderBytes = diskfmt::kHeaderBytes;

/// Serializes the checkpoint payload (everything after the framed header).
std::string checkpoint_payload(const Checkpoint& c) {
  BinWriter payload;
  payload.u8(static_cast<std::uint8_t>(c.stage));
  payload.u64(c.spec_hash);
  write_architecture(payload, c.arch);
  payload.vec_u8(c.placed);
  payload.i64(c.sched_evals);
  payload.i32(c.clusters_with_misses);
  payload.i64(c.committed.tardiness);
  payload.i64(c.committed.estimate);
  payload.i32(c.committed.failures);
  write_merge_report(payload, c.merge_report);
  write_run_stats(payload, c.stats);
  return payload.bytes();
}

}  // namespace

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::Allocation: return "allocation";
    case Stage::Merge: return "merge";
    case Stage::MergeDone: return "merge-done";
  }
  return "?";
}

std::string encode_checkpoint(const Checkpoint& c) {
  // diskfmt::frame writes the identical magic/version/CRC/length header the
  // hand-rolled encoder always produced — ckpt_test pins the bytes.
  return diskfmt::frame(kMagic, kCheckpointVersion, checkpoint_payload(c));
}

Checkpoint decode_checkpoint(const std::string& bytes,
                             const ResourceLibrary& lib) {
  if (bytes.size() < kHeaderBytes)
    throw Error("checkpoint truncated: " + std::to_string(bytes.size()) +
                " bytes is shorter than the header");
  BinReader header(bytes);
  for (char m : kMagic)
    if (static_cast<char>(header.u8()) != m)
      throw Error("not a checkpoint file (bad magic)");
  const std::uint32_t version = header.u32();
  if (version != kCheckpointVersion)
    throw Error("unsupported checkpoint version " + std::to_string(version) +
                " (this build reads version " +
                std::to_string(kCheckpointVersion) + ")");
  const std::uint32_t stored_crc = header.u32();
  const std::uint64_t payload_len = header.u64();
  if (bytes.size() != kHeaderBytes + payload_len)
    throw Error("checkpoint truncated: header declares " +
                std::to_string(payload_len) + " payload bytes, file has " +
                std::to_string(bytes.size() - kHeaderBytes));
  const std::string payload = bytes.substr(kHeaderBytes);
  if (crc32(payload) != stored_crc)
    throw Error("checkpoint corrupt: payload CRC mismatch");

  BinReader r(payload);
  Checkpoint c;
  const std::uint8_t stage = r.u8();
  if (stage > static_cast<std::uint8_t>(Stage::MergeDone))
    throw Error("checkpoint corrupt: unknown stage " + std::to_string(stage));
  c.stage = static_cast<Stage>(stage);
  c.spec_hash = r.u64();
  c.arch = read_architecture(r, lib);
  c.placed = r.vec_u8();
  c.sched_evals = r.i64();
  c.clusters_with_misses = r.i32();
  c.committed.tardiness = r.i64();
  c.committed.estimate = r.i64();
  c.committed.failures = r.i32();
  c.merge_report = read_merge_report(r);
  c.stats = read_run_stats(r);
  if (!r.at_end())
    throw Error("checkpoint corrupt: trailing bytes after payload");
  return c;
}

void save_checkpoint(const std::string& path, const Checkpoint& c) {
  diskfmt::write_framed_file(path, kMagic, kCheckpointVersion,
                             checkpoint_payload(c));
}

Checkpoint load_checkpoint(const std::string& path,
                           const ResourceLibrary& lib) {
  std::string bytes;
  try {
    bytes = read_file(path);
  } catch (const Error& e) {
    throw Error("cannot read checkpoint: " + std::string(e.what()));
  }
  try {
    return decode_checkpoint(bytes, lib);
  } catch (const Error& e) {
    throw Error("checkpoint file " + path + ": " + std::string(e.what()));
  }
}

CheckpointInfo peek_checkpoint(const std::string& path) {
  std::string bytes;
  try {
    bytes = read_file(path);
  } catch (const Error& e) {
    throw Error("cannot read checkpoint: " + std::string(e.what()));
  }
  if (bytes.size() < kHeaderBytes)
    throw Error("checkpoint file " + path + ": truncated: " +
                std::to_string(bytes.size()) +
                " bytes is shorter than the header");
  BinReader header(bytes);
  for (char m : kMagic)
    if (static_cast<char>(header.u8()) != m)
      throw Error("checkpoint file " + path +
                  ": not a checkpoint file (bad magic)");
  CheckpointInfo info;
  info.version = header.u32();
  if (info.version != kCheckpointVersion)
    throw Error("checkpoint file " + path + ": unsupported version " +
                std::to_string(info.version));
  const std::uint32_t stored_crc = header.u32();
  info.payload_bytes = header.u64();
  if (bytes.size() != kHeaderBytes + info.payload_bytes)
    throw Error("checkpoint file " + path + ": truncated: header declares " +
                std::to_string(info.payload_bytes) +
                " payload bytes, file has " +
                std::to_string(bytes.size() - kHeaderBytes));
  const std::string payload = bytes.substr(kHeaderBytes);
  if (crc32(payload) != stored_crc)
    throw Error("checkpoint file " + path + ": corrupt: payload CRC mismatch");
  BinReader r(payload);
  const std::uint8_t stage = r.u8();
  if (stage > static_cast<std::uint8_t>(Stage::MergeDone))
    throw Error("checkpoint file " + path + ": corrupt: unknown stage " +
                std::to_string(stage));
  info.stage = static_cast<Stage>(stage);
  info.spec_hash = r.u64();
  return info;
}

void check_spec_hash(const Checkpoint& c, std::uint64_t expected) {
  if (c.spec_hash != expected)
    throw Error(
        "checkpoint does not belong to this run: specification/parameter "
        "fingerprint mismatch (refusing to resume a different search)");
}

}  // namespace crusade::ckpt
