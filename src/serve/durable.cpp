#include "serve/durable.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>

#include "ckpt/serialize.hpp"
#include "util/atomic_file.hpp"
#include "util/disk_format.hpp"
#include "util/error.hpp"
#include "util/io_faults.hpp"
#include "util/json_writer.hpp"

namespace crusade::serve {

namespace {

/// Journal file header: magic + version, nothing else — records carry
/// their own CRCs, so the header only has to name the format.
constexpr std::size_t kJournalHeaderBytes = 4 + 4;
/// Per-record frame: u32 payload length + u32 payload CRC.
constexpr std::size_t kRecordFrameBytes = 4 + 4;
/// v1 records are fixed-layout; anything larger is not ours.
constexpr std::uint32_t kMaxRecordBytes = 256;

std::uint32_t get_u32le(const std::string& in, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(in[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

std::string journal_header() {
  ckpt::BinWriter w;
  w.u8(static_cast<std::uint8_t>(kJournalMagic[0]));
  w.u8(static_cast<std::uint8_t>(kJournalMagic[1]));
  w.u8(static_cast<std::uint8_t>(kJournalMagic[2]));
  w.u8(static_cast<std::uint8_t>(kJournalMagic[3]));
  w.u32(kJournalVersion);
  return w.bytes();
}

std::string record_payload(const JournalRecord& r) {
  ckpt::BinWriter w;
  w.u8(static_cast<std::uint8_t>(r.type));
  w.u64(r.id);
  w.u32(r.attempt);
  w.u8(r.kind);
  w.u8(r.outcome);
  w.u32(r.attempts);
  w.u64(r.spec_fnv);
  w.u64(r.result_fnv);
  return w.bytes();
}

std::string frame_record(const JournalRecord& r) {
  const std::string payload = record_payload(r);
  ckpt::BinWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(diskfmt::crc32(payload));
  std::string out = w.bytes();
  out += payload;
  return out;
}

/// Parses one CRC-checked payload.  Returns false when the bytes are not a
/// well-formed v1 record (replay stops there: version drift is treated
/// exactly like a torn tail — never guessed at).
bool parse_record(const std::string& payload, JournalRecord* out) {
  try {
    ckpt::BinReader r(payload);
    const std::uint8_t type = r.u8();
    if (type < static_cast<std::uint8_t>(JournalRecordType::Admitted) ||
        type > static_cast<std::uint8_t>(JournalRecordType::ResultEvicted))
      return false;
    out->type = static_cast<JournalRecordType>(type);
    out->id = r.u64();
    out->attempt = r.u32();
    out->kind = r.u8();
    out->outcome = r.u8();
    out->attempts = r.u32();
    out->spec_fnv = r.u64();
    out->result_fnv = r.u64();
    return r.at_end();
  } catch (const Error&) {
    return false;
  }
}

/// write(2) the whole buffer through the fault seam, retrying EINTR and
/// short writes.  Returns false (errno set) on any hard failure.
bool append_fd(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        iofault::xwrite(fd, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

const char* to_string(JournalRecordType type) {
  switch (type) {
    case JournalRecordType::Admitted: return "admitted";
    case JournalRecordType::AttemptStarted: return "attempt-started";
    case JournalRecordType::Terminal: return "terminal";
    case JournalRecordType::ResultEvicted: return "result-evicted";
  }
  return "?";
}

// --- durable results ------------------------------------------------------

std::string encode_durable_result(const DurableResult& r) {
  ckpt::BinWriter w;
  w.u64(r.id);
  w.u8(static_cast<std::uint8_t>(r.kind));
  w.u8(static_cast<std::uint8_t>(r.outcome));
  w.i32(r.priority);
  w.i32(r.attempts);
  w.u8(r.cached ? 1 : 0);
  w.i32(r.finish_seq);
  w.i64(r.wait_ms);
  w.i64(r.run_ms);
  w.str(r.detail);
  w.str(r.body);
  w.u64(r.history.size());
  for (const AttemptRecord& a : r.history) {
    w.i32(a.attempt);
    w.i64(a.start_ms);
    w.i64(a.end_ms);
    w.str(a.fate);
    w.u64(a.crash_span_stack.size());
    for (const std::string& span : a.crash_span_stack) w.str(span);
    w.u64(a.crash_counters.size());
    for (const auto& [name, value] : a.crash_counters) {
      w.str(name);
      w.i64(value);
    }
  }
  return w.bytes();
}

DurableResult decode_durable_result(const std::string& payload) {
  ckpt::BinReader r(payload);
  DurableResult out;
  out.id = r.u64();
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(JobKind::Survive))
    throw Error("durable result: unknown job kind " + std::to_string(kind));
  out.kind = static_cast<JobKind>(kind);
  const std::uint8_t outcome = r.u8();
  if (outcome > static_cast<std::uint8_t>(JobOutcome::Cancelled))
    throw Error("durable result: unknown outcome " + std::to_string(outcome));
  out.outcome = static_cast<JobOutcome>(outcome);
  out.priority = r.i32();
  out.attempts = r.i32();
  out.cached = r.u8() != 0;
  out.finish_seq = r.i32();
  out.wait_ms = static_cast<long>(r.i64());
  out.run_ms = static_cast<long>(r.i64());
  out.detail = r.str();
  out.body = r.str();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    AttemptRecord a;
    a.attempt = r.i32();
    a.start_ms = static_cast<long>(r.i64());
    a.end_ms = static_cast<long>(r.i64());
    a.fate = r.str();
    const std::uint64_t spans = r.u64();
    for (std::uint64_t s = 0; s < spans; ++s)
      a.crash_span_stack.push_back(r.str());
    const std::uint64_t counters = r.u64();
    for (std::uint64_t c = 0; c < counters; ++c) {
      const std::string name = r.str();
      const long long value = r.i64();
      a.crash_counters.emplace_back(name, value);
    }
    out.history.push_back(std::move(a));
  }
  if (!r.at_end())
    throw Error("durable result: trailing bytes after payload");
  return out;
}

std::string failure_body(JobKind kind, const char* error_class,
                         const std::string& message, int attempts) {
  tools::JsonWriter w;
  w.begin_object()
      .key("kind").value(to_string(kind))
      .key("error").value(message)
      .key("error_class").value(error_class)
      .key("attempts").value(attempts)
      .end_object();
  return w.str();
}

// --- journal --------------------------------------------------------------

JournalRecord admitted_record(std::uint64_t id, const SubmitRequest& request) {
  JournalRecord rec;
  rec.type = JournalRecordType::Admitted;
  rec.id = id;
  rec.kind = static_cast<std::uint8_t>(request.kind);
  rec.spec_fnv = ckpt::fnv1a(request.spec_text);
  return rec;
}

JournalRecord terminal_record(const DurableResult& r,
                              std::uint64_t result_fnv) {
  JournalRecord rec;
  rec.type = JournalRecordType::Terminal;
  rec.id = r.id;
  rec.kind = static_cast<std::uint8_t>(r.kind);
  rec.outcome = static_cast<std::uint8_t>(r.outcome);
  rec.attempts = static_cast<std::uint32_t>(r.attempts < 0 ? 0 : r.attempts);
  rec.result_fnv = result_fnv;
  return rec;
}

Journal::~Journal() { close(); }

bool Journal::open(const std::string& path) {
  util::MutexLock lk(mu_);
  if (fd_ >= 0) return true;
  const int fd =
      iofault::xopen(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return false;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    (void)iofault::xclose(fd);
    return false;
  }
  if (st.st_size == 0) {
    if (!append_fd(fd, journal_header()) || iofault::xfsync(fd) != 0) {
      // A header we could not make durable is not a journal; the service
      // runs journal-less this incarnation and fsck rebuilds at next boot.
      (void)iofault::xclose(fd);
      return false;
    }
    bytes_ = kJournalHeaderBytes;
  } else {
    bytes_ = static_cast<std::uint64_t>(st.st_size);
  }
  fd_ = fd;
  return true;
}

void Journal::close() {
  util::MutexLock lk(mu_);
  if (fd_ >= 0) {
    (void)iofault::xclose(fd_);
    fd_ = -1;
  }
}

bool Journal::is_open() const {
  util::MutexLock lk(mu_);
  return fd_ >= 0;
}

std::uint64_t Journal::append(const JournalRecord& record) {
  util::MutexLock lk(mu_);
  if (fd_ < 0) {
    ++failures_;
    return 0;
  }
  const std::string bytes = frame_record(record);
  if (!append_fd(fd_, bytes) || iofault::xfsync(fd_) != 0) {
    // A partial append leaves a torn tail that replay detects and fsck
    // truncates; the record itself is simply not durable.
    ++failures_;
    struct stat st;
    if (::fstat(fd_, &st) == 0)
      bytes_ = static_cast<std::uint64_t>(st.st_size);
    return 0;
  }
  bytes_ += bytes.size();
  return bytes_;
}

std::uint64_t Journal::append_failures() const {
  util::MutexLock lk(mu_);
  return failures_;
}

JournalReplay Journal::replay(const std::string& path) {
  JournalReplay out;
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    out.missing = true;
    return out;
  }
  std::string bytes;
  try {
    bytes = read_file(path);
  } catch (const IoError& e) {
    out.read_error = e.what();
    return out;
  }
  if (bytes.size() < kJournalHeaderBytes ||
      bytes.compare(0, 4, kJournalMagic, 4) != 0) {
    out.header_error = "journal header: bad magic";
    return out;
  }
  const std::uint32_t version = get_u32le(bytes, 4);
  if (version != kJournalVersion) {
    out.header_error =
        "journal header: unsupported version " + std::to_string(version);
    return out;
  }
  std::size_t pos = kJournalHeaderBytes;
  out.valid_bytes = pos;
  while (pos + kRecordFrameBytes <= bytes.size()) {
    const std::uint32_t len = get_u32le(bytes, pos);
    const std::uint32_t crc = get_u32le(bytes, pos + 4);
    if (len > kMaxRecordBytes ||
        pos + kRecordFrameBytes + len > bytes.size())
      break;  // torn mid-append
    const std::string payload = bytes.substr(pos + kRecordFrameBytes, len);
    if (diskfmt::crc32(payload) != crc) break;  // torn payload
    JournalRecord rec;
    if (!parse_record(payload, &rec)) break;  // version drift: stop, no guess
    out.records.push_back(rec);
    pos += kRecordFrameBytes + len;
    out.valid_bytes = pos;
  }
  out.torn_tail = out.valid_bytes < bytes.size();
  return out;
}

bool Journal::truncate_tail(const std::string& path,
                            std::uint64_t valid_bytes) {
  const int fd = iofault::xopen(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) return false;
  const bool ok =
      iofault::xftruncate(fd, static_cast<long long>(valid_bytes)) == 0 &&
      iofault::xfsync(fd) == 0;
  (void)iofault::xclose(fd);
  return ok;
}

bool Journal::rewrite(const std::string& path,
                      const std::vector<JournalRecord>& records) {
  std::string bytes = journal_header();
  for (const JournalRecord& rec : records) bytes += frame_record(rec);
  // Hand-rolled temp + fsync + rename (not atomic_write_file: the journal
  // is its own CRC-framed format, and every byte here already went through
  // frame_record).  Same crash-safety contract.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd =
      iofault::xopen(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  if (!append_fd(fd, bytes) || iofault::xfsync(fd) != 0) {
    (void)iofault::xclose(fd);
    (void)iofault::xunlink(tmp.c_str());
    return false;
  }
  if (iofault::xclose(fd) != 0) {
    (void)iofault::xunlink(tmp.c_str());
    return false;
  }
  if (iofault::xrename(tmp.c_str(), path.c_str()) != 0) {
    (void)iofault::xunlink(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace crusade::serve
