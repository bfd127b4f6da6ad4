#include "serve/fsck.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

#include "ckpt/serialize.hpp"
#include "serve/durable.hpp"
#include "serve/protocol.hpp"
#include "util/atomic_file.hpp"
#include "util/disk_format.hpp"
#include "util/error.hpp"
#include "util/io_faults.hpp"
#include "util/json_writer.hpp"

namespace crusade::serve {

namespace {

std::vector<std::string> scan_dir(const std::string& path) {
  std::vector<std::string> names;
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return names;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

void make_dir_quiet(const std::string& path) {
  (void)::mkdir(path.c_str(), 0755);
}

long long file_size(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<long long>(st.st_size);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// "123.job" -> 123; 0 when the name does not start with a positive number.
std::uint64_t leading_id(const std::string& name) {
  if (name.empty() || name[0] < '0' || name[0] > '9') return 0;
  return std::strtoull(name.c_str(), nullptr, 10);
}

bool is_hex16_res(const std::string& name) {
  if (name.size() != 20 || name.substr(16) != ".res") return false;
  for (std::size_t i = 0; i < 16; ++i) {
    const char c = name[i];
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return false;
  }
  return true;
}

/// Journal-visible lifecycle of one job id, folded from replay.
struct JournalState {
  bool admitted = false;
  bool terminal = false;
  bool evicted = false;
  JournalRecord term;  ///< last Terminal record (kind/outcome/fnv)
  std::uint8_t kind = 0;
};

/// Stateful helper so every repair records its outcome uniformly and a
/// chaos-refused repair degrades to "repair-failed", never a throw.
class Scrub {
 public:
  Scrub(std::string spool, bool repair, FsckReport* report)
      : spool_(std::move(spool)), repair_(repair), report_(report) {}

  const std::string& spool() const { return spool_; }
  bool repairing() const { return repair_; }

  FsckItem& add(FsckFinding finding, std::uint64_t id,
                const std::string& path) {
    FsckItem item;
    item.finding = finding;
    item.id = id;
    item.path = path;
    item.bytes = file_size(path);
    item.action = "detected";
    report_->items.push_back(std::move(item));
    return report_->items.back();
  }

  void did_repair(FsckItem& item, const std::string& action) {
    item.action = action;
    ++report_->repairs;
  }

  void failed(FsckItem& item, const std::string& what) {
    item.action = "repair-failed: " + what;
    ++report_->repair_failures;
  }

  /// rename aside as evidence; true when the rename stuck.
  bool quarantine(FsckItem& item) {
    if (!repair_) return false;
    const std::string to = item.path + ".corrupt";
    if (iofault::xrename(item.path.c_str(), to.c_str()) == 0) {
      did_repair(item, "quarantined");
      ++report_->quarantines;
      return true;
    }
    failed(item, "rename to " + to + ": " + errno_message(errno));
    return false;
  }

  /// A read that failed is not evidence of corruption: the file stays as
  /// it is, and the scrub reports itself incomplete.
  void unreadable(std::uint64_t id, const std::string& path,
                  const std::string& why) {
    failed(add(FsckFinding::Unreadable, id, path), why);
  }

  bool remove(FsckItem& item) {
    if (!repair_) return false;
    if (iofault::xunlink(item.path.c_str()) == 0 || errno == ENOENT) {
      did_repair(item, "removed");
      return true;
    }
    failed(item, "unlink: " + errno_message(errno));
    return false;
  }

 private:
  std::string spool_;
  bool repair_;
  FsckReport* report_;
};

}  // namespace

const char* to_string(FsckFinding finding) {
  switch (finding) {
    case FsckFinding::TornJournalTail: return "torn-journal-tail";
    case FsckFinding::CorruptJournal: return "corrupt-journal";
    case FsckFinding::CorruptSpoolEntry: return "corrupt-spool-entry";
    case FsckFinding::OrphanSpoolEntry: return "orphan-spool-entry";
    case FsckFinding::StaleSpoolEntry: return "stale-spool-entry";
    case FsckFinding::CorruptResult: return "corrupt-result";
    case FsckFinding::OrphanResult: return "orphan-result";
    case FsckFinding::MissingResult: return "missing-result";
    case FsckFinding::LostSpoolEntry: return "lost-spool-entry";
    case FsckFinding::CorruptCacheEntry: return "corrupt-cache-entry";
    case FsckFinding::TempDebris: return "temp-debris";
    case FsckFinding::LedgerDrift: return "ledger-drift";
    case FsckFinding::Unreadable: return "unreadable";
  }
  return "?";
}

int FsckReport::count(FsckFinding finding) const {
  int n = 0;
  for (const FsckItem& item : items)
    if (item.finding == finding) ++n;
  return n;
}

std::string FsckReport::to_json() const {
  tools::JsonWriter w;
  w.begin_object()
      .key("clean").value(clean())
      .key("findings").value(static_cast<long long>(items.size()))
      .key("repairs").value(repairs)
      .key("quarantines").value(quarantines)
      .key("repair_failures").value(repair_failures)
      .key("journal_records").value(static_cast<long long>(journal_records))
      .key("disk_bytes").value(disk_bytes)
      .key("counts").begin_object();
  for (unsigned f = 0; f < kFsckFindingCount; ++f) {
    const FsckFinding finding = static_cast<FsckFinding>(f);
    const int n = count(finding);
    if (n > 0) w.key(to_string(finding)).value(n);
  }
  w.end_object().key("items").begin_array();
  for (const FsckItem& item : items) {
    w.begin_object()
        .key("finding").value(to_string(item.finding))
        .key("id").value(static_cast<unsigned long long>(item.id))
        .key("path").value(item.path)
        .key("action").value(item.action)
        .key("bytes").value(item.bytes)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

FsckReport fsck_spool(const std::string& spool_dir, bool repair,
                      SpoolImage* live) {
  FsckReport report;
  Scrub scrub(spool_dir, repair, &report);
  make_dir_quiet(spool_dir);
  const std::string jobs_dir = spool_dir + "/jobs";
  const std::string cache_dir = spool_dir + "/cache";
  const std::string results_dir = spool_dir + "/results";
  const std::string journal_dir = spool_dir + "/journal";
  for (const std::string& dir :
       {jobs_dir, cache_dir, results_dir, journal_dir})
    make_dir_quiet(dir);
  const std::string journal_path = journal_dir + "/wal";
  std::uint64_t max_id = 0;

  // --- 1. journal: replay the valid prefix, repair the tail -------------
  JournalReplay replayed = Journal::replay(journal_path);
  report.journal_records = replayed.records.size();
  // Every orphan, stale-by-journal and tombstone verdict below trusts the
  // journal; a journal that could not be read vouches for nothing.
  const bool journal_known = replayed.read_error.empty();
  if (!journal_known) {
    scrub.unreadable(0, journal_path, replayed.read_error);
  } else if (!replayed.missing && !replayed.header_error.empty()) {
    FsckItem& item =
        scrub.add(FsckFinding::CorruptJournal, 0, journal_path);
    item.action = "detected: " + replayed.header_error;
    if (repair) {
      if (Journal::rewrite(journal_path, {}))
        scrub.did_repair(item, "rebuilt empty (spool + results re-adopted "
                               "below)");
      else
        scrub.failed(item, "rewrite: " + errno_message(errno));
    }
    replayed.records.clear();
  } else if (replayed.torn_tail) {
    FsckItem& item =
        scrub.add(FsckFinding::TornJournalTail, 0, journal_path);
    if (repair) {
      if (Journal::truncate_tail(journal_path, replayed.valid_bytes))
        scrub.did_repair(item, "truncated at byte " +
                                   std::to_string(replayed.valid_bytes));
      else
        scrub.failed(item, "truncate: " + errno_message(errno));
    }
  }

  std::map<std::uint64_t, JournalState> journal_state;
  for (const JournalRecord& rec : replayed.records) {
    JournalState& state = journal_state[rec.id];
    switch (rec.type) {
      case JournalRecordType::Admitted:
        state.admitted = true;
        state.kind = rec.kind;
        break;
      case JournalRecordType::AttemptStarted:
        break;
      case JournalRecordType::Terminal:
        state.terminal = true;
        state.evicted = false;
        state.term = rec;
        state.kind = rec.kind;
        break;
      case JournalRecordType::ResultEvicted:
        state.evicted = true;
        break;
    }
  }

  // Records fsck itself must append (adoptions, tombstone terminals).
  std::vector<JournalRecord> adoptions;
  // Ids whose result or spool file could not be read (never tombstoned) or
  // whose tombstone could not be written: their journal records outlive
  // compaction (SpoolImage::unsettled).
  std::set<std::uint64_t> unsettled;

  // --- 2. durable results: CRC + journal fingerprint --------------------
  std::set<std::uint64_t> valid_results;
  for (const std::string& name : scan_dir(results_dir)) {
    if (!ends_with(name, ".res")) continue;
    const std::uint64_t id = leading_id(name);
    const std::string path = results_dir + "/" + name;
    if (id == 0) continue;  // classified by the recount sweep below
    max_id = std::max(max_id, id);
    std::string raw;
    try {
      raw = read_file(path);
    } catch (const IoError& e) {
      unsettled.insert(id);
      scrub.unreadable(id, path, e.what());
      continue;
    }
    bool whole = false;
    DurableResult result;
    try {
      result = decode_durable_result(
          diskfmt::unframe(raw, kDurableResultMagic, kDurableResultVersion)
              .payload);
      whole = result.id == id && valid_results.count(id) == 0;
    } catch (const Error&) {
      whole = false;
    }
    const auto js = journal_state.find(id);
    const bool have_terminal = js != journal_state.end() && js->second.terminal;
    if (!whole) {
      FsckItem& item = scrub.add(FsckFinding::CorruptResult, id, path);
      scrub.quarantine(item);
      continue;
    }
    const std::uint64_t fnv = ckpt::fnv1a(raw);
    if (have_terminal && js->second.term.result_fnv != 0 &&
        js->second.term.result_fnv != fnv) {
      FsckItem& item = scrub.add(FsckFinding::CorruptResult, id, path);
      item.action = "detected: journal fingerprint mismatch";
      scrub.quarantine(item);
      continue;
    }
    valid_results.insert(id);
    if (!have_terminal && journal_known) {
      // The result file is the truth the journal lost (crash between the
      // result write and the terminal append): adopt it.
      FsckItem& item = scrub.add(FsckFinding::OrphanResult, id, path);
      if (repair) {
        adoptions.push_back(terminal_record(result, fnv));
        scrub.did_repair(item, "adopted");
      }
      JournalState& state = journal_state[id];
      state.terminal = true;
      state.evicted = false;
      state.kind = static_cast<std::uint8_t>(result.kind);
    }
    if (live != nullptr) live->results.push_back({std::move(result), fnv});
  }

  // --- 3. job spool: frame validity, staleness, journal membership ------
  std::set<std::uint64_t> live_jobs;
  for (const std::string& name : scan_dir(jobs_dir)) {
    if (!ends_with(name, ".job")) continue;
    const std::string path = jobs_dir + "/" + name;
    max_id = std::max(max_id, leading_id(name));
    std::string raw;
    try {
      raw = read_file(path);
    } catch (const IoError& e) {
      unsettled.insert(leading_id(name));
      scrub.unreadable(leading_id(name), path, e.what());
      continue;
    }
    std::uint64_t id = 0;
    SubmitRequest request;
    try {
      const Request frame = decode_frame(
          diskfmt::unframe(raw, kSpoolJobMagic, kSpoolJobVersion).payload);
      if (frame.verb != "JOB") throw Error("spool: not a JOB frame");
      id = static_cast<std::uint64_t>(frame.get_long("id"));
      if (id == 0 || live_jobs.count(id) != 0)
        throw Error("spool: bad or duplicate id");
      request = parse_submit_request(frame);
    } catch (const Error&) {
      FsckItem& item = scrub.add(FsckFinding::CorruptSpoolEntry, id, path);
      scrub.quarantine(item);
      continue;
    }
    if (unsettled.count(id) != 0) continue;  // its result may be on disk
    if (valid_results.count(id) != 0 ||
        (journal_state.count(id) != 0 && journal_state[id].terminal)) {
      // The job already finished; a leftover frame re-admitted would
      // execute it a second time.
      FsckItem& item = scrub.add(FsckFinding::StaleSpoolEntry, id, path);
      if (scrub.remove(item)) {
        // Its worker scratch is stale with it (telemetry stays: traces of
        // retained terminal jobs are queryable on purpose).
        const std::string stem = jobs_dir + "/" + std::to_string(id);
        (void)iofault::xunlink((stem + ".ckpt").c_str());
        (void)iofault::xunlink((stem + ".result").c_str());
      }
      continue;
    }
    live_jobs.insert(id);
    max_id = std::max(max_id, id);
    if (journal_known &&
        (journal_state.count(id) == 0 || !journal_state[id].admitted)) {
      FsckItem& item = scrub.add(FsckFinding::OrphanSpoolEntry, id, path);
      if (repair) {
        adoptions.push_back(admitted_record(id, request));
        scrub.did_repair(item, "adopted");
      }
      journal_state[id].admitted = true;
    }
    if (live != nullptr) live->jobs.push_back({id, std::move(request)});
  }

  // --- 4. journal promises with nothing behind them ---------------------
  // An honest tombstone beats both silence and fabrication; it is written
  // like any durable result and handed over with the valid ones.
  const auto write_tombstone = [&](FsckItem& item, JobKind kind,
                                   const char* error_class,
                                   std::string detail, int attempts) {
    DurableResult tomb;
    tomb.id = item.id;
    tomb.kind = kind;
    tomb.outcome = JobOutcome::FailedHonest;
    tomb.attempts = attempts;
    tomb.body = failure_body(kind, error_class, detail, attempts);
    tomb.detail = std::move(detail);
    std::uint64_t fnv = 0;
    try {
      fnv = ckpt::fnv1a(diskfmt::write_framed_file(
          item.path, kDurableResultMagic, kDurableResultVersion,
          encode_durable_result(tomb)));
    } catch (const Error& e) {
      scrub.failed(item, e.what());
      unsettled.insert(tomb.id);
      return;
    }
    scrub.did_repair(item, "tombstone");
    valid_results.insert(tomb.id);
    adoptions.push_back(terminal_record(tomb, fnv));
    if (live != nullptr) live->results.push_back({std::move(tomb), fnv});
  };
  for (auto& [id, state] : journal_state) {
    if (unsettled.count(id) != 0) continue;
    // The raw journal byte may name a kind this build does not know.
    const JobKind kind =
        state.kind <= static_cast<std::uint8_t>(JobKind::Survive)
            ? static_cast<JobKind>(state.kind)
            : JobKind::Run;
    const std::string path = results_dir + "/" + std::to_string(id) + ".res";
    if (state.terminal && !state.evicted && valid_results.count(id) == 0) {
      // The terminal bytes are gone (lost write, quarantined above).
      FsckItem& item = scrub.add(FsckFinding::MissingResult, id, path);
      if (repair) {
        const JobOutcome outcome =
            state.term.outcome <=
                    static_cast<std::uint8_t>(JobOutcome::Cancelled)
                ? static_cast<JobOutcome>(state.term.outcome)
                : JobOutcome::None;
        write_tombstone(
            item, kind, "fsck-result-lost",
            std::string("durable result lost; journal recorded outcome \"") +
                to_string(outcome) +
                "\" but the result file is gone (tombstone written by fsck)",
            static_cast<int>(state.term.attempts));
      }
    } else if (state.admitted && !state.terminal &&
               live_jobs.count(id) == 0 && valid_results.count(id) == 0) {
      // Admitted, never finished, and the spool frame is gone (torn write
      // quarantined, or injected unlink ate it): the work is lost and the
      // client deserves to hear that from status(), not a not-found.
      FsckItem& item = scrub.add(FsckFinding::LostSpoolEntry, id, path);
      if (repair)
        write_tombstone(
            item, kind, "fsck-lost-job",
            "spool entry lost before execution (quarantined or missing); "
            "failed-honest tombstone written by fsck",
            0);
    }
  }

  // --- 5. result cache: advisory, so corrupt entries are just removed ---
  for (const std::string& name : scan_dir(cache_dir)) {
    if (!is_hex16_res(name)) continue;
    const std::string path = cache_dir + "/" + name;
    std::string raw;
    try {
      raw = read_file(path);
    } catch (const IoError& e) {
      scrub.unreadable(0, path, e.what());
      continue;
    }
    try {
      const diskfmt::Unframed entry =
          diskfmt::unframe(raw, kCacheEntryMagic, kCacheEntryVersion);
      ckpt::BinReader r(entry.payload);
      const long long cost_ms = static_cast<long long>(r.u64());
      std::string body = r.str();
      if (!r.at_end()) throw Error("cache entry: trailing bytes");
      if (live != nullptr)
        live->cache.push_back(
            {std::strtoull(name.substr(0, 16).c_str(), nullptr, 16), cost_ms,
             std::move(body)});
    } catch (const Error&) {
      FsckItem& item = scrub.add(FsckFinding::CorruptCacheEntry, 0, path);
      scrub.remove(item);
    }
  }

  // --- 6. append the adopted truths to the (repaired) journal -----------
  if (repair && !adoptions.empty()) {
    Journal journal;
    if (journal.open(journal_path)) {
      for (const JournalRecord& rec : adoptions)
        if (journal.append(rec) == 0) {
          FsckItem& item =
              scrub.add(FsckFinding::CorruptJournal, rec.id, journal_path);
          scrub.failed(item, "adoption append");
        }
    }
  }

  // --- 7. debris + recount: every byte classified, the rest flagged -----
  const auto classify_dir = [&](const std::string& dir,
                                auto&& attributable) {
    for (const std::string& name : scan_dir(dir)) {
      const std::string path = dir + "/" + name;
      struct stat st;
      if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
      SpoolImage::File file{path, static_cast<long long>(st.st_size),
                            static_cast<long long>(st.st_mtime), false};
      if (name.find(".tmp.") != std::string::npos) {
        FsckItem& item = scrub.add(FsckFinding::TempDebris, 0, path);
        if (scrub.remove(item)) continue;
      } else if (!attributable(name)) {
        FsckItem& item = scrub.add(FsckFinding::LedgerDrift, 0, path);
        item.action = "charged";
        file.drift = true;
      }
      report.disk_bytes += file.bytes;
      if (live != nullptr) live->files.push_back(std::move(file));
    }
  };
  classify_dir(jobs_dir, [](const std::string& name) {
    return leading_id(name) != 0;
  });
  classify_dir(results_dir, [](const std::string& name) {
    return leading_id(name) != 0;
  });
  classify_dir(cache_dir, [](const std::string& name) {
    return is_hex16_res(name) ||
           (ends_with(name, ".corrupt") &&
            is_hex16_res(name.substr(0, name.size() - 8)));
  });
  classify_dir(journal_dir, [](const std::string& name) {
    return name == "wal";
  });
  classify_dir(spool_dir, [](const std::string&) { return false; });

  if (live != nullptr) {
    // The journal names ids no file does any more: tombstones written above,
    // results whose write failed, evicted ones.
    if (!journal_state.empty())
      max_id = std::max(max_id, journal_state.rbegin()->first);
    live->max_id = max_id;
    live->journal_known = journal_known;
    for (const JournalRecord& rec : replayed.records)
      if (unsettled.count(rec.id) != 0 && valid_results.count(rec.id) == 0)
        live->unsettled.push_back(rec);
  }
  return report;
}

}  // namespace crusade::serve
