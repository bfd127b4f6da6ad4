// CRUSADE benchmark program: runs one workload per process and prints every
// metric of that workload as the last line of standard output, one JSON
// object.  perfbench/run.py builds this binary from the repository sources
// and invokes it; perfbench/README.md gives the workloads, the metric ->
// layer -> workload map and the known gaps.
//
// Every layer is timed from outside, around calls to its public functions:
// Crusade::run (core), run_list_scheduler and Timeline::earliest_fit
// (sched), serve::Service (serve).  The traced run (--trace 1) additionally
// enables obs and reads the spans the library already records (alloc.*,
// sched.list) to split evaluations by caller and to compute self times.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc/allocation.hpp"
#include "ckpt/serialize.hpp"
#include "core/crusade.hpp"
#include "graph/spec_io.hpp"
#include "obs/obs.hpp"
#include "resources/resource_library.hpp"
#include "sched/scheduler.hpp"
#include "serve/fsck.hpp"
#include "serve/service.hpp"
#include "tgff/profiles.hpp"
#include "util/rng.hpp"

using namespace crusade;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Set-up and restart are repeated, at least kMinRepeats times and until
/// kRepeatSeconds are spent, and their medians reported: one of them takes
/// milliseconds, so a single sample is mostly noise.
constexpr int kMinRepeats = 7;
constexpr double kRepeatSeconds = 2.0;

/// serve-mix offered load: jobs per second of --seconds, Poisson arrivals.
constexpr double kServeRate = 8.0;
/// serve-mix specs with a pinned digest: the distinct specs of a 45-second
/// run (kServeRate * 45 * 3/4).  Longer runs print the rest.
constexpr int kServePinnedSpecs = 270;
/// Kernel replays repeat each spec's call until this much time is spent.
constexpr double kReplaySeconds = 0.2;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// True while another repetition is due.
bool repeat_more(int done, Clock::time_point start) {
  return done < kMinRepeats || (since(start) < kRepeatSeconds && done < 1000);
}

/// Nearest-rank percentile, q in (0,1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Median; the mean of the middle two for an even count.
double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// --- host speed -------------------------------------------------------------

/// Reference work, independent of the library: node-based and hashed
/// containers filled and probed with fixed pseudo-random keys, i.e. the
/// allocation and pointer-chasing mix of a synthesis.  Of the kernels tried
/// (sorting, ALU loops, streaming, array pointer chases, container churn)
/// this mix followed the paper-small passes' slowdowns on a shared VM most
/// closely.
double reference_call() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto t0 = Clock::now();
  std::uint64_t sum = 0;
  {
    std::map<std::uint64_t, std::vector<int>> tree;
    for (int i = 0; i < 20000; ++i) tree[next() % 100000].push_back(i);
    for (const auto& [k, v] : tree) sum += k + v.size();
  }
  {
    std::unordered_map<std::uint64_t, std::uint64_t> hash;
    for (std::uint64_t i = 0; i < 40000; ++i) hash[next() % 200000] += i;
    for (int i = 0; i < 40000; ++i) {
      const auto it = hash.find(next() % 200000);
      if (it != hash.end()) sum += it->second;
    }
  }
  volatile std::uint64_t sink = sum;
  (void)sink;
  return since(t0);
}

/// Host-speed normalisation.  A shared VM's speed drifts by tens of percent
/// within minutes.  One reference call follows each unit of measured work,
/// and a measured time is reported as time * kRefNominalSeconds / (median
/// reference call over the same stretch): the time the work would take on
/// a host where one reference call takes kRefNominalSeconds.  The
/// reference does not depend on src/, so a change to the program moves the
/// normalised time as it moves the raw one.
class HostSpeed {
 public:
  static constexpr double kRefNominalSeconds = 0.010;

  /// One reference call; made after each unit of measured work.
  void sample() {
    const double t = reference_call();
    stretch_.push_back(t);
    all_.push_back(t);
  }

  /// Factor for the work since the previous call of factor(): nominal over
  /// the median reference call of that stretch.
  double factor() {
    const double f = kRefNominalSeconds / median(stretch_);
    stretch_.clear();
    return f;
  }

  /// Median reference call over the whole run, in ms.
  double ref_ms() const { return median(all_) * 1e3; }

 private:
  std::vector<double> stretch_, all_;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- metric catalogue -------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},      {"synth_s", "s"},     {"peak_rss_mb", "MB"},
      {"arch_cost_usd", "USD"},
  };
  return defs;
}

// --- engine workload definitions --------------------------------------------

struct CaseDef {
  std::string name;  ///< stable across seeds; used in golden.txt and metrics
  std::string profile;
  int tasks = 0;
  bool reconfig = true;
};

/// paper-small: all eight paper profiles at 150 tasks, reconfiguration off
/// and on.
std::vector<CaseDef> case_defs() {
  std::vector<CaseDef> defs;
  for (const ExampleProfile& p : paper_profiles())
    for (const bool reconfig : {false, true})
      defs.push_back({p.name + "-150." + (reconfig ? "rc" : "norc"), p.name,
                      150, reconfig});
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    // Job latency and restart time are per-layer, not end-to-end: their
    // run-to-run spread on a shared host exceeds any allowed regression
    // bound (restart time's also after host-speed normalisation).
    std::vector<MetricDef> d = {
        {"job.p50_ms", "ms"},
        {"job.p95_ms", "ms"},
        {"restart_s", "s"},
        {"sched.fit_ns", "ns"},
        {"sched.fit_nofit_share", "ratio"},
        {"sched.list_ms", "ms"},
        {"sched.calls", "count"},
        {"alloc.evals", "count"},
        {"alloc.evals.main", "count"},
        {"alloc.evals.repair", "count"},
        {"alloc.evals.evacuate", "count"},
        {"alloc.eval_ms", "ms"},
        {"alloc.eval_fixed_ms", "ms"},
        {"alloc.repair_s", "s"},
        {"alloc.evacuate_s", "s"},
        {"alloc.enumerate_s", "s"},
        {"alloc.candidates", "count"},
        {"alloc.repair_moves", "count"},
        {"alloc.repair_yield", "ratio"},
    };
    for (const char* phase : {"preflight", "clustering", "allocation",
                              "reconfig", "interface", "repair", "validation"})
      d.push_back({std::string("core.phase.") + phase + "_s", "s"});
    for (const CaseDef& c : case_defs())
      d.push_back({"core.run_s." + c.name, "s"});
    for (MetricDef m : std::vector<MetricDef>{
             {"reconfig.merge_tried", "count"},
             {"reconfig.merge_accepted", "count"},
             {"reconfig.interface_candidates", "count"},
             {"serve.submit_ms", "ms"},
             {"serve.queue_wait_ms.p50", "ms"},
             {"serve.queue_wait_ms.p95", "ms"},
             {"serve.run_ms.p50", "ms"},
             {"serve.run_ms.p95", "ms"},
             {"serve.synth_ms.p50", "ms"},
             {"serve.overhead_ms.p50", "ms"},
             {"serve.cache_hit_share", "ratio"},
             {"serve.cache_hit_ms", "ms"},
             {"serve.rejected_busy", "count"},
             {"serve.retries", "count"},
             {"serve.crashes", "count"},
             {"serve.fsck_ms", "ms"},
             {"loadgen.lag_p95_ms", "ms"},
             {"trace.overhead_pct", "%"},
             {"host.ref_ms", "ms"},
             {"host.synth_wall_s", "s"},
         })
      d.push_back(std::move(m));
    return d;
  }();
  return defs;
}

// --- result line ------------------------------------------------------------

/// Operation tally plus metric values by name; print() emits the catalogue
/// selected by --trace, so every workload reports the same names (a layer
/// the workload does not run reads 0).
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> values;

  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }

  void print(bool trace) const {
    const auto& defs = trace ? per_layer_defs() : end_to_end_defs();
    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      const auto it = values.find(defs[i].name);
      // Shortest text that reads back as the same double: every digit.
      char num[64];
      const auto end = std::to_chars(num, num + sizeof num,
                                     it == values.end() ? 0.0 : it->second);
      out += (i ? ", \"" : "\"") + defs[i].name + "\": {\"value\": " +
             std::string(num, end.ptr) + ", \"unit\": \"" + defs[i].unit +
             "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }
};

// --- golden answers ---------------------------------------------------------

/// golden.txt: one "<workload> <spec> <digest>" line per pinned answer.
class Golden {
 public:
  explicit Golden(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read golden file " + path);
    std::string workload, spec, digest;
    while (in >> workload >> spec >> digest)
      pinned_[workload + " " + spec] = digest;
  }

  /// Prints the digest and checks it; empty string on a match, else why not.
  std::string check(const std::string& workload, const std::string& spec,
                    const std::string& digest, bool pinned) const {
    if (printed_.insert(workload + " " + spec).second)
      std::printf("digest %s %s %s\n", workload.c_str(), spec.c_str(),
                  digest.c_str());
    if (!pinned) return "";
    const auto it = pinned_.find(workload + " " + spec);
    if (it == pinned_.end()) return "no golden digest pinned";
    if (it->second != digest)
      return "digest " + digest + " != golden " + it->second;
    return "";
  }

 private:
  std::map<std::string, std::string> pinned_;
  mutable std::set<std::string> printed_;
};

// --- engine workloads -------------------------------------------------------

struct EngineSetup {
  ResourceLibrary lib = telecom_1999();
  std::vector<CaseDef> cases;
  std::vector<Specification> specs;  ///< specs[i] belongs to cases[i]
};

std::unique_ptr<EngineSetup> engine_setup() {
  auto setup = std::make_unique<EngineSetup>();
  setup->cases = case_defs();
  SpecGenerator generator(setup->lib);
  for (const CaseDef& c : setup->cases) {
    const ExampleProfile profile = profile_by_name(c.profile);
    const SpecGenConfig cfg =
        profile_config(profile, static_cast<double>(c.tasks) / profile.tasks);
    if (cfg.total_tasks != c.tasks)
      throw std::runtime_error(c.name + ": generator gave " +
                               std::to_string(cfg.total_tasks) + " tasks");
    setup->specs.push_back(generator.generate(cfg));
  }
  return setup;
}

/// One Crusade::run with the checkpoint hook crusaded workers also use: the
/// last checkpoint (a phase boundary) is kept in memory for the restart.
struct Synthesis {
  double seconds = 0;
  CrusadeResult result;
  std::optional<ckpt::Checkpoint> last_checkpoint;
  std::string error;
};

Synthesis synthesize(const Specification& spec, const ResourceLibrary& lib,
                     bool reconfig, const ckpt::Checkpoint* resume = nullptr) {
  Synthesis s;
  CrusadeParams params;
  params.enable_reconfig = reconfig;
  params.resume = resume;
  if (!resume) {
    params.checkpoint.every_evals = std::numeric_limits<std::int64_t>::max();
    params.checkpoint.on_write = [&s](const ckpt::Checkpoint& c) {
      s.last_checkpoint = c;
    };
  }
  const auto t0 = Clock::now();
  try {
    OBS_SPAN("bench.core.run");
    s.result = Crusade(spec, lib, params).run();
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  s.seconds = since(t0);
  return s;
}

/// Final architecture plus the schedule's start and finish times.
std::string answer_digest(const CrusadeResult& r) {
  ckpt::BinWriter w;
  ckpt::write_architecture(w, r.arch);
  w.vec_i64(r.schedule.task_start);
  w.vec_i64(r.schedule.task_finish);
  return hex64(ckpt::fnv1a(w.bytes()));
}

/// Empty when the synthesis is an acceptable answer, else why it fails.
/// An honest infeasible verdict may carry deadline-miss evidence; any other
/// validator finding, or any finding on a claimed-feasible result, fails.
std::string synthesis_problem(const Synthesis& s) {
  if (!s.error.empty()) return "threw: " + s.error;
  for (const Violation& v : s.result.validation.violations) {
    const bool honest = !s.result.feasible &&
                        (v.kind == ViolationKind::DeadlineMissed ||
                         v.kind == ViolationKind::UnscheduledTask);
    if (!honest) return std::string("validator: ") + to_string(v.kind);
  }
  return "";
}

struct Replay {
  double list_ms = 0;  ///< mean run_list_scheduler call
  double fit_ns = 0;   ///< mean earliest_fit call
  double nofit_share = 0;
};

/// Kernel replays on each spec's final schedule, outside any timed pass:
/// run_list_scheduler on the final make_sched_problem (which must reproduce
/// the final schedule), and one earliest_fit query per placed task against
/// its resource's final timeline with the arguments the scheduler passes.
/// A replay that disagrees with the final schedule fails that synthesis;
/// cases whose synthesis already failed (`failed` flags) are skipped.
Replay replay_kernels(const EngineSetup& setup,
                      const std::vector<Synthesis>& finals,
                      std::vector<char>& failed, Result& res) {
  double list_s = 0, fit_s = 0;
  std::int64_t list_calls = 0, fit_calls = 0, queried = 0, nofit = 0;
  for (std::size_t i = 0; i < finals.size(); ++i) {
    const CrusadeResult& r = finals[i].result;
    if (failed[i]) continue;
    const Specification& spec = setup.specs[i];
    const FlatSpec flat(spec);
    const bool spec_modes = setup.cases[i].reconfig && spec.compatibility;
    const SchedProblem problem = make_sched_problem(
        r.arch, flat, r.task_cluster, {}, /*reboots_in_schedule=*/!spec_modes);
    const PriorityLevels levels = scheduling_levels(flat, setup.lib);

    ScheduleResult replayed;
    const auto t_list = Clock::now();
    int reps = 0;
    do {
      OBS_SPAN("bench.sched.replay_list");
      replayed = run_list_scheduler(problem, levels);
      ++reps;
    } while (since(t_list) < kReplaySeconds);
    list_s += since(t_list);
    list_calls += reps;
    if (replayed.task_start != r.schedule.task_start ||
        replayed.task_finish != r.schedule.task_finish) {
      failed[i] = 1;
      res.fail(setup.cases[i].name + ": list-scheduler replay does not "
                                     "reproduce the final schedule");
    }

    struct Query {
      const Timeline* tl;
      TimeNs ready, duration, period, ignore_below, ignore_above;
      int mode;
    };
    std::vector<Query> queries;
    for (int t = 0; t < flat.task_count(); ++t) {
      const int res_id = problem.task_resource[t];
      if (res_id < 0 || r.schedule.task_start[t] == kNoTime) continue;
      const SchedResourceInfo& info = problem.resources[res_id];
      if (info.concurrent) continue;  // hardware never queries a fit
      const TimeNs period = flat.period(t);
      queries.push_back({&r.schedule.timelines[res_id],
                         r.schedule.task_start[t],
                         r.schedule.task_finish[t] - r.schedule.task_start[t],
                         period, info.preemptive ? period : 0,
                         info.preemptive ? period : kNoTime,
                         problem.task_mode[t]});
    }
    if (queries.empty()) continue;
    const auto t_fit = Clock::now();
    std::int64_t misses = 0;
    reps = 0;
    do {
      OBS_SPAN("bench.sched.replay_fit");
      misses = 0;
      for (const Query& q : queries)
        misses += q.tl->earliest_fit(q.ready, q.duration, q.period, q.mode,
                                     q.ignore_below, q.ignore_above) ==
                  kNoTime;
      ++reps;
    } while (since(t_fit) < kReplaySeconds);
    fit_s += since(t_fit);
    fit_calls += reps * static_cast<std::int64_t>(queries.size());
    queried += static_cast<std::int64_t>(queries.size());
    nofit += misses;
  }
  Replay out;
  if (list_calls) out.list_ms = list_s * 1e3 / static_cast<double>(list_calls);
  if (fit_calls) out.fit_ns = fit_s * 1e9 / static_cast<double>(fit_calls);
  if (queried)
    out.nofit_share = static_cast<double>(nofit) / static_cast<double>(queried);
  return out;
}

/// Per-layer numbers read from the library's own spans in a traced pass.
struct TraceSplit {
  std::int64_t evals_main = 0, evals_repair = 0, evals_evacuate = 0;
  double eval_s = 0;  ///< summed alloc.eval span time
  /// Self time of the allocator's run/repair/evacuate loops: their span
  /// time minus the evaluations and enumerations inside them, i.e. problem
  /// construction and bookkeeping around each evaluation.
  double loop_self_s = 0;
  double repair_s = 0, evacuate_s = 0, enumerate_s = 0;
};

/// Splits alloc.eval spans by caller (the innermost enclosing alloc.run,
/// alloc.repair or alloc.evacuate span) and computes the callers' self time.
TraceSplit split_trace(const std::vector<obs::TraceEvent>& events) {
  TraceSplit out;
  std::vector<const obs::TraceEvent*> callers, evals;
  double enumerate_s = 0;
  for (const obs::TraceEvent& e : events) {
    const double s = static_cast<double>(e.dur_ns) * 1e-9;
    if (e.name == "alloc.eval") {
      evals.push_back(&e);
      out.eval_s += s;
    } else if (e.name == "alloc.enumerate") {
      enumerate_s += s;
    } else if (e.name == "alloc.run" || e.name == "alloc.repair" ||
               e.name == "alloc.evacuate") {
      callers.push_back(&e);
      if (e.name == "alloc.repair") out.repair_s += s;
      if (e.name == "alloc.evacuate") out.evacuate_s += s;
    }
  }
  out.enumerate_s = enumerate_s;
  auto contains = [](const obs::TraceEvent& outer,
                     const obs::TraceEvent& inner) {
    return &outer != &inner && outer.tid == inner.tid &&
           outer.ts_ns <= inner.ts_ns &&
           inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns;
  };
  for (const obs::TraceEvent* e : evals) {
    const obs::TraceEvent* caller = nullptr;
    for (const obs::TraceEvent* c : callers)
      if (contains(*c, *e) && (!caller || c->dur_ns < caller->dur_ns))
        caller = c;
    if (caller && caller->name == "alloc.repair")
      ++out.evals_repair;
    else if (caller && caller->name == "alloc.evacuate")
      ++out.evals_evacuate;
    else
      ++out.evals_main;
  }
  // Every evaluation and enumeration runs inside a caller, so the callers'
  // self time is their outermost span time minus both.
  double outer_s = 0;
  for (const obs::TraceEvent* c : callers)
    if (std::none_of(callers.begin(), callers.end(),
                     [&](const obs::TraceEvent* o) { return contains(*o, *c); }))
      outer_s += static_cast<double>(c->dur_ns) * 1e-9;
  out.loop_self_s = outer_s - out.eval_s - enumerate_s;
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string golden_path;
  std::string work_dir;
  std::string trace_out;  ///< Chrome trace of the traced run
};

/// paper-small: passes of Crusade::run over fixed paper specs, in a
/// seed-chosen order, until --seconds have elapsed.
void run_engine(const Options& opt, const Golden& golden, Result& res) {
  HostSpeed host;
  std::vector<double> setup_s;
  std::unique_ptr<EngineSetup> setup;
  for (const auto first = Clock::now();
       repeat_more(static_cast<int>(setup_s.size()), first);) {
    const auto t0 = Clock::now();
    setup = engine_setup();
    setup_s.push_back(since(t0));
    host.sample();
  }
  const double setup_factor = host.factor();
  const std::size_t n = setup->cases.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(opt.seed);
  rng.shuffle(order);

  std::vector<Synthesis> finals(n);
  std::vector<char> failed(n, 0);
  // One pass: every case once.  Each synthesis is an operation; its answer
  // must pass the validator and match the golden digest.  Returns the time
  // of the syntheses and checks; with `host`, a reference call follows each
  // synthesis, outside that time.
  auto pass = [&](std::vector<double>* job_ms, HostSpeed* host) {
    double work_s = 0;
    for (const std::size_t i : order) {
      const auto t0 = Clock::now();
      Synthesis s = synthesize(setup->specs[i], setup->lib,
                               setup->cases[i].reconfig);
      ++res.attempted;
      std::string problem = synthesis_problem(s);
      if (problem.empty())
        problem = golden.check(opt.workload, setup->cases[i].name,
                               answer_digest(s.result), /*pinned=*/true);
      failed[i] = !problem.empty();
      if (failed[i]) res.fail(setup->cases[i].name + ": " + problem);
      if (job_ms) job_ms->push_back(s.seconds * 1e3);
      finals[i] = std::move(s);
      work_s += since(t0);
      if (host) host->sample();
    }
    return work_s;
  };

  // Passes repeat until --seconds have elapsed.
  std::vector<double> pass_s, job_ms;
  const auto run_start = Clock::now();
  do {
    pass_s.push_back(pass(&job_ms, &host));
  } while (since(run_start) < opt.seconds);
  const double synth_factor = host.factor();

  // Restart: resume every case from the last checkpoint its run took; the
  // resumed answer must be bit-identical to the uninterrupted one.
  std::vector<double> restart_s;
  for (const auto first = Clock::now();
       repeat_more(static_cast<int>(restart_s.size()), first);) {
    const auto t0 = Clock::now();
    for (const std::size_t i : order) {
      if (failed[i]) continue;
      const std::string& name = setup->cases[i].name;
      ++res.attempted;
      if (!finals[i].last_checkpoint) {
        res.fail(name + ": no checkpoint to restart from");
        continue;
      }
      const Synthesis resumed =
          synthesize(setup->specs[i], setup->lib, setup->cases[i].reconfig,
                     &*finals[i].last_checkpoint);
      std::string problem = synthesis_problem(resumed);
      if (problem.empty() &&
          answer_digest(resumed.result) != answer_digest(finals[i].result))
        problem = "restarted answer differs";
      if (!problem.empty()) res.fail(name + " (restart): " + problem);
    }
    restart_s.push_back(since(t0));
  }

  double cost = 0;
  for (const Synthesis& s : finals) cost += s.result.cost.total();
  res.values["setup_s"] = median(setup_s) * setup_factor;
  res.values["synth_s"] = median(pass_s) * synth_factor;
  res.values["arch_cost_usd"] = cost;
  res.values["job.p50_ms"] = percentile(job_ms, 0.50);
  res.values["job.p95_ms"] = percentile(job_ms, 0.95);
  res.values["restart_s"] = median(restart_s);
  res.values["peak_rss_mb"] = peak_rss_mb();
  res.values["host.ref_ms"] = host.ref_ms();
  res.values["host.synth_wall_s"] = median(pass_s);
  std::printf("engine %s: %zu pass(es), median %.3f s wall, %.3f s "
              "normalised, %zu syntheses; reference call %.3f ms\n",
              opt.workload.c_str(), pass_s.size(), median(pass_s),
              median(pass_s) * synth_factor, job_ms.size(), host.ref_ms());
  if (!opt.trace) return;

  // --- per-layer numbers (traced invocation only) ---
  for (std::size_t i = 0; i < n; ++i) {
    const RunStats& st = finals[i].result.stats;
    res.values["core.run_s." + setup->cases[i].name] = finals[i].seconds;
    res.values["core.phase.preflight_s"] += st.preflight_seconds;
    res.values["core.phase.clustering_s"] += st.clustering_seconds;
    res.values["core.phase.allocation_s"] += st.allocation_seconds;
    res.values["core.phase.reconfig_s"] += st.reconfig_seconds;
    res.values["core.phase.interface_s"] += st.interface_seconds;
    res.values["core.phase.repair_s"] += st.repair_seconds;
    res.values["core.phase.validation_s"] += st.validation_seconds;
  }

  // Traced pass: the same syntheses with obs on.  Its answers are checked
  // like any other pass; its time against the untraced median is the
  // tracing overhead.
  obs::reset();
  obs::set_event_capacity(std::size_t{1} << 22);
  obs::set_enabled(true);
  const double traced_s = pass(nullptr, nullptr);
  // Kernel replays on the traced pass's final schedules (the same answers,
  // digest-checked above); their own spans land in the trace.
  const Replay replay = replay_kernels(*setup, finals, failed, res);
  obs::set_enabled(false);
  if (obs::dropped_events() > 0)
    throw std::runtime_error("trace sink dropped events");
  res.values["sched.list_ms"] = replay.list_ms;
  res.values["sched.fit_ns"] = replay.fit_ns;
  res.values["sched.fit_nofit_share"] = replay.nofit_share;

  // Split the trace per synthesis (each bench.core.run span, in pass
  // order) so a spec's repair share can be read against its run time.
  const std::vector<obs::TraceEvent> events = obs::events();
  TraceSplit split;
  std::size_t k = 0;
  for (const obs::TraceEvent& run : events) {
    if (run.name != "bench.core.run" || k >= n) continue;
    std::vector<obs::TraceEvent> inside;
    for (const obs::TraceEvent& e : events)
      if (e.tid == run.tid && e.ts_ns >= run.ts_ns &&
          e.ts_ns + e.dur_ns <= run.ts_ns + run.dur_ns)
        inside.push_back(e);
    const TraceSplit one = split_trace(inside);
    std::printf("layers %s: run %.3f s, repair %.3f s, evacuate %.3f s, "
                "evals main/repair/evacuate %lld/%lld/%lld\n",
                setup->cases[order[k++]].name.c_str(), run.dur_ns * 1e-9,
                one.repair_s, one.evacuate_s,
                static_cast<long long>(one.evals_main),
                static_cast<long long>(one.evals_repair),
                static_cast<long long>(one.evals_evacuate));
    split.evals_main += one.evals_main;
    split.evals_repair += one.evals_repair;
    split.evals_evacuate += one.evals_evacuate;
    split.eval_s += one.eval_s;
    split.loop_self_s += one.loop_self_s;
    split.repair_s += one.repair_s;
    split.evacuate_s += one.evacuate_s;
    split.enumerate_s += one.enumerate_s;
  }
  std::int64_t calls = 0, candidates = 0, moves = 0, tried = 0, accepted = 0,
               interfaces = 0;
  for (const Synthesis& s : finals) {
    calls += s.result.stats.sched_invocations;
    candidates += s.result.stats.alloc_candidates;
    moves += s.result.stats.repair_moves;
    tried += s.result.stats.merges_tried;
    accepted += s.result.stats.merges_accepted;
    interfaces += s.result.stats.interface_candidates;
  }
  const std::int64_t evals =
      split.evals_main + split.evals_repair + split.evals_evacuate;
  res.values["sched.calls"] = static_cast<double>(calls);
  res.values["alloc.evals"] = static_cast<double>(evals);
  res.values["alloc.evals.main"] = static_cast<double>(split.evals_main);
  res.values["alloc.evals.repair"] = static_cast<double>(split.evals_repair);
  res.values["alloc.evals.evacuate"] =
      static_cast<double>(split.evals_evacuate);
  if (evals > 0) {
    res.values["alloc.eval_ms"] = split.eval_s * 1e3 / evals;
    res.values["alloc.eval_fixed_ms"] = split.loop_self_s * 1e3 / evals;
  }
  res.values["alloc.repair_s"] = split.repair_s;
  res.values["alloc.evacuate_s"] = split.evacuate_s;
  res.values["alloc.enumerate_s"] = split.enumerate_s;
  res.values["alloc.candidates"] = static_cast<double>(candidates);
  res.values["alloc.repair_moves"] = static_cast<double>(moves);
  if (split.evals_repair > 0)
    res.values["alloc.repair_yield"] =
        static_cast<double>(moves) / static_cast<double>(split.evals_repair);
  res.values["reconfig.merge_tried"] = static_cast<double>(tried);
  res.values["reconfig.merge_accepted"] = static_cast<double>(accepted);
  res.values["reconfig.interface_candidates"] =
      static_cast<double>(interfaces);
  res.values["trace.overhead_pct"] = 100.0 * (traced_s / median(pass_s) - 1);
}

// --- serve-mix --------------------------------------------------------------

/// Numeric value following "key": in a flat JSON body; NaN when absent.
double json_number(const std::string& body, const std::string& key) {
  const std::size_t at = body.find("\"" + key + "\":");
  if (at == std::string::npos) return std::nan("");
  return std::strtod(body.c_str() + at + key.size() + 3, nullptr);
}

/// String value of "key":"..." in a JSON body; empty when absent.
std::string json_string(const std::string& body, const std::string& key) {
  const std::string marker = "\"" + key + "\":\"";
  const std::size_t at = body.find(marker);
  if (at == std::string::npos) return "";
  const std::size_t from = at + marker.size();
  return body.substr(from, body.find('"', from) - from);
}

struct ServeInputs {
  std::vector<std::string> names;  ///< per distinct spec
  std::vector<std::string> texts;  ///< spec files as submitted
  std::vector<int> job_spec;       ///< per job: index into names/texts
  std::vector<double> due_s;       ///< per job: send time after loop start
};

/// Jobs for one open loop of `seconds`: Poisson arrivals at kServeRate
/// (a fixed count spread uniformly, i.e. a Poisson process conditioned on
/// its count), three quarters on distinct 100-300-task profile specs and a
/// quarter resubmitting a spec first sent at least 2 s earlier.  Spec i is
/// the same for every seed and run length (README: seed use), so the
/// golden digests hold everywhere; the seed sets arrivals and repeats.
ServeInputs serve_inputs(std::uint64_t seed, double seconds,
                         const ResourceLibrary& lib) {
  const int jobs = std::max(1, static_cast<int>(std::lround(kServeRate * seconds)));
  const int repeats = jobs / 4;
  const int distinct = jobs - repeats;
  ServeInputs in;
  Rng arrivals(seed ^ 0xa5a5a5a5a5a5a5a5ULL);
  for (int j = 0; j < jobs; ++j) in.due_s.push_back(arrivals.uniform() * seconds);
  std::sort(in.due_s.begin(), in.due_s.end());

  // Task counts follow a golden-ratio sequence over [100, 300], so every
  // prefix of the spec list covers the size range evenly.
  const std::vector<ExampleProfile> profiles = paper_profiles();
  SpecGenerator generator(lib);
  for (int i = 0; i < distinct; ++i) {
    const ExampleProfile& p =
        profiles[static_cast<std::size_t>(i) % profiles.size()];
    const double frac = std::fmod(0.5 + i * 0.6180339887498949, 1.0);
    const int tasks = 100 + static_cast<int>(200.0 * frac);
    SpecGenConfig cfg =
        profile_config(p, static_cast<double>(tasks) / p.tasks);
    cfg.seed = p.seed * 1000 + static_cast<std::uint64_t>(i);
    std::ostringstream text;
    write_specification(text, generator.generate(cfg), lib);
    char name[64];
    std::snprintf(name, sizeof name, "%03d-%s-%d", i, p.name.c_str(),
                  cfg.total_tasks);
    in.names.push_back(name);
    in.texts.push_back(text.str());
  }

  // Repeats sit after the first eighth of the loop, so earlier answers
  // exist to be served from the cache.
  Rng mix(seed ^ 0x3c3c3c3c3c3c3c3cULL);
  std::vector<int> slots;
  for (int j = jobs / 8; j < jobs; ++j) slots.push_back(j);
  mix.shuffle(slots);
  std::vector<char> is_repeat(jobs, 0);
  for (int k = 0; k < repeats && k < static_cast<int>(slots.size()); ++k)
    is_repeat[slots[k]] = 1;
  std::vector<double> first_due;
  for (int j = 0; j < jobs; ++j) {
    if (is_repeat[j] || static_cast<int>(first_due.size()) == distinct) {
      int older = 0;
      while (older < static_cast<int>(first_due.size()) &&
             first_due[older] <= in.due_s[j] - 2.0)
        ++older;
      in.job_spec.push_back(
          static_cast<int>(mix.uniform_int(0, std::max(older, 1) - 1)));
    } else {
      in.job_spec.push_back(static_cast<int>(first_due.size()));
      first_due.push_back(in.due_s[j]);
    }
  }
  return in;
}

serve::ServiceConfig service_config(const std::string& spool, int jobs) {
  serve::ServiceConfig cfg;
  cfg.spool_dir = spool;
  cfg.workers = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  // Room for every job: a busy rejection is a failed operation, and the
  // offered load is meant to stay below capacity.
  cfg.queue_capacity = jobs + 16;
  cfg.cache_capacity = static_cast<std::size_t>(jobs) + 16;
  cfg.terminal_retain = static_cast<std::size_t>(jobs) + 16;
  return cfg;
}

struct JobRecord {
  double lag_ms = 0;      ///< how late the generator sent it
  double submit_ms = 0;   ///< Service::submit call
  double latency_ms = 0;  ///< due time -> result in hand
  bool admitted = false;
  bool cached = false;
  bool got = false;
  bool ok = false;  ///< ended ok: the body is an answer, not an error
  double done_s = 0;  ///< result in hand, seconds after loop start
  serve::JobStatus status;
  std::string body;
};

struct LoopResult {
  std::vector<JobRecord> jobs;
  double makespan_s = 0;
  serve::ServiceStats stats;
  double fsck_ms = 0;
  double restart_s = 0;
};

/// One open loop against `service` (booted on an empty spool), then a
/// restart over the spool it leaves behind.  Failed operations are counted
/// into `res`.
LoopResult run_loop(std::unique_ptr<serve::Service> service,
                    const serve::ServiceConfig& cfg, const ServeInputs& in,
                    const Golden& golden, Result& res) {
  LoopResult loop;
  const std::size_t jobs = in.job_spec.size();
  loop.jobs.resize(jobs);
  std::vector<std::thread> waiters;
  waiters.reserve(jobs);
  // Joins the waiters on every exit path; they reference `loop` and
  // `service`.
  struct JoinAll {
    std::vector<std::thread>& threads;
    ~JoinAll() {
      for (std::thread& t : threads)
        if (t.joinable()) t.join();
    }
  } join_all{waiters};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t j = 0; j < jobs; ++j) {
    JobRecord& rec = loop.jobs[j];
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(in.due_s[j]));
    std::this_thread::sleep_until(due);
    const auto sent = Clock::now();
    rec.lag_ms = std::chrono::duration<double, std::milli>(sent - due).count();
    serve::SubmitRequest req;
    req.kind = serve::JobKind::Run;
    req.client_nonce = "job-" + std::to_string(j);
    req.spec_text = in.texts[in.job_spec[j]];
    serve::SubmitOutcome out;
    {
      OBS_SPAN("bench.serve.submit");
      out = service->submit(req);
    }
    rec.submit_ms = since(sent) * 1e3;
    rec.admitted = out.admitted || out.cached;
    rec.cached = out.cached;
    if (!rec.admitted) continue;
    waiters.emplace_back([&service, &rec, &start, due, id = out.id] {
      try {
        rec.got = service->wait_result(id, 120000, &rec.status, &rec.body);
      } catch (const std::exception&) {
        rec.got = false;
      }
      const auto now = Clock::now();
      rec.latency_ms = std::chrono::duration<double, std::milli>(now - due).count();
      rec.done_s = std::chrono::duration<double>(now - start).count();
    });
  }
  for (std::thread& t : waiters) t.join();
  loop.stats = service->stats();
  for (const JobRecord& rec : loop.jobs)
    loop.makespan_s = std::max(loop.makespan_s, rec.done_s);

  // Answers: every job ends ok with a validator-consistent body whose
  // signature matches the other answers for its spec and the pinned digest.
  std::map<int, std::string> signature_of;
  std::vector<char> failed(jobs, 0);
  for (std::size_t j = 0; j < jobs; ++j) {
    JobRecord& rec = loop.jobs[j];
    const int k = in.job_spec[j];
    ++res.attempted;
    rec.ok = rec.got && rec.status.outcome == serve::JobOutcome::Ok;
    std::string problem;
    if (!rec.admitted)
      problem = "not admitted (busy or rejected)";
    else if (!rec.got)
      problem = "result lost";
    else if (!rec.ok)
      problem = std::string("ended ") + serve::to_string(rec.status.outcome);
    else if (rec.body.find("\"feasible\":true") != std::string::npos &&
             rec.body.find("\"validation_clean\":false") != std::string::npos)
      problem = "validator rejected a feasible claim";
    if (problem.empty()) {
      const std::string sig = json_string(rec.body, "signature");
      const auto [it, fresh] = signature_of.emplace(k, sig);
      if (!fresh && it->second != sig)
        problem = "answer differs from an earlier answer for the same spec";
      else
        problem = golden.check(
            "serve-mix", in.names[k], sig,
            /*pinned=*/k < kServePinnedSpecs);
    }
    if (!problem.empty()) {
      failed[j] = 1;
      res.fail("job " + std::to_string(j) + " (" + in.names[k] + "): " + problem);
    }
  }

  // Restart: stop, scrub (dry run, timed on its own), then boot a new
  // Service over the spool; every answer must come back bit-identical.
  service->stop(/*drain=*/true);
  service.reset();
  auto t0 = Clock::now();
  const serve::FsckReport scrub = serve::fsck_spool(cfg.spool_dir, false);
  loop.fsck_ms = since(t0) * 1e3;
  if (!scrub.clean())
    std::fprintf(stderr, "fsck after clean stop: %s\n", scrub.to_json().c_str());
  std::vector<double> restart_s;
  for (const auto first = Clock::now();
       repeat_more(static_cast<int>(restart_s.size()), first);) {
    t0 = Clock::now();
    {
      OBS_SPAN("bench.serve.restart");
      service = std::make_unique<serve::Service>(cfg);
    }
    restart_s.push_back(since(t0));
    for (std::size_t j = 0; j < jobs; ++j) {
      if (failed[j]) continue;
      const std::optional<std::string> body =
          service->result_body(loop.jobs[j].status.id);
      if (body && *body == loop.jobs[j].body) continue;
      failed[j] = 1;
      res.fail("job " + std::to_string(j) +
               ": result not bit-identical after restart");
    }
    service->stop(/*drain=*/false);
    service.reset();
  }
  loop.restart_s = median(restart_s);
  return loop;
}

/// Boots a Service on a fresh, empty spool.
std::unique_ptr<serve::Service> boot(const serve::ServiceConfig& cfg) {
  fs::remove_all(cfg.spool_dir);
  fs::create_directories(cfg.spool_dir);
  return std::make_unique<serve::Service>(cfg);
}

void run_serve(const Options& opt, const Golden& golden, Result& res) {
  HostSpeed host;
  std::vector<double> setup_s;
  std::unique_ptr<ResourceLibrary> lib;
  ServeInputs in;
  std::unique_ptr<serve::Service> service;
  const int jobs = std::max(1, static_cast<int>(std::lround(kServeRate * opt.seconds)));
  const serve::ServiceConfig cfg =
      service_config(opt.work_dir + "/spool", jobs);
  for (const auto first = Clock::now();
       repeat_more(static_cast<int>(setup_s.size()), first);) {
    service.reset();
    const auto t0 = Clock::now();
    lib = std::make_unique<ResourceLibrary>(telecom_1999());
    in = serve_inputs(opt.seed, opt.seconds, *lib);
    service = boot(cfg);
    setup_s.push_back(since(t0));
    host.sample();
  }
  const double setup_factor = host.factor();

  LoopResult loop = run_loop(std::move(service), cfg, in, golden, res);
  std::vector<double> latency;
  for (const JobRecord& rec : loop.jobs)
    if (rec.got) latency.push_back(rec.latency_ms);
  std::set<int> seen;
  double cost = 0;
  for (std::size_t j = 0; j < loop.jobs.size(); ++j)
    if (loop.jobs[j].ok && seen.insert(in.job_spec[j]).second)
      cost += json_number(loop.jobs[j].body, "cost");
  res.values["setup_s"] = median(setup_s) * setup_factor;
  res.values["synth_s"] = loop.makespan_s;
  res.values["arch_cost_usd"] = cost;
  res.values["job.p50_ms"] = percentile(latency, 0.50);
  res.values["job.p95_ms"] = percentile(latency, 0.95);
  res.values["restart_s"] = loop.restart_s;
  res.values["peak_rss_mb"] = peak_rss_mb();
  res.values["host.ref_ms"] = host.ref_ms();
  std::printf("serve-mix: %zu jobs, %zu results, makespan %.3f s\n",
              loop.jobs.size(), latency.size(), loop.makespan_s);
  if (!opt.trace) return;

  // Traced loop on a fresh spool: per-layer numbers come from it, and its
  // job p50 against the untraced loop's is the tracing overhead.
  obs::reset();
  obs::set_event_capacity(std::size_t{1} << 22);
  obs::set_enabled(true);
  const serve::ServiceConfig traced_cfg =
      service_config(opt.work_dir + "/spool-traced", jobs);
  LoopResult traced = run_loop(boot(traced_cfg), traced_cfg, in, golden, res);
  obs::set_enabled(false);
  fs::remove_all(traced_cfg.spool_dir);

  std::vector<double> lag, submit, wait, run, synth, overhead, hit, traced_latency;
  for (const JobRecord& rec : traced.jobs) {
    lag.push_back(rec.lag_ms);
    submit.push_back(rec.submit_ms);
    if (!rec.ok) continue;
    traced_latency.push_back(rec.latency_ms);
    if (rec.cached) {
      hit.push_back(rec.latency_ms);
      continue;
    }
    wait.push_back(static_cast<double>(rec.status.wait_ms));
    run.push_back(static_cast<double>(rec.status.run_ms));
    const double synth_ms = json_number(rec.body, "total") * 1e3;
    synth.push_back(synth_ms);
    overhead.push_back(static_cast<double>(rec.status.run_ms) - synth_ms);
  }
  res.values["serve.submit_ms"] = median(submit);
  res.values["serve.queue_wait_ms.p50"] = percentile(wait, 0.50);
  res.values["serve.queue_wait_ms.p95"] = percentile(wait, 0.95);
  res.values["serve.run_ms.p50"] = percentile(run, 0.50);
  res.values["serve.run_ms.p95"] = percentile(run, 0.95);
  res.values["serve.synth_ms.p50"] = median(synth);
  res.values["serve.overhead_ms.p50"] = median(overhead);
  res.values["serve.cache_hit_share"] =
      static_cast<double>(hit.size()) / static_cast<double>(traced.jobs.size());
  res.values["serve.cache_hit_ms"] = median(hit);
  res.values["serve.rejected_busy"] =
      static_cast<double>(traced.stats.rejected_busy);
  res.values["serve.retries"] = static_cast<double>(traced.stats.retries);
  res.values["serve.crashes"] = static_cast<double>(traced.stats.crashes);
  res.values["serve.fsck_ms"] = traced.fsck_ms;
  res.values["loadgen.lag_p95_ms"] = percentile(lag, 0.95);
  res.values["trace.overhead_pct"] =
      100.0 * (median(traced_latency) / percentile(latency, 0.50) - 1);
}

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--golden") opt.golden_path = value;
    else if (key == "--work-dir") opt.work_dir = value;
    else if (key == "--trace-out") opt.trace_out = value;
    else return false;
  }
  return argc % 2 == 1 && opt.seconds > 0 && !opt.golden_path.empty() &&
         !opt.work_dir.empty() &&
         (opt.workload == "paper-small" || opt.workload == "serve-mix");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse_options(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: %s --workload paper-small|serve-mix "
                   "--seed N --seconds S --trace 0|1 --golden FILE "
                   "--work-dir DIR [--trace-out FILE]\n",
                   argv[0]);
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }

  // Build guard: numbers from an unoptimised build are refused.
#ifdef NDEBUG
  const int ndebug = 1;
#else
  const int ndebug = 0;
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf("build compiler=\"%s\" build_type=%s ndebug=%d optimized=%d "
              "nproc=%u\n",
              __VERSION__, build_type.c_str(), ndebug, optimized ? 1 : 0,
              std::thread::hardware_concurrency());
  if (!optimized || (build_type != "Release" && build_type != "RelWithDebInfo")) {
    std::fprintf(stderr, "refusing to measure an unoptimised build (%s)\n",
                 build_type.c_str());
    return 2;
  }

  Result res;
  try {
    const Golden golden(opt.golden_path);
    fs::create_directories(opt.work_dir);
    if (opt.workload == "serve-mix")
      run_serve(opt, golden, res);
    else
      run_engine(opt, golden, res);
    if (opt.trace && !opt.trace_out.empty()) {
      fs::create_directories(fs::path(opt.trace_out).parent_path());
      std::ofstream(opt.trace_out) << obs::trace_json();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  std::fflush(stdout);
  res.print(opt.trace);
  return 0;
}
