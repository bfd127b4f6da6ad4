// Additional property suites for the scheduling stack: fuzzed timeline
// placement post-conditions, scheduler determinism, and RTA arithmetic.
#include <gtest/gtest.h>

#include <algorithm>

#include "alloc/allocation.hpp"
#include "sched/scheduler.hpp"
#include "tgff/generator.hpp"

namespace crusade {
namespace {

// --- fuzzed earliest_fit post-conditions ---

class TimelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineFuzz, PlacementsNeverOverlapSameMode) {
  Rng rng(GetParam());
  const TimeNs periods[] = {1'000, 2'000, 4'000, 8'000, 16'000};
  for (int round = 0; round < 40; ++round) {
    Timeline tl;
    // Place a random sequence of windows via earliest_fit and verify the
    // invariant after every placement.
    for (int i = 0; i < 30; ++i) {
      const TimeNs period = periods[rng.uniform_int(0, 4)];
      const TimeNs duration = rng.uniform_int(50, period / 3);
      const TimeNs ready = rng.uniform_int(0, period);
      const int mode = static_cast<int>(rng.uniform_int(-1, 2));
      const TimeNs start = tl.earliest_fit(ready, duration, period, mode);
      if (start == kNoTime) continue;  // saturated: acceptable
      ASSERT_GE(start, ready);
      const PeriodicWindow placed{start, start + duration, period};
      for (const auto& w : tl.windows()) {
        const bool conflicts =
            mode < 0 || w.mode < 0 || w.mode == mode;
        if (conflicts) {
          ASSERT_FALSE(periodic_overlap(placed, w.span))
              << "seed " << GetParam() << " round " << round;
        }
      }
      tl.add(start, start + duration, period, mode, i);
    }
  }
}

TEST_P(TimelineFuzz, FitIsEarliestAmongProbes) {
  // Weaker minimality check: no strictly earlier start in [ready, start)
  // sampled on a grid admits the window.
  Rng rng(GetParam() ^ 0x5eed);
  Timeline tl;
  for (int i = 0; i < 12; ++i) {
    const TimeNs start = rng.uniform_int(0, 900);
    tl.add(start, start + rng.uniform_int(20, 120), 1'000, -1, i);
  }
  for (int trial = 0; trial < 50; ++trial) {
    const TimeNs ready = rng.uniform_int(0, 500);
    const TimeNs duration = rng.uniform_int(10, 200);
    const TimeNs got = tl.earliest_fit(ready, duration, 2'000, -1);
    if (got == kNoTime) continue;
    for (TimeNs probe = ready; probe < got; probe += 7) {
      const PeriodicWindow cand{probe, probe + duration, 2'000};
      bool clear = true;
      for (const auto& w : tl.windows())
        if (periodic_overlap(cand, w.span)) clear = false;
      ASSERT_FALSE(clear) << "earlier fit at " << probe << " missed (got "
                          << got << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineFuzz,
                         ::testing::Values(7u, 8u, 9u));

// --- earliest_fit against earliest_fit_reference ---

/// A window the query (mode, bands) must avoid, exactly as the reference
/// filters them.
bool relevant(const Timeline::Window& w, int mode, TimeNs ignore_below,
              TimeNs ignore_above) {
  if (mode >= 0 && w.mode >= 0 && w.mode != mode) return false;
  const TimeNs p = w.span.period;
  return !(p > 0 && (p < ignore_below ||
                     (ignore_above != kNoTime && p > ignore_above)));
}

bool fits_at(const Timeline& tl, TimeNs start, TimeNs duration,
             TimeNs period, int mode, TimeNs ignore_below,
             TimeNs ignore_above) {
  const PeriodicWindow cand{start, start + duration, period};
  for (const auto& w : tl.windows())
    if (relevant(w, mode, ignore_below, ignore_above) &&
        periodic_overlap(cand, w.span))
      return false;
  return true;
}

/// A random timeline built with add(), not earliest_fit, so windows may
/// overlap each other as they do on concurrent hardware (reboots of several
/// modes, same-mode circuits).  Mixes modes, one-shot and empty windows and
/// short periods that force long jump chains.
Timeline random_timeline(Rng& rng, const std::vector<TimeNs>& periods,
                         int windows) {
  Timeline tl;
  for (int i = 0; i < windows; ++i) {
    const TimeNs period =
        periods[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(periods.size()) - 1))];
    const TimeNs span = period > 0 ? period : 4'000;
    const TimeNs start = rng.uniform_int(0, span - 1);
    const TimeNs len = rng.uniform_int(0, std::max<TimeNs>(1, span / 6));
    tl.add(start, start + len, period,
           static_cast<int>(rng.uniform_int(-1, 2)), i,
           /*work=*/rng.uniform_int(0, len));
  }
  return tl;
}

class FitOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FitOracle, MatchesReferenceOnRandomTimelines) {
  Rng rng(GetParam());
  const std::vector<TimeNs> window_periods = {0,     100,   250,   500,
                                              1'000, 2'000, 3'000, 8'000};
  const std::vector<TimeNs> query_periods = {0, 500, 1'000, 2'000, 6'000};
  Timeline::FitScratch scratch;  // reused: every query must reset it
  int agreed = 0, kernel_only = 0;
  for (int round = 0; round < 60; ++round) {
    const Timeline tl = random_timeline(
        rng, window_periods, static_cast<int>(rng.uniform_int(0, 24)));
    for (int q = 0; q < 40; ++q) {
      const TimeNs period = query_periods[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(query_periods.size()) -
                                 1))];
      const TimeNs duration = rng.uniform_int(0, 400);
      const TimeNs ready = rng.uniform_int(0, 5'000);
      const int mode = static_cast<int>(rng.uniform_int(-1, 2));
      TimeNs below = 0, above = kNoTime;
      switch (rng.uniform_int(0, 2)) {
        case 1: below = period; break;
        case 2: below = above = period; break;
        default: break;
      }
      const TimeNs want =
          tl.earliest_fit_reference(ready, duration, period, mode, below,
                                    above);
      const TimeNs got =
          tl.earliest_fit(scratch, ready, duration, period, mode, below,
                          above);
      if (want != kNoTime) {
        ASSERT_EQ(got, want) << "seed " << GetParam() << " round " << round
                             << " query " << q;
        ++agreed;
      } else if (got != kNoTime) {
        // The reference gave up at its cap; the kernel's start must fit.
        ASSERT_GE(got, ready);
        ASSERT_TRUE(fits_at(tl, got, duration, period, mode, below, above));
        ++kernel_only;
      }
      // The public entry point answers the same.
      ASSERT_EQ(tl.earliest_fit(ready, duration, period, mode, below, above),
                got);
    }
  }
  EXPECT_GT(agreed, 0);
  EXPECT_EQ(scratch.stats.calls, 60 * 40);
  EXPECT_GT(scratch.stats.shifts, scratch.stats.calls);  // jumps happen
  RecordProperty("kernel_only", kernel_only);
}

TEST_P(FitOracle, PreemptiveGatherMatchesTheThreeBands) {
  Rng rng(GetParam() ^ 0xbad5eed);
  const std::vector<TimeNs> periods = {0, 250, 1'000, 2'000, 4'000};
  Timeline::FitScratch scratch;
  for (int round = 0; round < 60; ++round) {
    const Timeline tl = random_timeline(
        rng, periods, static_cast<int>(rng.uniform_int(0, 20)));
    for (int q = 0; q < 20; ++q) {
      const TimeNs period = periods[static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(periods.size()) - 1))];
      const int mode = static_cast<int>(rng.uniform_int(-1, 2));
      tl.gather_preemptive(scratch, period, mode);
      std::vector<Timeline::Interference> preemptors;
      double above = 0;
      for (const auto& w : tl.windows()) {
        if (mode >= 0 && w.mode >= 0 && w.mode != mode) continue;
        if (w.span.period > 0 && w.span.period < period)
          preemptors.push_back({w.work, w.span.period});
        if (w.span.period > period)
          above += static_cast<double>(w.work) /
                   static_cast<double>(w.span.period);
      }
      ASSERT_EQ(scratch.preemptors.size(), preemptors.size());
      for (std::size_t i = 0; i < preemptors.size(); ++i) {
        ASSERT_EQ(scratch.preemptors[i].exec, preemptors[i].exec);
        ASSERT_EQ(scratch.preemptors[i].period, preemptors[i].period);
      }
      ASSERT_EQ(scratch.utilization_above, above);  // same summation order
      const TimeNs duration = rng.uniform_int(1, 300);
      const TimeNs ready = rng.uniform_int(0, 3'000);
      const TimeNs want = tl.earliest_fit_reference(ready, duration, period,
                                                    mode, period, period);
      const TimeNs got = tl.fit_gathered(scratch, ready, duration);
      if (want != kNoTime) {
        ASSERT_EQ(got, want);
      }
    }
  }
}

TEST_P(FitOracle, LeastStartOrNoFitByBruteForce) {
  // Periods <= 2'000 ns, so one period of candidate starts can be scanned
  // exhaustively.  Every window period is a multiple of 500, so each window
  // blocks at most P/500 + 1 <= 5 stretches of a period and the 6W+8 cap
  // can never be the reason for a kNoTime: the answer must be exact.
  Rng rng(GetParam() ^ 0xb7e7e);
  const std::vector<TimeNs> window_periods = {0, 500, 1'000, 2'000, 4'000};
  const std::vector<TimeNs> query_periods = {500, 1'000, 2'000};
  Timeline::FitScratch scratch;
  int found = 0, none = 0;
  for (int round = 0; round < 40; ++round) {
    const Timeline tl = random_timeline(
        rng, window_periods, static_cast<int>(rng.uniform_int(1, 16)));
    for (int q = 0; q < 10; ++q) {
      const TimeNs period = query_periods[static_cast<std::size_t>(
          rng.uniform_int(0, 2))];
      const TimeNs duration = rng.uniform_int(1, 150);
      const TimeNs ready = rng.uniform_int(0, 3'000);
      const int mode = static_cast<int>(rng.uniform_int(-1, 2));
      const bool bands = rng.uniform_int(0, 1) == 1;
      const TimeNs below = bands ? period : 0;
      const TimeNs above = bands ? period : kNoTime;
      TimeNs least = kNoTime;
      for (TimeNs s = ready; s < ready + period && least == kNoTime; ++s)
        if (fits_at(tl, s, duration, period, mode, below, above)) least = s;
      const std::int64_t exhausted = scratch.stats.exhausted;
      const TimeNs got =
          tl.earliest_fit(scratch, ready, duration, period, mode, below,
                          above);
      ASSERT_EQ(scratch.stats.exhausted, exhausted);
      ASSERT_EQ(got, least) << "seed " << GetParam() << " round " << round
                            << " query " << q;
      ++(least == kNoTime ? none : found);
    }
  }
  EXPECT_GT(found, 0);
  EXPECT_GT(none, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FitOracle,
                         ::testing::Values(11u, 12u, 13u, 14u));

TEST(FitOracleTest, SaturatedLinkIsCertifiedWithinOnePeriod) {
  // A link whose transfers tile the whole 1'000 ns ring in 10 pieces.  Each
  // window alone leaves room (so the reference never gets an every-phase
  // verdict), but together they leave none: the reference circles the ring
  // until its 6W+8 shift cap runs out, the kernel stops after one period.
  Timeline tl;
  for (int k = 0; k < 10; ++k) tl.add(k * 100, k * 100 + 100, 1'000, -1, k);
  const TimeNs duration = 10;
  for (const auto& w : tl.windows())
    ASSERT_NE(min_shift_to_avoid({0, duration, 1'000}, w.span), kNoTime);
  EXPECT_EQ(tl.earliest_fit_reference(0, duration, 1'000, -1), kNoTime);

  Timeline::FitScratch scratch;
  EXPECT_EQ(tl.earliest_fit(scratch, 0, duration, 1'000, -1), kNoTime);
  EXPECT_EQ(scratch.stats.calls, 1);
  EXPECT_EQ(scratch.stats.certified, 1);
  EXPECT_EQ(scratch.stats.exhausted, 0);
  EXPECT_EQ(scratch.stats.shifts, 10);  // one jump per window, one period
  EXPECT_LT(scratch.stats.shifts, 6 * 10 + 8);

  // A slower transfer (period 100'000) on the same ring: every window
  // conflicts with it every gcd = 1'000, so fitting repeats every 1'000 and
  // one sweep of the ring still proves no fit, far inside the cap that a
  // full 100'000 of jumps would need.
  EXPECT_EQ(tl.earliest_fit_reference(0, duration, 100'000, -1), kNoTime);
  EXPECT_EQ(tl.earliest_fit(scratch, 0, duration, 100'000, -1), kNoTime);
  EXPECT_EQ(scratch.stats.certified, 2);
  EXPECT_EQ(scratch.stats.exhausted, 0);
  EXPECT_EQ(scratch.stats.shifts, 20);
}

TEST(FitOracleTest, CollisionAtEveryPhaseIsCertified) {
  Timeline tl;
  tl.add(0, 600, 1'000, -1, 0);
  Timeline::FitScratch scratch;
  EXPECT_EQ(tl.earliest_fit(scratch, 0, 500, 1'000, -1), kNoTime);
  EXPECT_EQ(scratch.stats.certified, 1);
  EXPECT_EQ(scratch.stats.shifts, 0);
}

// --- scheduler determinism ---

class SchedDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedDeterminism, SameProblemSameSchedule) {
  static const ResourceLibrary lib = telecom_1999();
  SpecGenerator gen(lib);
  SpecGenConfig cfg;
  cfg.total_tasks = 60;
  cfg.seed = GetParam();
  const Specification spec = gen.generate(cfg);
  const FlatSpec flat(spec);

  // Everything on one CPU + one FPGA, split by feasibility.
  SchedProblem p;
  p.flat = &flat;
  p.resources.push_back(
      SchedResourceInfo{true, false, 5 * kMicrosecond, {}});
  p.resources.push_back(SchedResourceInfo{false, true, 0, {}});
  p.task_resource.assign(flat.task_count(), -1);
  p.task_mode.assign(flat.task_count(), -1);
  p.task_exec.assign(flat.task_count(), 0);
  const PeTypeId cpu = lib.find_pe("MC68060");
  const PeTypeId fpga = lib.find_pe("XC6700");
  for (int t = 0; t < flat.task_count(); ++t) {
    if (flat.task(t).feasible_on(cpu)) {
      p.task_resource[t] = 0;
      p.task_exec[t] = flat.task(t).exec[cpu];
    } else if (flat.task(t).feasible_on(fpga)) {
      p.task_resource[t] = 1;
      p.task_exec[t] = flat.task(t).exec[fpga];
    }
  }
  p.edge_resource.assign(flat.edge_count(), -1);
  p.edge_comm.assign(flat.edge_count(), 0);

  const PriorityLevels levels = scheduling_levels(flat, lib);
  const ScheduleResult a = run_list_scheduler(p, levels);
  const ScheduleResult b = run_list_scheduler(p, levels);
  ASSERT_EQ(a.task_start, b.task_start);
  ASSERT_EQ(a.task_finish, b.task_finish);
  ASSERT_EQ(a.total_tardiness, b.total_tardiness);
  ASSERT_EQ(a.placement_failures, b.placement_failures);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedDeterminism,
                         ::testing::Values(301u, 302u, 303u));

// --- response-time arithmetic on a crafted case ---

TEST(PreemptionMathTest, ExactInterferenceAccounting) {
  // One 1ms-period task (exec 200us, overhead 10us per hit) interferes with
  // a 10ms task of exec 2ms.  RTA fixed point:
  //   c = 2000 + ceil(c/1000)*(200 + 10)   [microseconds]
  // c = 2000 -> 2 hits? ceil(2000/1000)=2 -> c = 2420
  //   -> ceil(2420/1000)=3 -> c = 2630 -> ceil=3 -> stable 2630us.
  Specification spec;
  TaskGraph fast("fast", kMillisecond);
  Task tf;
  tf.name = "f";
  tf.exec = {200 * kMicrosecond};
  tf.deadline = kMillisecond;
  fast.add_task(tf);
  spec.graphs.push_back(std::move(fast));
  TaskGraph slow("slow", 10 * kMillisecond);
  Task ts;
  ts.name = "s";
  ts.exec = {2 * kMillisecond};
  ts.deadline = 10 * kMillisecond;
  slow.add_task(ts);
  spec.graphs.push_back(std::move(slow));
  const FlatSpec flat(spec);

  SchedProblem p;
  p.flat = &flat;
  p.resources.push_back(
      SchedResourceInfo{true, false, 10 * kMicrosecond, {}});
  p.task_resource = {0, 0};
  p.task_mode = {-1, -1};
  p.task_exec = {200 * kMicrosecond, 2 * kMillisecond};
  p.edge_resource = {};
  p.edge_comm = {};
  const PriorityLevels levels =
      priority_levels(flat, p.task_exec, std::vector<TimeNs>{});
  const ScheduleResult r = run_list_scheduler(p, levels);
  ASSERT_TRUE(r.feasible);
  // The fast task goes first (higher priority); the slow one is inflated.
  EXPECT_EQ(r.task_finish[1] - r.task_start[1], 2'630 * kMicrosecond);
}

// --- unplace bookkeeping round-trip ---

TEST(UnplaceTest, RestoresCapacityAndLinkDemand) {
  static const ResourceLibrary lib = telecom_1999();
  SpecGenerator gen(lib);
  SpecGenConfig cfg;
  cfg.total_tasks = 40;
  cfg.seed = 13;  // a spec on which evacuation empties devices
  const Specification spec = gen.generate(cfg);
  const FlatSpec flat(spec);
  const auto clusters = cluster_tasks(flat, lib, ClusteringParams{});
  Allocator allocator(flat, lib, nullptr, AllocParams{});
  AllocationOutcome outcome = allocator.run(clusters);
  ASSERT_TRUE(outcome.feasible);

  // Evacuation rips every resident out of a victim device with unplace()
  // and re-places it elsewhere; an accepted evacuation keeps the unplaced
  // bookkeeping.  Capacity is conserved across the whole architecture: the
  // per-mode and per-device counters sum to exactly the clusters' demand,
  // and no link's committed transfer time goes negative.
  ASSERT_GT(allocator.evacuate_devices(outcome, clusters), 0);
  const Architecture& arch = outcome.arch;
  int pfus_in_arch = 0, gates_in_arch = 0, pins_in_arch = 0;
  for (const PeInstance& inst : arch.pes)
    for (const Mode& m : inst.modes) {
      pfus_in_arch += m.pfus_used;
      gates_in_arch += m.gates_used;
      pins_in_arch += m.pins_used;
    }
  int pfus_in_clusters = 0, gates_in_clusters = 0, pins_in_clusters = 0;
  for (const Cluster& c : clusters) {
    pfus_in_clusters += c.pfus;
    gates_in_clusters += c.gates;
    pins_in_clusters += c.pins;
  }
  EXPECT_EQ(pfus_in_arch, pfus_in_clusters);
  EXPECT_EQ(gates_in_arch, gates_in_clusters);
  EXPECT_EQ(pins_in_arch, pins_in_clusters);

  std::int64_t mem_in_arch = 0;
  for (const PeInstance& inst : arch.pes) mem_in_arch += inst.memory_used;
  std::int64_t mem_in_clusters = 0;
  for (const Cluster& c : clusters) mem_in_clusters += c.memory;
  EXPECT_EQ(mem_in_arch, mem_in_clusters);

  for (TimeNs comm : arch.link_total_comm) EXPECT_GE(comm, 0);
}

}  // namespace
}  // namespace crusade
