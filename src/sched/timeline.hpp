// Per-resource occupancy timeline over periodic windows.
//
// Instead of unrolling [hyperperiod ÷ period] copies of every task (which
// the paper notes is impractical for multi-rate graphs and replaces with the
// association array), each scheduled task contributes ONE periodic window
// that exactly represents all of its copies; conflict queries use the exact
// gcd-based overlap test from util/periodic.hpp.  Windows tagged with
// different reconfiguration modes of a programmable device never conflict —
// mode-exclusive task graphs are guaranteed (by compatibility) never to
// execute simultaneously.
#pragma once

#include <cstdint>
#include <vector>

#include "util/periodic.hpp"
#include "util/time.hpp"

namespace crusade {

class Timeline {
 public:
  struct Window {
    PeriodicWindow span;  ///< busy span (may include preemption inflation)
    TimeNs work = 0;      ///< pure execution demand inside the span
    int mode = -1;   ///< PPE reconfiguration mode, -1 = modeless resource
    int owner = -1;  ///< flat task/edge id or synthetic reboot id
  };

  /// Shorter-period load on a preemptive CPU (the preemptors of a task).
  struct Interference {
    TimeNs exec = 0;
    TimeNs period = 0;
  };

  /// What fit searches did, for the sched.fit.* counters.
  struct FitStats {
    std::int64_t calls = 0;
    std::int64_t shifts = 0;     ///< jumps past a conflicting window
    std::int64_t certified = 0;  ///< no-fit proved (see earliest_fit)
    std::int64_t exhausted = 0;  ///< shift cap hit without a proof
  };

  /// Scratch a caller keeps across fit queries, so that a placement
  /// allocates nothing once its vectors have grown, plus the tallies of
  /// every query made through it.
  class FitScratch {
   public:
    FitStats stats;
    /// Filled by gather_preemptive(): the conflicting-mode windows with a
    /// shorter period (the preemptors) and the long-run utilization of
    /// those with a longer period (the background the task runs over).
    std::vector<Interference> preemptors;
    double utilization_above = 0;

   private:
    friend class Timeline;
    /// A window the query must avoid, with g = gcd(query period, window
    /// period): the query's conflict with it repeats every g.
    struct Conflict {
      TimeNs start, finish, g;
    };
    std::vector<Conflict> conflicts;
    /// lcm of the conflicts' g: whether a start fits repeats with this
    /// period (0 = no known period, a one-shot query).
    TimeNs repeat = 0;
    TimeNs period = 0, ignore_below = 0, ignore_above = kNoTime;
    int mode = -1;
  };

  void clear() { windows_.clear(); }
  void reserve(std::size_t n) { windows_.reserve(n); }
  const std::vector<Window>& windows() const { return windows_; }

  /// Earliest start >= ready at which [start, start+duration) with the given
  /// period fits without conflicting any window of the same mode (or any
  /// modeless window).  Windows with a positive period strictly below
  /// `ignore_below_period` are skipped — the preemptive-CPU path treats them
  /// as preemptors already paid for by response-time inflation; windows with
  /// a period strictly above `ignore_above_period` are skipped likewise —
  /// the new task preempts them, and their load is charged via the
  /// processor-sharing factor instead.  Returns kNoTime when no fit exists.
  ///
  /// One pass over the windows gathers the ones the query can meet; a jump
  /// search then scans them cyclically, each jump the least shift that
  /// clears one window.  For a periodic query (period P > 0) whether a start
  /// fits repeats every G = lcm of gcd(P, window period), which divides P,
  /// so a start pushed G past `ready` proves that nothing fits.  A shift cap
  /// of 6W+8 guards one-shot queries.
  TimeNs earliest_fit(TimeNs ready, TimeNs duration, TimeNs period, int mode,
                      TimeNs ignore_below_period = 0,
                      TimeNs ignore_above_period = kNoTime) const;

  /// The same query through a caller's scratch, adding to its tallies.
  TimeNs earliest_fit(FitScratch& scratch, TimeNs ready, TimeNs duration,
                      TimeNs period, int mode,
                      TimeNs ignore_below_period = 0,
                      TimeNs ignore_above_period = kNoTime) const;

  /// The preemptive-CPU placement's one pass over the windows for a task of
  /// `period`: fills scratch.preemptors and scratch.utilization_above, and
  /// gathers the equal-period (and one-shot) windows that fit_gathered()
  /// then places the inflated task against.
  void gather_preemptive(FitScratch& scratch, TimeNs period, int mode) const;

  /// earliest_fit over the windows the last gather selected.
  TimeNs fit_gathered(FitScratch& scratch, TimeNs ready,
                      TimeNs duration) const;

  /// The original search: rescan every window from the first after each
  /// shift, give up after 6W+8 shifts.  Kept as the oracle earliest_fit is
  /// tested against (and, in builds without NDEBUG, checked against on
  /// every call).
  TimeNs earliest_fit_reference(TimeNs ready, TimeNs duration, TimeNs period,
                                int mode, TimeNs ignore_below_period = 0,
                                TimeNs ignore_above_period = kNoTime) const;

  /// `work` is the uninflated execution demand; interference and
  /// utilization queries use it instead of the (possibly preemption-
  /// inflated) busy span so pessimism does not compound.  Defaults to the
  /// span length.
  void add(TimeNs start, TimeNs finish, TimeNs period, int mode, int owner,
           TimeNs work = kNoTime);

  /// Total long-run utilization of the resource (sum of length/period over
  /// windows, counting each mode separately).
  double utilization() const;

 private:
  static bool conflicts_mode(int a, int b) {
    return a < 0 || b < 0 || a == b;
  }
  static bool ignored(TimeNs window_period, TimeNs ignore_below,
                      TimeNs ignore_above) {
    return window_period > 0 &&
           (window_period < ignore_below ||
            (ignore_above != kNoTime && window_period > ignore_above));
  }
  void gather(FitScratch& scratch, TimeNs period, int mode,
              TimeNs ignore_below, TimeNs ignore_above) const;
  TimeNs jump_search(const FitScratch& scratch, TimeNs ready,
                     TimeNs duration, FitStats& stats) const;
  /// Builds without NDEBUG run every fit through the reference search: where
  /// the reference finds a start, `got` must be that start.
  void check_against_reference(const FitScratch& scratch, TimeNs ready,
                               TimeNs duration, TimeNs got) const;

  std::vector<Window> windows_;
};

}  // namespace crusade
