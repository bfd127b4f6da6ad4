#include "sched/timeline.hpp"

#include <numeric>

#include "util/error.hpp"

namespace crusade {

void Timeline::gather(FitScratch& s, TimeNs period, int mode,
                      TimeNs ignore_below, TimeNs ignore_above) const {
  s.period = period;
  s.mode = mode;
  s.ignore_below = ignore_below;
  s.ignore_above = ignore_above;
  s.conflicts.clear();
  // Every g divides a periodic query's period, so their lcm does too.
  s.repeat = period > 0 ? 1 : 0;
  TimeNs last_period = -1, g = 0;  // windows on a resource share periods
  for (const Window& w : windows_) {
    // Empty windows never overlap anything.
    if (!conflicts_mode(mode, w.mode) || w.span.empty() ||
        ignored(w.span.period, ignore_below, ignore_above))
      continue;
    if (w.span.period != last_period) {
      last_period = w.span.period;
      g = std::gcd(period, last_period);
      if (s.repeat > 0 && s.repeat % g != 0) s.repeat = std::lcm(s.repeat, g);
    }
    s.conflicts.push_back({w.span.start, w.span.finish, g});
  }
}

void Timeline::gather_preemptive(FitScratch& s, TimeNs period,
                                 int mode) const {
  s.period = period;
  s.mode = mode;
  s.ignore_below = period;
  s.ignore_above = period;
  s.conflicts.clear();
  s.repeat = period;
  s.preemptors.clear();
  s.utilization_above = 0;
  // Window order matters for the utilization sum: it is floating point.
  for (const Window& w : windows_) {
    if (!conflicts_mode(mode, w.mode)) continue;
    const TimeNs p = w.span.period;
    if (p > 0 && p < period) {
      s.preemptors.push_back({w.work, p});
    } else if (p > period) {
      s.utilization_above +=
          static_cast<double>(w.work) / static_cast<double>(p);
    } else if (!w.span.empty()) {
      // p == period or a one-shot window: g = gcd(period, p) = period.
      s.conflicts.push_back({w.span.start, w.span.finish, period});
    }
  }
}

TimeNs Timeline::jump_search(const FitScratch& s, TimeNs ready,
                             TimeNs duration, FitStats& stats) const {
  // Invariant: no start in [ready, start) fits.  Each jump is the least
  // shift that clears one conflicting window, so it never passes a start
  // that fits.  The scan resumes after the window that caused the jump and
  // stops once a full cycle of windows is clean.
  const std::vector<FitScratch::Conflict>& c = s.conflicts;
  const std::size_t n = c.size();
  // The reference's guard: it gives up on the 6W+8th shift.
  int cap_left = static_cast<int>(windows_.size()) * 6 + 8;
  TimeNs start = ready;
  for (std::size_t i = 0, clean = 0; clean < n; i = i + 1 == n ? 0 : i + 1) {
    // The query shifted by d meets window w iff a multiple of g lies in
    // the open interval (lo + d, hi + d) (util/periodic.hpp).
    const FitScratch::Conflict& w = c[i];
    const TimeNs lo = start - w.finish;
    const TimeNs hi = start + duration - w.start;
    TimeNs shift = 0;
    if (w.g == 0) {  // both one-shot: only offset 0 is achievable
      if (lo < 0 && hi > 0) shift = -lo;
    } else {
      // m = the largest multiple of g strictly below hi.
      TimeNs r = (hi - 1) % w.g;
      if (r < 0) r += w.g;
      const TimeNs m = hi - 1 - r;
      if (m > lo) {
        if (hi - lo > w.g) {  // the query collides at every phase
          ++stats.certified;
          return kNoTime;
        }
        shift = m - lo;
      }
    }
    if (shift == 0) {
      ++clean;
      continue;
    }
    start += shift;
    ++stats.shifts;
    clean = 1;
    // Fitting repeats every `repeat`: a full stretch of starts that do not
    // fit proves none ever does.
    if (s.repeat > 0 && start - ready >= s.repeat) {
      ++stats.certified;
      return kNoTime;
    }
    if (--cap_left == 0) {
      ++stats.exhausted;
      return kNoTime;
    }
  }
  return start;
}

TimeNs Timeline::fit_gathered(FitScratch& s, TimeNs ready,
                              TimeNs duration) const {
  CRUSADE_REQUIRE(duration >= 0, "negative duration");
  ++s.stats.calls;
  if (duration == 0) return ready;
  const TimeNs fit = jump_search(s, ready, duration, s.stats);
#ifndef NDEBUG
  check_against_reference(s, ready, duration, fit);
#endif
  return fit;
}

void Timeline::check_against_reference(const FitScratch& s, TimeNs ready,
                                       TimeNs duration, TimeNs got) const {
  const TimeNs expected = earliest_fit_reference(
      ready, duration, s.period, s.mode, s.ignore_below, s.ignore_above);
  if (expected != kNoTime) {
    CRUSADE_REQUIRE(got == expected,
                    "earliest_fit disagrees with earliest_fit_reference");
    return;
  }
  // The reference gave up at its shift cap; a start the kernel found must
  // still clear every window the query can meet.
  if (got == kNoTime) return;
  CRUSADE_REQUIRE(got >= ready, "earliest_fit returned a start before ready");
  const PeriodicWindow placed{got, got + duration, s.period};
  for (const Window& w : windows_)
    if (conflicts_mode(s.mode, w.mode) &&
        !ignored(w.span.period, s.ignore_below, s.ignore_above))
      CRUSADE_REQUIRE(!periodic_overlap(placed, w.span),
                      "earliest_fit returned a start that conflicts");
}

TimeNs Timeline::earliest_fit(FitScratch& scratch, TimeNs ready,
                              TimeNs duration, TimeNs period, int mode,
                              TimeNs ignore_below_period,
                              TimeNs ignore_above_period) const {
  gather(scratch, period, mode, ignore_below_period, ignore_above_period);
  return fit_gathered(scratch, ready, duration);
}

TimeNs Timeline::earliest_fit(TimeNs ready, TimeNs duration, TimeNs period,
                              int mode, TimeNs ignore_below_period,
                              TimeNs ignore_above_period) const {
  thread_local FitScratch scratch;
  return earliest_fit(scratch, ready, duration, period, mode,
                      ignore_below_period, ignore_above_period);
}

TimeNs Timeline::earliest_fit_reference(TimeNs ready, TimeNs duration,
                                        TimeNs period, int mode,
                                        TimeNs ignore_below_period,
                                        TimeNs ignore_above_period) const {
  CRUSADE_REQUIRE(duration >= 0, "negative duration");
  if (duration == 0) return ready;
  TimeNs start = ready;
  // Each shift clears at least one conflicting window; with shifting phase
  // relationships a bounded retry count keeps the search total.  Failure to
  // fit simply rejects the allocation candidate upstream.
  const int max_iterations = static_cast<int>(windows_.size()) * 6 + 8;
  for (int iter = 0; iter < max_iterations; ++iter) {
    bool moved = false;
    for (const Window& w : windows_) {
      if (!conflicts_mode(mode, w.mode)) continue;
      if (w.span.period > 0 && w.span.period < ignore_below_period) continue;
      if (ignore_above_period != kNoTime && w.span.period > 0 &&
          w.span.period > ignore_above_period)
        continue;
      const PeriodicWindow candidate{start, start + duration, period};
      if (!periodic_overlap(candidate, w.span)) continue;
      const TimeNs shift = min_shift_to_avoid(candidate, w.span);
      if (shift == kNoTime) return kNoTime;
      start += shift;
      moved = true;
      break;
    }
    if (!moved) return start;
  }
  return kNoTime;
}

void Timeline::add(TimeNs start, TimeNs finish, TimeNs period, int mode,
                   int owner, TimeNs work) {
  CRUSADE_REQUIRE(finish >= start, "window ends before it starts");
  if (work == kNoTime) work = finish - start;
  windows_.push_back(
      Window{PeriodicWindow{start, finish, period}, work, mode, owner});
}

double Timeline::utilization() const {
  double u = 0;
  for (const Window& w : windows_)
    if (w.span.period > 0)
      u += static_cast<double>(w.work) / static_cast<double>(w.span.period);
  return u;
}

}  // namespace crusade
