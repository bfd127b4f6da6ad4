// Static priority-level list scheduler with restricted preemption (paper
// §2.2 "Scheduling" and §5).
//
// One frame copy of every task graph is scheduled; each placement enters a
// periodic window on its resource timeline that exactly represents all
// hyperperiod copies (the association-array idea of §5: copies are never
// instantiated).  CPUs support restricted preemption: a task may overlap
// previously placed shorter-period windows, paying for their interference
// via response-time inflation plus the per-preemption OS overhead; all other
// resources (ASICs, FPGA/CPLD modes, links) are strictly non-preemptive.
// Reconfiguration boot time enters as a reboot pseudo-task placed at the
// head of every mode of a multi-mode programmable device (§4.3).
#pragma once

#include <vector>

#include "sched/flat.hpp"
#include "sched/priority.hpp"
#include "sched/timeline.hpp"
#include "util/time.hpp"

namespace crusade {

/// One schedulable resource: a PE instance or a link instance.
struct SchedResourceInfo {
  bool preemptive = false;          ///< true for CPUs
  /// Hardware PEs execute their resident tasks concurrently — every task
  /// owns dedicated gates/PFUs — so same-mode windows do not serialize; the
  /// binding constraint is area, enforced at allocation.  CPUs and links
  /// are serial (false).
  bool concurrent = false;
  TimeNs preemption_overhead = 0;   ///< per preemption (interrupt + switch)
  /// Reconfiguration time per mode; empty for modeless resources, all-zero
  /// for single-mode programmable devices (configured once at power-up).
  std::vector<TimeNs> mode_boot;
};

struct SchedProblem {
  const FlatSpec* flat = nullptr;
  std::vector<int> task_resource;  ///< per task: resource id, -1 unallocated
  std::vector<int> task_mode;      ///< per task: PPE mode, -1 modeless
  std::vector<TimeNs> task_exec;   ///< execution time on its resource
  std::vector<int> edge_resource;  ///< per edge: link id, -1 = intra-PE
  std::vector<TimeNs> edge_comm;   ///< communication time (0 when intra-PE)
  std::vector<SchedResourceInfo> resources;
  /// Optimistic (admissible) execution estimates for tasks that are not yet
  /// allocated, used by the longest-path finish-time estimation pass (§5).
  /// Optional; no estimation happens without it.
  const std::vector<TimeNs>* task_optimistic = nullptr;
};

/// The three numbers candidate evaluation compares (§5: scheduling plus
/// finish-time estimation).
struct ScheduleScore {
  int failures = 0;      ///< ScheduleResult::placement_failures
  TimeNs tardiness = 0;  ///< ScheduleResult::total_tardiness
  TimeNs estimate = 0;   ///< ScheduleResult::estimated_tardiness

  /// The best-of ordering: fewer failures, then less tardiness plus
  /// estimated tardiness.
  bool better_than(const ScheduleScore& other) const {
    if (failures != other.failures) return failures < other.failures;
    return tardiness + estimate < other.tardiness + other.estimate;
  }
  /// The acceptance test: no worse than `bar` on any of the three.
  bool no_worse_than(const ScheduleScore& bar) const {
    return failures <= bar.failures && tardiness <= bar.tardiness &&
           estimate <= bar.estimate;
  }
};

struct ScheduleResult {
  std::vector<TimeNs> task_start, task_finish;  ///< kNoTime = not scheduled
  std::vector<TimeNs> edge_start, edge_finish;
  std::vector<Timeline> timelines;  ///< final occupancy per resource
  TimeNs total_tardiness = 0;       ///< summed deadline overruns
  /// Deadline overruns projected onto not-yet-allocated tasks via
  /// longest-path estimation with optimistic remaining work (§5
  /// finish-time estimation): if even the optimistic completion misses the
  /// deadline, this allocation has already poisoned the path.
  TimeNs estimated_tardiness = 0;
  int placement_failures = 0;       ///< schedulable tasks/edges with no fit
  /// Flat ids of edges whose link placement failed (ring saturated) — the
  /// targets for the allocator's rewiring repair.
  std::vector<int> failed_edges;
  int scheduled_tasks = 0;
  bool feasible = false;  ///< all schedulable tasks placed, no tardiness

  bool deadline_met(int tid, const FlatSpec& flat) const;
  ScheduleScore score() const {
    return {placement_failures, total_tardiness, estimated_tardiness};
  }
};

/// Runs the list scheduler; tasks whose ancestry is not fully allocated are
/// skipped (their deadlines cannot be judged yet).
ScheduleResult run_list_scheduler(const SchedProblem& problem,
                                  const PriorityLevels& levels);

/// Busy windows per task graph (tasks and edges), used to derive the
/// compatibility matrix from a schedule (Figure 3).
std::vector<std::vector<PeriodicWindow>> graph_busy_windows(
    const FlatSpec& flat, const ScheduleResult& schedule);

}  // namespace crusade
