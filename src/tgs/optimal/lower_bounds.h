// Lower bounds for the branch-and-bound optimal scheduler.
//
// Both bounds are valid for the fully-connected contention-free machine
// with p processors and task placement by insertion:
//
//  * Critical-path bound: communication can at best be zeroed, so for any
//    (partially scheduled) state, every task u must still be followed by
//    its comm-free static level sl_nc(u); placed tasks are pinned at their
//    start times, unscheduled ones at an optimistic comm-free earliest
//    start (PinnedLevels with EdgeCosts::kZero). Branch and bound keeps it
//    current incrementally; evaluate() recomputes it from scratch.
//  * Load bound: the constant ceil(W / p), W the total work. The dynamic
//    form -- every unit of unscheduled work fills an idle gap or extends
//    some processor's finish, so the makespan is at least
//    ceil((sum of finishes + max(0, remaining - idle gaps)) / p) -- adds
//    nothing to it. When the schedule has exactly p timelines holding
//    only its placed tasks, the busy times sum to the placed work, so
//    remaining - idle gaps = W - sum of finishes and the dynamic bound is
//    ceil(max(sum of finishes, W) / p). As ceil(sum of finishes / p) never
//    exceeds the makespan, max(dynamic bound, makespan) equals
//    max(ceil(W / p), makespan) in every state.
#pragma once

#include <algorithm>
#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/sched/schedule.h"

namespace tgs {

/// Precomputation for bound evaluation on one graph and processor count.
class LowerBounds {
 public:
  explicit LowerBounds(const TaskGraph& g, int num_procs);

  /// Lower bound on the completion of any extension of a partial schedule
  /// from its critical-path bound `cp` and its makespan.
  Time combine(Time cp, Time makespan) const {
    return std::max({cp, load_bound_, makespan});
  }

  /// The same bound with the critical-path pass run from scratch on `s`
  /// (`s` has num_procs timelines).
  Time evaluate(const Schedule& s) const;

  const std::vector<Time>& static_levels_nocomm() const { return sl_nc_; }

 private:
  const TaskGraph* graph_;
  std::vector<Time> sl_nc_;
  Time load_bound_;
};

}  // namespace tgs
