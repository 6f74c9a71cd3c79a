// Schedule: an assignment of every task to (processor, start time).
//
// The machine model is the paper's §2: homogeneous processors, task
// execution is non-preemptive, a processor runs one task at a time. The
// fully-connected contention-free communication model (BNP/UNC classes)
// needs nothing beyond this; the APN class adds link timelines on top (see
// net/net_schedule.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/sched/timeline.h"
#include "tgs/util/types.h"

namespace tgs {

class Schedule {
 public:
  /// `num_procs_hint` pre-allocates timelines; the schedule grows on demand
  /// when tasks are placed on higher-numbered processors.
  explicit Schedule(const TaskGraph& g, int num_procs_hint = 0);

  const TaskGraph& graph() const { return *graph_; }

  /// Place task n on processor p at `start`; throws on double placement or
  /// processor-time overlap.
  void place(NodeId n, ProcId p, Time start);

  /// Remove a placed task (branch and bound backtracks with it).
  void unplace(NodeId n);

  /// Become a copy of `src` (same graph) holding only the tasks n with
  /// rank[n] < k, by filtered timeline copies (Timeline::assign_filtered).
  /// When src was built by placing tasks in ascending rank and never
  /// unplacing one, the result equals src's state after its first k
  /// placements. `src` must not be this schedule.
  void assign_prefix(const Schedule& src, std::span<const std::uint32_t> rank,
                     std::uint32_t k);

  bool is_placed(NodeId n) const { return proc_[n] != kNoProc; }
  ProcId proc(NodeId n) const { return proc_[n]; }
  Time start(NodeId n) const { return start_[n]; }
  Time finish(NodeId n) const { return start_[n] + graph_->weight(n); }

  /// Number of processor timelines allocated (>= highest placed proc + 1).
  int num_procs() const { return static_cast<int>(timelines_.size()); }

  /// Processors actually holding at least one task.
  int procs_used() const;

  /// Max finish time over placed tasks (0 when nothing is placed).
  Time makespan() const;

  /// Earliest feasible start of a `dur` block on p at/after `ready`.
  Time earliest_start_on(ProcId p, Time ready, Cost dur, bool insertion) const;

  /// Busy intervals of processor p, sorted by start (owner = NodeId).
  const Timeline& timeline(ProcId p) const { return timelines_[p]; }

  /// True when every task of the graph has been placed.
  bool complete() const { return placed_count_ == graph_->num_nodes(); }

  std::size_t placed_count() const { return placed_count_; }

  /// Data-ready time of task n on processor p under the fully-connected
  /// model: max over placed parents of FT(parent) + (same-proc ? 0 : c).
  /// Unplaced parents are ignored (callers schedule in precedence order).
  Time data_ready(NodeId n, ProcId p) const;

  /// Convenience: earliest start of task n on p = fit(data_ready, w(n)).
  Time est(NodeId n, ProcId p, bool insertion) const;

  /// t-levels of the partial schedule into `t` (one entry per task): a
  /// placed task is pinned at its start; an unplaced one gets the max over
  /// its parents of t + w + c, the edge cost kept because its processor is
  /// not known yet. The full pass PinnedLevels keeps current
  /// incrementally (sched/pinned_levels.h); tests use it as the oracle.
  void pinned_t_levels(std::vector<Time>& t) const;

 private:
  void ensure_proc(ProcId p);

  const TaskGraph* graph_;
  std::vector<Timeline> timelines_;
  std::vector<ProcId> proc_;
  std::vector<Time> start_;
  std::size_t placed_count_ = 0;
};

}  // namespace tgs
