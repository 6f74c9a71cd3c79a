// PinnedLevels: the t-levels of a partial schedule, kept current one
// placement at a time.
//
// A placed task is pinned at its start. An unplaced task u takes
//   t(u) = max over parents q of t(q) + w(q) + c(q, u),
// with c the edge cost (MD's and DCP's estimate: u's processor is not
// known yet) or 0 (branch and bound's comm-free critical-path bound). This
// is Schedule::pinned_t_levels, maintained incrementally: only the placed
// task's descendants can change, so place(n, start) re-evaluates the dirty
// ones in topological-position order and stops along a path where a value
// does not change. Every value it overwrites goes to an undo log, so
// unplace(n) restores the state before the matching place (LIFO).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/util/types.h"

namespace tgs {

class PinnedLevels {
 public:
  enum class EdgeCosts { kKeep, kZero };

  /// Levels of the empty schedule of `g` (the t-levels, or the comm-free
  /// t-levels under kZero).
  PinnedLevels(const TaskGraph& g, EdgeCosts costs);

  Time operator[](NodeId n) const { return t_[n]; }

  /// Pin unplaced task n at `start` and update its descendants. Placed
  /// descendants stay pinned. Returns the tasks whose value this call
  /// wrote, n first; the span lives until the next place, unplace or
  /// commit.
  std::span<const NodeId> place(NodeId n, Time start);

  /// Undo the latest place(n) that is neither undone nor committed.
  void unplace(NodeId n);

  /// Make every placement so far permanent by dropping the undo log
  /// (schedulers that never backtrack call it after each place).
  void commit();

 private:
  Time recompute(NodeId u) const;
  void mark_children(NodeId u);
  void write(NodeId u, Time value);

  const TaskGraph* graph_;
  bool keep_costs_;
  std::vector<Time> t_;
  std::vector<std::uint32_t> pos_;  // position in the topological order
  std::vector<std::uint8_t> placed_;
  std::vector<std::uint8_t> dirty_;
  std::size_t pending_ = 0;  // dirty tasks the sweep has not reached

  // Undo log: (task, value before) per write, and the log size at each
  // live place().
  std::vector<NodeId> log_node_;
  std::vector<Time> log_old_;
  std::vector<std::size_t> marks_;
};

}  // namespace tgs
