// Turning a cluster assignment into a concrete schedule.
//
// Given a fixed node -> cluster (processor) assignment, tasks are ordered
// by descending b-level (a valid topological order, since b-level strictly
// decreases along every edge) and each starts at
//   max(processor available time, data-ready time)
// with communication zeroed inside a cluster. This is the evaluation EZ
// repeats after every tentative merge and Sarkar's mapping after every
// (cluster, processor) trial (both through ClusterEvaluator), and the
// final materialization of bounded DSC's folded clusters and of the
// Sarkar and RCP mappings of the UNC+CS extension.
#pragma once

#include <cstddef>
#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/sched/schedule.h"
#include "tgs/util/types.h"

namespace tgs {

/// List-schedule `g` with the fixed `assign`ment (one entry per node),
/// append-only: clusters are sequential task chains in the UNC model.
Schedule schedule_with_assignment(const TaskGraph& g,
                                  const std::vector<ProcId>& assign);

/// The makespan of schedule_with_assignment without building a Schedule,
/// for loops that evaluate many assignments of one graph. Buffers live
/// across calls, so an evaluation allocates nothing, and only the
/// clusters the visited prefix touched are reset afterwards.
///
/// Early rejection: b-level order is topological (node weights are
/// positive), so no child starts before its parent finishes, and a node
/// that starts at st forces makespan >= st + sl(n), sl being the static
/// level (compute-only longest path from n, w(n) included). The walk
/// stops at the first node with st + sl(n) > bound. A caller that keeps
/// an assignment iff its makespan is <= bound (EZ: bound = best; Sarkar,
/// which keeps only strict improvements: bound = best - 1) therefore
/// makes the same decision as with the full walk.
class ClusterEvaluator {
 public:
  /// Labels passed to makespan() must lie in [0, num_labels).
  ClusterEvaluator(const TaskGraph& g, std::size_t num_labels);

  /// The exact makespan of `assign` if it is <= bound; otherwise some
  /// value > bound.
  Time makespan(const std::vector<ProcId>& assign, Time bound = kTimeInf);

 private:
  const TaskGraph& g_;
  std::vector<NodeId> order_;
  std::vector<Time> sl_, start_, avail_;
};

/// ClusterEvaluator's exact makespan of one assignment.
Time assignment_makespan(const TaskGraph& g, const std::vector<ProcId>& assign);

/// Deterministic order of the walk: descending b-level, ties by node id.
/// Exposed for tests.
std::vector<NodeId> blevel_order(const TaskGraph& g);

}  // namespace tgs
