// Priority attribute helpers shared by the list-scheduling algorithms
// (paper §3 "Assigning Priorities to Nodes").
#pragma once

#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/util/types.h"

namespace tgs {

/// Nodes sorted by descending priority; ties broken by smaller node id.
std::vector<NodeId> order_by_descending(const std::vector<Time>& priority);

/// Index of the max-priority element of `candidates` (smallest id on ties).
NodeId argmax_priority(const std::vector<NodeId>& candidates,
                       const std::vector<Time>& priority);

}  // namespace tgs
