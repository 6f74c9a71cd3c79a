// Cluster scheduling (CS): mapping UNC clusters onto a bounded number of
// physical processors.
//
// Paper §7: "In UNC algorithms, clusters obtained through scheduling are
// assigned to a bounded number of processors. ... Two such algorithms
// called Sarkar's assignment algorithm and Yang's RCP algorithm" — Sarkar
// merges clusters while considering the execution order (it re-evaluates
// the ordered schedule after every tentative merge); RCP merges purely by
// load, which is cheaper but can make poor choices. The paper leaves
// "BNP vs UNC+CS" as future work; bench/ext_unc_cs runs that comparison.
//
// Both functions take the cluster labels of a UNC schedule (cluster id per
// node) and put them on `num_procs` processors; nodes of one cluster
// always stay together.
#pragma once

#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/sched/schedule.h"
#include "tgs/util/types.h"

namespace tgs {

class SchedWorkspace;

/// Extract the cluster labels (processor ids) of a completed schedule.
std::vector<ProcId> clusters_of(const Schedule& s);

/// Sarkar's assignment: clusters in descending total-work order; each is
/// committed to the processor that minimizes the makespan of the ordered
/// partial schedule (execution order = descending b-level, as in
/// cluster_schedule.h). `ws` must be bound to `g`. O(k * p * (v + e)) for
/// k clusters.
Schedule map_clusters_sarkar(const TaskGraph& g,
                             const std::vector<ProcId>& clusters,
                             int num_procs, SchedWorkspace& ws);

/// Put UNC clusters on a bounded machine. With more clusters than
/// `num_procs`, fold them with Yang's RCP rule (clusters in descending
/// total-work order, each on the least-loaded processor) and return the
/// node -> processor map; otherwise, or when `num_procs` <= 0
/// (unbounded), return `clusters` unchanged. Every clustered parameter
/// point, bounded DSC and the UNC+CS RCP mapping use this one fold.
std::vector<ProcId> fit_clusters(const TaskGraph& g,
                                 std::vector<ProcId> clusters, int num_procs);

}  // namespace tgs
