#include "tgs/map/cluster_map.h"

#include <algorithm>

#include "tgs/sched/workspace.h"
#include "tgs/unc/cluster_schedule.h"

namespace tgs {

std::vector<ProcId> clusters_of(const Schedule& s) {
  std::vector<ProcId> out(s.graph().num_nodes());
  for (NodeId n = 0; n < s.graph().num_nodes(); ++n) out[n] = s.proc(n);
  return out;
}

namespace {

struct ClusterInfo {
  ProcId id;
  Cost work;
  std::vector<NodeId> members;
};

std::vector<ClusterInfo> collect_clusters(const TaskGraph& g,
                                          const std::vector<ProcId>& clusters) {
  ProcId max_c = 0;
  for (ProcId c : clusters) max_c = std::max(max_c, c);
  std::vector<ClusterInfo> info(static_cast<std::size_t>(max_c) + 1);
  for (ProcId c = 0; c <= max_c; ++c) info[c].id = c;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    info[clusters[n]].work += g.weight(n);
    info[clusters[n]].members.push_back(n);
  }
  // Drop empty labels, sort by descending work (ties: smaller cluster id).
  std::erase_if(info, [](const ClusterInfo& c) { return c.members.empty(); });
  std::sort(info.begin(), info.end(), [](const ClusterInfo& a, const ClusterInfo& b) {
    if (a.work != b.work) return a.work > b.work;
    return a.id < b.id;
  });
  return info;
}

}  // namespace

Schedule map_clusters_sarkar(const TaskGraph& g,
                             const std::vector<ProcId>& clusters,
                             int num_procs, SchedWorkspace& ws) {
  const auto info = collect_clusters(g, clusters);

  // assign[n] = physical processor; nodes of unassigned clusters are parked
  // on a virtual processor so that partial evaluations stay comparable.
  std::vector<ProcId> assign(g.num_nodes(), 0);
  ClusterEvaluator eval(ws.attrs(), info.size() + std::max(num_procs, 0));

  // Greedy commit, considering execution order: evaluate the ordered
  // schedule of everything assigned so far plus the candidate cluster on
  // each processor. Unassigned clusters are evaluated on private virtual
  // processors (num_procs + k), approximating their future parallelism.
  for (std::size_t k = 0; k < info.size(); ++k)
    for (NodeId n : info[k].members)
      assign[n] = static_cast<ProcId>(num_procs + static_cast<int>(k));
  for (std::size_t k = 0; k < info.size(); ++k) {
    ProcId best_p = 0;
    Time best_len = kTimeInf;
    for (ProcId p = 0; p < num_procs; ++p) {
      for (NodeId n : info[k].members) assign[n] = p;
      // Only a strict improvement is kept, so a trial past best_len - 1
      // may stop early (ClusterEvaluator).
      const Time len = eval.makespan(assign, best_len - 1);
      if (len < best_len) {
        best_len = len;
        best_p = p;
      }
    }
    for (NodeId n : info[k].members) assign[n] = best_p;
  }
  return schedule_with_assignment(ws.attrs(), assign);
}

std::vector<ProcId> fit_clusters(const TaskGraph& g,
                                 std::vector<ProcId> clusters, int num_procs) {
  if (num_procs <= 0 || clusters.empty() ||
      *std::ranges::max_element(clusters) < num_procs)
    return clusters;
  // Yang's RCP fold: clusters in descending total-work order, each on the
  // least-loaded processor (ties: smaller id).
  std::vector<Cost> load(num_procs, 0);
  for (const ClusterInfo& c : collect_clusters(g, clusters)) {
    const ProcId p = static_cast<ProcId>(
        std::min_element(load.begin(), load.end()) - load.begin());
    for (NodeId n : c.members) clusters[n] = p;
    load[p] += c.work;
  }
  return clusters;
}

}  // namespace tgs
