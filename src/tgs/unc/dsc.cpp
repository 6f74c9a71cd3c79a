#include "tgs/unc/dsc.h"

#include <algorithm>
#include <vector>

#include "tgs/graph/attributes.h"
#include "tgs/list/ready_list.h"
#include "tgs/map/cluster_map.h"
#include "tgs/unc/cluster_schedule.h"
#include "tgs/unc/clustering.h"

namespace tgs {

namespace {

// DSC's clustering walk: each node's cluster (numbered in the order the
// clusters open) and its start time on it.
struct DscClusters {
  std::vector<ProcId> cluster;
  std::vector<Time> start;
  int num_clusters = 0;
};

DscClusters dsc_core(const TaskGraph& g, SchedWorkspace& ws) {
  const NodeId n = g.num_nodes();
  const std::vector<Time>& bl = ws.attrs().b_levels();

  // Cluster state: cluster and start time of each examined node, and the
  // finish time of each cluster's last appended node.
  DscClusters r{std::vector<ProcId>(n, kNoProc), std::vector<Time>(n, 0)};
  std::vector<ProcId>& cluster = r.cluster;
  std::vector<Time>& start = r.start;
  std::vector<Time> cluster_finish;  // indexed by cluster id
  std::vector<ProcId> cand;

  ReadyList free_nodes(g);  // "free" in DSC terms: all parents examined

  auto finish_of = [&](NodeId u) { return start[u] + g.weight(u); };

  while (!free_nodes.empty()) {
    ws.deadline().poll();
    // Highest tlevel + blevel among free nodes; tlevel of a free node is
    // its best start on a fresh cluster = max over parents FT + c.
    NodeId nf = kNoNode;
    Time nf_prio = -1;
    Time nf_tlevel = 0;
    for (NodeId u : free_nodes.ready()) {
      Time tl = 0;
      for (const Adj& par : g.parents(u))
        tl = std::max(tl, finish_of(par.node) + par.cost);
      const Time prio = tl + bl[u];
      if (prio > nf_prio || (prio == nf_prio && u < nf)) {
        nf = u;
        nf_prio = prio;
        nf_tlevel = tl;
      }
    }

    // Candidate clusters: those of nf's parents. Appending nf to cluster C
    // zeroes the edges from every parent inside C.
    Time best_start = nf_tlevel;  // fresh-cluster start
    ProcId best_cluster = kNoProc;
    cand.clear();
    for (const Adj& par : g.parents(nf)) {
      const ProcId c = cluster[par.node];
      if (std::find(cand.begin(), cand.end(), c) == cand.end())
        cand.push_back(c);
    }
    std::sort(cand.begin(), cand.end());
    for (ProcId c : cand) {
      Time ready = 0;
      for (const Adj& par : g.parents(nf)) {
        const Time ft = finish_of(par.node);
        ready = std::max(ready, cluster[par.node] == c ? ft : ft + par.cost);
      }
      const Time st = std::max(ready, cluster_finish[c]);
      if (st < best_start) {  // strict improvement only
        best_start = st;
        best_cluster = c;
      }
    }

    if (best_cluster == kNoProc) {
      // Open a fresh cluster for nf.
      best_cluster = static_cast<ProcId>(cluster_finish.size());
      cluster_finish.push_back(0);
    }
    cluster[nf] = best_cluster;
    start[nf] = best_start;
    cluster_finish[best_cluster] = best_start + g.weight(nf);
    free_nodes.mark_scheduled(nf);
  }
  r.num_clusters = static_cast<int>(cluster_finish.size());
  return r;
}

}  // namespace

std::vector<ProcId> dsc_clusters(const TaskGraph& g, SchedWorkspace& ws) {
  return densify(dsc_core(g, ws).cluster);
}

Schedule DscScheduler::do_run(const TaskGraph& g, const SchedOptions& opt,
                              SchedWorkspace& ws) const {
  const DscClusters r = dsc_core(g, ws);
  if (opt.num_procs > 0 && r.num_clusters > opt.num_procs) {
    // More clusters than processors: fold them with the same RCP rule as
    // every clustered parameter point and list-schedule the result.
    return schedule_with_assignment(
        g, fit_clusters(g, densify(r.cluster), opt.num_procs));
  }
  // Placements are exactly the (cluster, start) pairs; an empty graph
  // keeps one processor.
  Schedule sched(g, std::max(r.num_clusters, 1));
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    sched.place(u, r.cluster[u], r.start[u]);
  return sched;
}

}  // namespace tgs
