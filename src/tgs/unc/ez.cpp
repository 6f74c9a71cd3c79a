// The edge-zeroing cluster core of EZ (Sarkar). The EzScheduler in ez.h is
// the parameter point bl/static/append/ez; this file holds the clustering
// pass the ParamScheduler's ClusterStep invokes.
//
// Each tentative merge is evaluated by a ClusterEvaluator
// (cluster_schedule.h) with bound = best, which is exact because EZ
// accepts iff makespan <= best. Labels change in place: the evaluation
// only compares cluster labels for equality, so a trial merge relabels the
// smaller cluster into the larger one, a rejection relabels it back
// (O(smaller)), and a commit splices the two member lists (O(1)); labels
// are densified once, at the end, by first appearance in node-id order
// (= dense_assignment).
#include <algorithm>
#include <vector>

#include "tgs/sched/workspace.h"
#include "tgs/unc/cluster_schedule.h"
#include "tgs/unc/clustering.h"

namespace tgs {

namespace {

// Cluster membership as flat arrays: label[n] is n's cluster, and each
// cluster c chains its members head[c] -> next[...] -> ... -> tail[c].
struct ClusterLists {
  explicit ClusterLists(NodeId v)
      : label(v), head(v), tail(v), next(v, kNoNode), size(v, 1) {
    for (NodeId n = 0; n < v; ++n) {
      label[n] = static_cast<ProcId>(n);
      head[n] = tail[n] = n;
    }
  }

  void relabel(NodeId c, NodeId to) {
    for (NodeId m = head[c]; m != kNoNode; m = next[m])
      label[m] = static_cast<ProcId>(to);
  }

  // Append c's members to `into` (labels already moved by relabel).
  void splice(NodeId c, NodeId into) {
    next[tail[into]] = head[c];
    tail[into] = tail[c];
    size[into] += size[c];
  }

  std::vector<ProcId> label;
  std::vector<NodeId> head, tail, next, size;
};

}  // namespace

std::vector<ProcId> ez_clusters(const TaskGraph& g, SchedWorkspace& ws) {
  struct EdgeRef {
    NodeId u, v;
    Cost cost;
  };
  std::vector<EdgeRef> edges;
  edges.reserve(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const Adj& c : g.children(u)) edges.push_back({u, c.node, c.cost});
  std::sort(edges.begin(), edges.end(), [](const EdgeRef& a, const EdgeRef& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });

  ClusterLists cl(g.num_nodes());
  ClusterEvaluator eval(ws.attrs(), g.num_nodes());
  Time best = eval.makespan(cl.label);

  for (const EdgeRef& e : edges) {
    NodeId big = static_cast<NodeId>(cl.label[e.u]);
    NodeId small = static_cast<NodeId>(cl.label[e.v]);
    if (big == small) continue;  // already zeroed transitively
    ws.deadline().poll();
    if (cl.size[big] < cl.size[small]) std::swap(big, small);
    cl.relabel(small, big);
    const Time len = eval.makespan(cl.label, best);
    if (len <= best) {
      best = len;  // commit (Sarkar: accept when not worse)
      cl.splice(small, big);
    } else {
      cl.relabel(small, small);
    }
  }

  return densify(cl.label);
}

std::vector<ProcId> ez_clusters(const TaskGraph& g) {
  SchedWorkspace ws;
  ws.begin_graph(g);
  return ez_clusters(g, ws);
}

}  // namespace tgs
