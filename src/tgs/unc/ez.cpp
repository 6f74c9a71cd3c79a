// The edge-zeroing cluster core of EZ (Sarkar). The EzScheduler in ez.h is
// the parameter point bl/static/append/ez; this file holds the clustering
// pass the ParamScheduler's ClusterStep invokes.
//
// Each tentative merge is evaluated with the append-only b-level-order
// cluster schedule of assignment_makespan (cluster_schedule.h), with three
// exact shortcuts that leave every accept/reject decision unchanged:
//  * labels in place: the evaluation only compares cluster labels for
//    equality, so a trial merge relabels the smaller cluster into the
//    larger one, a rejection relabels it back (O(smaller)), and a commit
//    splices the two member lists (O(1)); labels are densified once, at
//    the end, by first appearance in node-id order (= dense_assignment);
//  * early rejection: b-level order is topological (node weights are
//    positive), so no child starts before its parent finishes, and a node
//    that starts at st forces makespan >= st + sl(n), sl being the static
//    level (compute-only longest path from n, w(n) included). EZ accepts
//    iff makespan <= best, so the evaluation stops at the first node with
//    st + sl(n) > best without changing the decision; a completed
//    evaluation yields the exact makespan;
//  * no allocation per merge: the evaluator's buffers live across the loop
//    and only the clusters the visited prefix touched are reset.
#include <algorithm>
#include <limits>
#include <vector>

#include "tgs/graph/attributes.h"
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
    for (NodeId n = 0; n < v; ++n) label[n] = head[n] = tail[n] = n;
  }

  void relabel(NodeId c, NodeId to) {
    for (NodeId m = head[c]; m != kNoNode; m = next[m]) label[m] = to;
  }

  // Append c's members to `into` (labels already moved by relabel).
  void splice(NodeId c, NodeId into) {
    next[tail[into]] = head[c];
    tail[into] = tail[c];
    size[into] += size[c];
  }

  std::vector<NodeId> label, head, tail, next, size;
};

// assignment_makespan over node labels, with a rejection bound.
class BoundedEvaluator {
 public:
  explicit BoundedEvaluator(const TaskGraph& g)
      : g_(g),
        order_(blevel_order(g)),
        sl_(static_levels(g)),
        start_(g.num_nodes(), 0),
        avail_(g.num_nodes(), 0) {}

  // The makespan assignment_makespan gives for `label` if it is <= bound;
  // otherwise some value > bound.
  Time makespan(const std::vector<NodeId>& label, Time bound) {
    Time makespan = 0;
    std::size_t i = 0;
    for (; i < order_.size(); ++i) {
      const NodeId n = order_[i];
      const NodeId p = label[n];
      Time ready = 0;
      for (const Adj& par : g_.parents(n)) {
        const Time ft = start_[par.node] + g_.weight(par.node);
        ready = std::max(ready, label[par.node] == p ? ft : ft + par.cost);
      }
      const Time st = std::max(ready, avail_[p]);
      if (st + sl_[n] > bound) {
        makespan = st + sl_[n];
        break;
      }
      start_[n] = st;
      avail_[p] = st + g_.weight(n);
      makespan = std::max(makespan, avail_[p]);
    }
    // Every cluster starts the next evaluation idle, as in
    // assignment_makespan's freshly zeroed scratch. start_ needs no reset:
    // parents precede children in the order, so it is written before read.
    for (std::size_t j = 0; j < i; ++j) avail_[label[order_[j]]] = 0;
    return makespan;
  }

 private:
  const TaskGraph& g_;
  std::vector<NodeId> order_;
  std::vector<Time> sl_, start_, avail_;
};

}  // namespace

std::vector<ProcId> ez_clusters(const TaskGraph& g, RunDeadline* deadline) {
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
  BoundedEvaluator eval(g);
  Time best = eval.makespan(cl.label, std::numeric_limits<Time>::max());

  for (const EdgeRef& e : edges) {
    NodeId big = cl.label[e.u], small = cl.label[e.v];
    if (big == small) continue;  // already zeroed transitively
    if (deadline) deadline->poll();
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

}  // namespace tgs
