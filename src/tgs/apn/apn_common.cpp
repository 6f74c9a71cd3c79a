#include "tgs/apn/apn_common.h"

#include <algorithm>
#include <stdexcept>

#include "tgs/unc/cluster_schedule.h"

namespace tgs {

NetSchedule ApnScheduler::run(const TaskGraph& g,
                              const RoutingTable& routes) const {
  SchedWorkspace ws;
  ws.begin_graph(g);
  return do_run(g, routes, ws);
}

NetSchedule ApnScheduler::run(const TaskGraph& g, const RoutingTable& routes,
                              SchedWorkspace& ws) const {
  if (ws.graph() != &g)
    throw std::logic_error(
        "SchedWorkspace not bound to this graph; call begin_graph() first");
  return do_run(g, routes, ws);
}

Time apn_probe_est(const NetSchedule& ns, NodeId n, int p, bool insertion) {
  const TaskGraph& g = ns.graph();
  const Schedule& s = ns.tasks();
  Time ready = 0;
  for (const Adj& par : g.parents(n)) {
    const Time ft = s.finish(par.node);
    const int q = s.proc(par.node);
    const Time arrival =
        q == p ? ft : ns.probe_arrival(q, p, par.cost, ft);
    ready = std::max(ready, arrival);
  }
  return s.earliest_start_on(p, ready, g.weight(n), insertion);
}

void apn_probe_ready_all(const NetSchedule& ns, NodeId n,
                         ApnSweepScratch& scratch) {
  const TaskGraph& g = ns.graph();
  const Schedule& s = ns.tasks();
  const std::size_t nprocs =
      static_cast<std::size_t>(ns.topology().num_procs());
  scratch.arrival.resize(nprocs);
  scratch.ready.assign(nprocs, 0);
  std::vector<ApnSweepScratch::Source>& src = scratch.sources;
  src.clear();
  for (const Adj& par : g.parents(n))
    src.push_back({s.proc(par.node), s.finish(par.node), par.cost});
  // Group by processor, each group by descending finish, then descending
  // cost: a parent is dominated iff an earlier one in its group has a
  // cost at least its own.
  std::sort(src.begin(), src.end(), [](const auto& a, const auto& b) {
    if (a.proc != b.proc) return a.proc < b.proc;
    if (a.finish != b.finish) return a.finish > b.finish;
    return a.cost > b.cost;
  });
  int group = -1;
  Cost front_cost = 0;
  for (const ApnSweepScratch::Source& par : src) {
    if (par.proc == group && par.cost <= front_cost) continue;
    group = par.proc;
    front_cost = par.cost;
    ns.probe_arrival_all(par.proc, par.cost, par.finish, scratch.arrival);
    for (std::size_t p = 0; p < nprocs; ++p)
      scratch.ready[p] = std::max(scratch.ready[p], scratch.arrival[p]);
  }
}

void apn_probe_est_all(const NetSchedule& ns, NodeId n, bool insertion,
                       ApnSweepScratch& scratch) {
  apn_probe_ready_all(ns, n, scratch);
  const Schedule& s = ns.tasks();
  const std::size_t nprocs =
      static_cast<std::size_t>(ns.topology().num_procs());
  scratch.est.resize(nprocs);
  for (std::size_t p = 0; p < nprocs; ++p)
    scratch.est[p] = s.earliest_start_on(static_cast<ProcId>(p),
                                         scratch.ready[p],
                                         ns.graph().weight(n), insertion);
}

Time apn_commit_node(NetSchedule& ns, NodeId n, int p, bool insertion) {
  const TaskGraph& g = ns.graph();
  Schedule& s = ns.tasks();
  Time ready = 0;
  const auto pars = g.parents(n);
  for (std::size_t i = 0; i < pars.size(); ++i) {
    const Time arrival = s.proc(pars[i].node) == p
                             ? s.finish(pars[i].node)
                             : ns.commit_parent_message(n, i, p);
    ready = std::max(ready, arrival);
  }
  const Time start = s.earliest_start_on(p, ready, g.weight(n), insertion);
  s.place(n, p, start);
  return start;
}

ApnBuildOrder::ApnBuildOrder(const TaskGraph& g)
    : order(blevel_order(g)), pos(order.size()) {
  for (std::size_t i = 0; i < order.size(); ++i)
    pos[order[i]] = static_cast<std::uint32_t>(i);
}

void apn_replay(NetSchedule& ns, const ApnBuildOrder& ord,
                const std::vector<ProcId>& assign, std::size_t from,
                bool insertion) {
  for (std::size_t i = from; i < ord.order.size(); ++i)
    apn_commit_node(ns, ord.order[i], assign[ord.order[i]], insertion);
}

NetSchedule apn_build_with_assignment(const TaskGraph& g,
                                      const RoutingTable& routes,
                                      const std::vector<ProcId>& assign,
                                      bool insertion) {
  if (assign.size() != static_cast<std::size_t>(g.num_nodes()))
    throw std::invalid_argument(
        "apn_build_with_assignment: assignment size != graph node count");
  NetSchedule ns(g, routes);
  apn_replay(ns, ApnBuildOrder(g), assign, 0, insertion);
  return ns;
}

}  // namespace tgs
