#include "tgs/unc/dcp.h"

#include <algorithm>
#include <vector>

#include "tgs/bnp/bnp_common.h"
#include "tgs/list/ready_list.h"
#include "tgs/sched/pinned_levels.h"

namespace tgs {

Schedule DcpScheduler::do_run(const TaskGraph& g, const SchedOptions& opt,
                              SchedWorkspace& ws) const {
  const int limit = effective_procs(g, opt);
  Schedule sched(g, limit);
  ProcScanner scanner(limit);
  ReadyList ready(g);

  // AEST pins placed nodes and assumes every edge cost for unplaced ones
  // (communication is zeroed only between co-located placed pairs), so the
  // b-level is invariant under the pinning.
  const std::vector<Time>& bl = ws.attrs().b_levels();
  PinnedLevels aest(g, PinnedLevels::EdgeCosts::kKeep);
  std::vector<ProcId> cand, related;  // per-step buffers

  while (!ready.empty()) {
    ws.deadline().poll();
    Time cpl = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      cpl = std::max(cpl, aest[u] + bl[u]);

    // ALST(u) = cpl - bl(u); slack = ALST - AEST.
    // Select the ready node with minimum slack, ties by smaller ALST,
    // then smaller id.
    NodeId n = kNoNode;
    Time n_slack = 0, n_alst = 0;
    for (NodeId m : ready.ready()) {
      const Time alst = cpl - bl[m];
      const Time slack = alst - aest[m];
      if (n == kNoNode || slack < n_slack ||
          (slack == n_slack && alst < n_alst)) {
        n = m;
        n_slack = slack;
        n_alst = alst;
      }
    }

    // Candidate processors: placed parents' and children's processors
    // first (ascending), then the remaining in-use processors, then one
    // fresh processor. The ordering matters only for tie-breaks, where it
    // implements DCP's preference for processors already holding related
    // nodes.
    cand.clear();
    auto add_cand = [&cand](ProcId p) {
      if (std::find(cand.begin(), cand.end(), p) == cand.end())
        cand.push_back(p);
    };
    related.clear();
    for (const Adj& par : g.parents(n))
      if (sched.is_placed(par.node)) related.push_back(sched.proc(par.node));
    for (const Adj& c : g.children(n))
      if (sched.is_placed(c.node)) related.push_back(sched.proc(c.node));
    std::sort(related.begin(), related.end());
    for (ProcId p : related) add_cand(p);
    for (ProcId p = 0; p < scanner.scan_count(); ++p) add_cand(p);

    // Critical child: unplaced child with minimum slack (ties smaller id),
    // used for the one-step lookahead.
    NodeId cc = kNoNode;
    Time cc_slack = 0;
    for (const Adj& c : g.children(n)) {
      if (sched.is_placed(c.node)) continue;
      const Time slack = (cpl - bl[c.node]) - aest[c.node];
      if (cc == kNoNode || slack < cc_slack) {
        cc = c.node;
        cc_slack = slack;
      }
    }

    ProcId best_p = cand.front();
    Time best_start = 0;
    Time best_obj = kTimeInf;
    for (ProcId p : cand) {
      const Time st = sched.est(n, p, /*insertion=*/true);
      Time obj = st;
      if (cc != kNoNode) {
        // Estimate the critical child's start if it also landed on p.
        Time cc_ready = st + g.weight(n);  // from n, co-located
        for (const Adj& par : g.parents(cc)) {
          if (par.node == n) continue;
          if (sched.is_placed(par.node)) {
            const Time ft = sched.finish(par.node);
            cc_ready = std::max(cc_ready,
                                sched.proc(par.node) == p ? ft : ft + par.cost);
          } else {
            cc_ready =
                std::max(cc_ready, aest[par.node] + g.weight(par.node) + par.cost);
          }
        }
        // Insertion-aware: the child competes for idle slots on p's current
        // timeline (cc_ready >= st + w(n) keeps it clear of n itself).
        const Time cc_start =
            sched.earliest_start_on(p, cc_ready, g.weight(cc), /*insertion=*/true);
        obj = st + cc_start;
      }
      if (obj < best_obj) {  // ties keep the earliest candidate (parents first)
        best_obj = obj;
        best_p = p;
        best_start = st;
      }
    }

    sched.place(n, best_p, best_start);
    aest.place(n, best_start);
    aest.commit();
    scanner.note_placement(best_p);
    ready.mark_scheduled(n);
  }
  return sched;
}

}  // namespace tgs
