// Frozen full-pass bodies of MD and DCP (unc/), as they stood before the
// incremental PinnedLevels propagator: both recompute the pinned t-levels
// of the whole partial schedule with Schedule::pinned_t_levels before
// every selection. test_unc.cpp requires MdScheduler and DcpScheduler to
// reproduce these schedules byte-for-byte, and tgs_perf's BM_Md_Reference
// and BM_Dcp_Reference time them beside the incremental schedulers.
//
// Deliberately straight-line copies -- do not refactor or "optimize";
// byte-fidelity to the retired code is the point.
#pragma once

#include <algorithm>
#include <vector>

#include "tgs/bnp/bnp_common.h"
#include "tgs/graph/attributes.h"
#include "tgs/list/ready_list.h"
#include "tgs/sched/schedule.h"
#include "tgs/sched/scheduler.h"

namespace tgs::reference {

/// MD: minimum relative mobility, first processor inside the window.
inline Schedule original_md(const TaskGraph& g, const SchedOptions& opt) {
  const int limit = effective_procs(g, opt);
  Schedule sched(g, limit);
  ProcScanner scanner(limit);
  ReadyList ready(g);

  // tlevel' pins placed nodes at their starts and keeps cross-cluster
  // communication for unplaced ones; blevel' is the plain b-level, since
  // placements cannot shorten it while successors' processors are unknown.
  const std::vector<Time> b = b_levels(g);
  std::vector<Time> t;

  while (!ready.empty()) {
    sched.pinned_t_levels(t);
    Time L = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) L = std::max(L, t[u] + b[u]);

    // Min relative mobility among ready nodes, compared exactly by
    // cross-multiplication: (L - s_a)/w_a < (L - s_b)/w_b. Each factor fits
    // int64, their product may not: multiply in 128 bits.
    NodeId n = kNoNode;
    for (NodeId m : ready.ready()) {
      if (n == kNoNode) {
        n = m;
        continue;
      }
      const __int128 slack_m =
          static_cast<__int128>(L - (t[m] + b[m])) * g.weight(n);
      const __int128 slack_n =
          static_cast<__int128>(L - (t[n] + b[n])) * g.weight(m);
      if (slack_m < slack_n) n = m;
    }

    const Time window_end = L - b[n];  // latest CP-preserving start
    const Time dur = g.weight(n);

    // First processor whose earliest feasible slot lies inside the window.
    ProcId chosen = kNoProc;
    Time chosen_start = 0;
    const int count = scanner.scan_count();
    for (ProcId p = 0; p < count; ++p) {
      const Time dr = sched.data_ready(n, p);
      const Time st = sched.earliest_start_on(p, dr, dur, /*insertion=*/true);
      if (st <= window_end) {
        chosen = p;
        chosen_start = st;
        break;
      }
    }
    if (chosen == kNoProc) {
      // No window fit anywhere: fall back to globally earliest start.
      const ProcChoice c = best_est_proc(sched, n, scanner, /*insertion=*/true);
      chosen = c.proc;
      chosen_start = c.start;
    }
    sched.place(n, chosen, chosen_start);
    scanner.note_placement(chosen);
    ready.mark_scheduled(n);
  }
  return sched;
}

/// DCP: minimum slack, related processors first, critical-child lookahead.
inline Schedule original_dcp(const TaskGraph& g, const SchedOptions& opt) {
  const int limit = effective_procs(g, opt);
  Schedule sched(g, limit);
  ProcScanner scanner(limit);
  ReadyList ready(g);

  // AEST pins placed nodes and assumes every edge cost for unplaced ones
  // (communication is zeroed only between co-located placed pairs), so the
  // b-level is invariant under the pinning.
  const std::vector<Time> bl = b_levels(g);
  std::vector<Time> aest;

  while (!ready.empty()) {
    sched.pinned_t_levels(aest);
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
    std::vector<ProcId> cand;
    auto add_cand = [&cand](ProcId p) {
      if (std::find(cand.begin(), cand.end(), p) == cand.end())
        cand.push_back(p);
    };
    {
      std::vector<ProcId> related;
      for (const Adj& par : g.parents(n))
        if (sched.is_placed(par.node)) related.push_back(sched.proc(par.node));
      for (const Adj& c : g.children(n))
        if (sched.is_placed(c.node)) related.push_back(sched.proc(c.node));
      std::sort(related.begin(), related.end());
      for (ProcId p : related) add_cand(p);
    }
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
    scanner.note_placement(best_p);
    ready.mark_scheduled(n);
  }
  return sched;
}

}  // namespace tgs::reference
