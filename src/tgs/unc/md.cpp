#include "tgs/unc/md.h"

#include <algorithm>

#include "tgs/bnp/bnp_common.h"
#include "tgs/list/ready_list.h"
#include "tgs/sched/pinned_levels.h"

namespace tgs {

Schedule MdScheduler::do_run(const TaskGraph& g, const SchedOptions& opt,
                             SchedWorkspace& ws) const {
  const int limit = effective_procs(g, opt);
  Schedule sched(g, limit);
  ProcScanner scanner(limit);
  ReadyList ready(g);

  // tlevel' pins placed nodes at their starts and keeps cross-cluster
  // communication for unplaced ones; blevel' is the plain b-level, since
  // placements cannot shorten it while successors' processors are unknown.
  const std::vector<Time>& b = ws.attrs().b_levels();
  PinnedLevels t(g, PinnedLevels::EdgeCosts::kKeep);

  while (!ready.empty()) {
    ws.deadline().poll();
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
    t.place(n, chosen_start);
    t.commit();
    scanner.note_placement(chosen);
    ready.mark_scheduled(n);
  }
  return sched;
}

}  // namespace tgs
