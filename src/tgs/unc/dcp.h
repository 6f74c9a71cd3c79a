// DCP -- Dynamic Critical Path scheduling (Kwok & Ahmad, 1996; paper ref
// [22]).
//
// Classification: UNC, CP-based, dynamic list, lookahead (non-greedy).
// After every placement the absolute earliest start time (AEST, kept
// current by PinnedLevels) and absolute latest start time (ALST) of each
// node are updated on the partially scheduled graph; nodes with
// AEST == ALST form the dynamic critical path. The node with minimum
// slack (ALST - AEST) is selected (ties: smaller ALST). Candidate
// processors are those holding the node's
// placed parents/children, then the other processors in use, then one
// fresh processor; the winner minimizes
// the composite objective
//     start(n, p) + lookahead-start(critical child of n, p)
// with insertion. On ties the earliest candidate in order (parents'
// processors first, fresh last) wins, reproducing DCP's "do not open a new
// processor unless the schedule length requires it" strategy that the
// paper highlights in §6.4.2. Complexity O(v^3) in this dynamic form; the
// paper finds DCP the strongest UNC algorithm, at the price of the largest
// running time in its class.
#pragma once

#include "tgs/sched/scheduler.h"

namespace tgs {

class DcpScheduler final : public Scheduler {
 public:
  std::string name() const override { return "DCP"; }
  AlgoClass algo_class() const override { return AlgoClass::kUNC; }

 protected:
  Schedule do_run(const TaskGraph& g, const SchedOptions& opt,
                  SchedWorkspace& ws) const override;
};

}  // namespace tgs
