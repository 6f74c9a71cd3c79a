// BSA -- Bubble Scheduling and Allocation (Kwok & Ahmad; paper ref [2]).
//
// Classification: APN, incremental migration. The whole graph is first
// serially injected onto a single pivot processor (the one with the most
// links) in descending b-level order. Processors are then visited in
// breadth-first order from the pivot; each task on the current pivot tries
// to "bubble" to an adjacent processor when doing so strictly reduces its
// start time, with messages re-routed on the links. A migration that would
// lengthen the overall schedule is rolled back. The paper credits BSA's
// strength on large graphs to "an efficient scheduling of communication
// messages", which the explicit link re-routing reproduces.
//
// Implementation note: every tentative migration rebuilds the whole
// NetSchedule from the updated assignment (apn_build_with_assignment) and
// keeps it when the makespan does not grow. docs/perf.md records why no
// incremental in-place scheme is kept: on BSA's packed serial-injection
// schedules a migration changes most of the schedule, and the retired
// migration engine ran at 0.38x the speed of this loop. The loop is
// pinned by a frozen copy, reference::full_rebuild_bsa in
// tests/reference_schedulers.h.
#pragma once

#include "tgs/apn/apn_common.h"

namespace tgs {

class BsaScheduler final : public ApnScheduler {
 public:
  std::string name() const override { return "BSA"; }

 protected:
  NetSchedule do_run(const TaskGraph& g, const RoutingTable& routes,
                     SchedWorkspace& ws) const override;
};

}  // namespace tgs
