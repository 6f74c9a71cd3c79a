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
// Implementation note: the schedule is always the full build of the
// current assignment in one fixed b-level order (apn_replay), and a
// build only ever adds reservations. So a tentative migration of task n
// agrees with the current schedule on every commit before n's position:
// it copies that prefix (NetSchedule::assign_prefix, filtered timeline
// copies), replays the suffix into a reused trial buffer, and swaps the
// buffers when the makespan does not grow. docs/perf.md records the
// measurements, and why no in-place scheme is kept: on BSA's packed
// serial-injection schedules a migration changes most of the schedule,
// and the retired migration engine ran at 0.38x the speed of a full
// rebuild. The loop is pinned by a frozen rebuild-per-migration copy,
// reference::full_rebuild_bsa in tests/reference_schedulers.h.
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
