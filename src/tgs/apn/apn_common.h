// Shared machinery of the APN (arbitrary processor network) algorithms:
// the ApnScheduler interface, (node, processor) EST probes against the
// current link state, node commitment with real message routing, and the
// fixed-assignment network list scheduler that BU and BSA build on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tgs/net/net_schedule.h"
#include "tgs/net/routing.h"
#include "tgs/sched/workspace.h"

namespace tgs {

class ApnScheduler {
 public:
  virtual ~ApnScheduler() = default;

  virtual std::string name() const = 0;

  /// Produce a complete task + message schedule on the routed topology
  /// with a private, freshly allocated workspace. Deterministic for equal
  /// inputs.
  NetSchedule run(const TaskGraph& g, const RoutingTable& routes) const;

  /// Same, but reusing the caller's workspace (`ws` must be bound to `g`
  /// via begin_graph(); throws std::logic_error otherwise). Bit-identical
  /// to the fresh-workspace overload.
  NetSchedule run(const TaskGraph& g, const RoutingTable& routes,
                  SchedWorkspace& ws) const;

 protected:
  virtual NetSchedule do_run(const TaskGraph& g, const RoutingTable& routes,
                             SchedWorkspace& ws) const = 0;
};

using ApnSchedulerPtr = std::unique_ptr<ApnScheduler>;

/// Earliest start time of ready node `n` (all parents placed) on processor
/// `p`, probing message routes against current link reservations without
/// committing them. Concurrent parent messages do not see each other in
/// the probe (exactness is restored at commit time).
Time apn_probe_est(const NetSchedule& ns, NodeId n, int p, bool insertion);

/// One-to-all data-ready times: fills scratch.ready[p] with the arrival
/// maximum over n's parents on every processor by composing one-to-all
/// routing-tree sweeps (NetSchedule::probe_arrival_all) -- each swept
/// parent touches each tree link once instead of re-walking its route per
/// destination. Only each source processor's Pareto front of parents is
/// swept: for a fixed source, a message's probed arrival at every
/// processor is monotone in (parent finish, message size), because
/// Timeline::earliest_fit is monotone in its ready time and its duration
/// and a route composes such steps. A parent that another parent on the
/// same processor matches or beats on both values therefore never raises
/// any maximum, and skipping it is exact. Callers that only score a few
/// processors (BSA's neighbour scan) combine this with
/// Schedule::earliest_start_on themselves.
void apn_probe_ready_all(const NetSchedule& ns, NodeId n,
                         ApnSweepScratch& scratch);

/// One-to-all variant: fills scratch.est[p] == apn_probe_est(ns, n, p,
/// insertion) for EVERY processor on top of apn_probe_ready_all.
/// Bit-identical to the per-processor probe; the full processor scans
/// (MH, DLS(APN) rescore) read one sweep.
void apn_probe_est_all(const NetSchedule& ns, NodeId n, bool insertion,
                       ApnSweepScratch& scratch);

/// Commit node `n` to processor `p`: routes one message per cross-processor
/// parent edge (in ascending parent id), then places the task at the
/// earliest feasible start. Returns the start time.
Time apn_commit_node(NetSchedule& ns, NodeId n, int p, bool insertion);

/// The commit order of assignment-driven builds -- the cached b-level
/// order of the graph bound to `attrs`, a topological order -- and each
/// node's position in it. `attrs` must stay bound while this is used.
struct ApnBuildOrder {
  explicit ApnBuildOrder(GraphAttributeCache& attrs);

  const std::vector<NodeId>& order;
  std::vector<std::uint32_t> pos;  // order[pos[n]] == n
};

/// Commit order[from..] to their processors in `assign` (apn_commit_node).
/// `ns` must hold exactly the first `from` commits of the same build: an
/// empty schedule for from == 0, or NetSchedule::assign_prefix(full build,
/// ord.pos, from) of any assignment that agrees with `assign` on
/// order[0..from). Because a build only ever adds reservations, that
/// prefix copy plus this replay equals the full build of `assign` -- BSA
/// re-schedules just the suffix from a migrated task's position.
void apn_replay(NetSchedule& ns, const ApnBuildOrder& ord,
                const std::vector<ProcId>& assign, std::size_t from,
                bool insertion);

/// Deterministically materialize a complete NetSchedule from a fixed
/// node -> processor assignment: apn_replay from position 0 into an empty
/// schedule, over a local attribute cache. Throws std::invalid_argument
/// unless assign.size() == g.num_nodes() (tgs_serve feeds user-supplied
/// graphs into this path; a short vector must not become an OOB read).
NetSchedule apn_build_with_assignment(const TaskGraph& g,
                                      const RoutingTable& routes,
                                      const std::vector<ProcId>& assign,
                                      bool insertion);

}  // namespace tgs
