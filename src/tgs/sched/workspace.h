// SchedWorkspace: reusable per-worker scratch threaded through
// Scheduler::run so a 250-graph x 15-algorithm sweep stops paying a fresh
// set of allocations (attribute vectors, arrival summaries, pair caches)
// for every single run. One workspace per worker thread; bind it to each
// new graph with begin_graph() and pass it to every run on that graph.
//
// Contents:
//  * GraphAttributeCache -- static levels / b-levels / ALAP / b-level
//    order computed at most once per graph and shared by every algorithm
//    run with this workspace (HLFET, ISH, LAST, ETF, DLS, DLS-APN, EZ and
//    Sarkar's mapping want static levels; MCP wants ALAP; DSC, MD and DCP
//    want b-levels; EZ, LC, Sarkar's mapping, bounded DSC, MH, BU and BSA
//    walk the b-level order).
//  * PairScratch -- the flat per-node pools of the incremental
//    (ready node, processor) pair selectors (bnp/bnp_common.h). Stored
//    behind a pointer so sched/ does not include bnp/ headers.
//  * ApnSweepScratch -- the parent list and per-processor buffers of the
//    one-to-all APN probes (apn/apn_common.h), so the per-step sweeps of
//    MH / DLS(APN) / BSA allocate nothing in steady state.
//
// Results never depend on workspace contents -- it only recycles capacity
// -- so sharing one workspace across algorithms or reusing it across
// graphs cannot change a schedule. The aliasing contract is the caller's:
// call begin_graph() for every new graph object, even if it happens to
// reuse the address of a previous one.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "tgs/graph/attributes.h"

namespace tgs {

struct PairScratch;          // bnp/bnp_common.h
struct ParamScratch;         // param/param_scheduler.h

/// Thrown out of a scheduler run when the workspace's armed deadline
/// passes. Algorithm state is abandoned mid-construction, which is safe:
/// all per-run state lives in the (capacity-only) workspace scratch or in
/// locals, so the workspace and its thread stay fully reusable --
/// begin_graph() + run() the next request as if nothing happened.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("scheduling deadline exceeded") {}
};

/// Cooperative cancellation-by-deadline, threaded through scheduler inner
/// loops via the workspace. Disarmed (the default) a poll() is a single
/// predictable branch; armed, it reads the steady clock only every
/// kStride-th call, so even v=100k runs pay a few thousand clock reads at
/// most -- no measurable cost in the perf gates. The first poll after
/// arm() checks immediately, so an already-expired deadline cancels even
/// a 9-node run at its first placement.
///
/// Ownership contract: whoever arms it disarms it (tgs_serve wraps runs
/// in an ArmGuard). A run that throws DeadlineExceeded leaves the token
/// armed; disarm() in the guard's unwind path resets it for the next run.
class RunDeadline {
 public:
  using Clock = std::chrono::steady_clock;

  void arm(Clock::time_point deadline) {
    deadline_ = deadline;
    countdown_ = 1;  // first poll checks the clock
    armed_ = true;
  }
  void disarm() { armed_ = false; }
  bool armed() const { return armed_; }

  /// Amortized check; throws DeadlineExceeded once the deadline passes.
  void poll() {
    if (armed_ && --countdown_ == 0) {
      countdown_ = kStride;
      if (Clock::now() >= deadline_) throw DeadlineExceeded();
    }
  }

 private:
  static constexpr std::uint32_t kStride = 64;

  Clock::time_point deadline_{};
  std::uint32_t countdown_ = kStride;
  bool armed_ = false;
};

/// Reusable buffers of the one-to-all APN probes (apn_probe_ready_all,
/// apn_probe_est_all): the probed node's parents, one arrival sweep, the
/// running data-ready maxima, and the per-processor EST output.
/// Capacity-only state -- contents never outlive one probe.
struct ApnSweepScratch {
  /// One parent of the probed node: where and when its data leaves.
  struct Source {
    int proc;
    Time finish;
    Cost cost;
  };
  std::vector<Source> sources;  // the probed node's parents, sorted
  std::vector<Time> arrival;
  std::vector<Time> ready;
  std::vector<Time> est;
};

class SchedWorkspace {
 public:
  SchedWorkspace();
  ~SchedWorkspace();
  SchedWorkspace(const SchedWorkspace&) = delete;
  SchedWorkspace& operator=(const SchedWorkspace&) = delete;

  /// Bind to `g`: invalidates the attribute cache and per-node pools.
  /// Buffers keep their capacity. Must be called before the first run on
  /// every new graph.
  void begin_graph(const TaskGraph& g);

  /// Graph of the last begin_graph() (nullptr before the first).
  const TaskGraph* graph() const { return graph_; }

  /// Lazy attributes of the bound graph.
  GraphAttributeCache& attrs() { return attrs_; }

  /// Pair-selector pools, sized for the bound graph.
  PairScratch& pair_scratch() { return *pair_; }

  /// One-to-all APN probe buffers (sized by callers per topology).
  ApnSweepScratch& apn_scratch() { return apn_; }

  /// Per-run buffers of the parameterized scheduler core (priority keys,
  /// static ranks, arrival times, cluster assignment); sized by
  /// ParamScheduler per run.
  ParamScratch& param_scratch() { return *param_; }

  /// Cooperative per-request deadline polled once per step by every
  /// scheduler (list and cluster passes, APN inner loops). Survives
  /// begin_graph() untouched: arming is the caller's per-request
  /// decision, not per-graph state.
  RunDeadline& deadline() { return deadline_; }

 private:
  const TaskGraph* graph_ = nullptr;
  RunDeadline deadline_;
  GraphAttributeCache attrs_;
  std::unique_ptr<PairScratch> pair_;
  ApnSweepScratch apn_;
  std::unique_ptr<ParamScratch> param_;
};

}  // namespace tgs
