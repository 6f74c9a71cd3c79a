// Shared machinery of the BNP (bounded number of processors) list
// schedulers. Three concerns live here:
//
//  * ProcScanner -- keeps processor usage dense (a new processor is only
//    considered once all lower-numbered ones hold work), which both bounds
//    the scan and makes processor choice deterministic.
//  * ArrivalInfo -- O(1) data-ready queries per (node, processor) pair.
//    Once a node is ready, all its parents are placed and never move, so
//    the arrival profile can be summarized as: the two largest comm-paid
//    arrivals (with the processor of the largest) plus per-processor local
//    finish maxima. This turns the O(parents) inner loop of ETF/DLS into
//    O(1), which matters at the paper's 500-node / 250-graph scale.
//  * IncrementalPairSelector -- caches each ready node's best (processor,
//    EST) pair and, after a placement, re-scores only what the placement
//    could have changed. ETF and DLS are the paper's slow BNP algorithms
//    precisely because they re-evaluate every (ready node, processor) pair
//    at every step; the selector removes that re-evaluation without
//    changing a single schedule (see the invariant below).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "tgs/sched/schedule.h"
#include "tgs/sched/scheduler.h"
#include "tgs/util/types.h"

namespace tgs {

/// Tracks how many processors hold at least one task, assuming algorithms
/// always pick the lowest-numbered empty processor when opening a new one.
class ProcScanner {
 public:
  explicit ProcScanner(int limit) : limit_(limit) {}

  /// Number of processors worth scanning: every used one plus one fresh,
  /// capped by the machine size.
  int scan_count() const { return std::min(limit_, used_ + 1); }

  int limit() const { return limit_; }

  void note_placement(ProcId p) {
    used_ = std::max(used_, static_cast<int>(p) + 1);
  }

 private:
  int limit_;
  int used_ = 0;
};

/// Arrival summary of a ready node (all parents placed).
struct ArrivalInfo {
  Time max1 = 0;            // largest FT(parent) + c over all parents
  ProcId proc1 = kNoProc;   // processor of that parent
  Time max2 = 0;            // largest FT + c over parents NOT on proc1
  // Per-processor max FT(parent) for parents on that processor, sorted.
  std::vector<std::pair<ProcId, Time>> local_ft;

  /// Data-ready time of the node on processor p.
  Time ready_on(ProcId p) const {
    Time ready = (p == proc1) ? max2 : max1;
    auto it = std::lower_bound(
        local_ft.begin(), local_ft.end(), p,
        [](const std::pair<ProcId, Time>& e, ProcId q) { return e.first < q; });
    if (it != local_ft.end() && it->first == p)
      ready = std::max(ready, it->second);
    return ready;
  }
};

/// Build the arrival summary for `n` from the placed parents in `s`.
ArrivalInfo compute_arrival(const Schedule& s, NodeId n);

/// In-place variant reusing `info`'s local_ft capacity.
void compute_arrival_into(const Schedule& s, NodeId n, ArrivalInfo& info);

/// Scan processors [0, scanner.scan_count()) and return the one minimizing
/// the earliest start time of `n` (ties: smaller processor id).
struct ProcChoice {
  ProcId proc;
  Time start;
};
ProcChoice best_est_proc(const Schedule& s, NodeId n, const ProcScanner& scanner,
                         bool insertion);

/// Reusable pools of the pair selectors, owned by a SchedWorkspace. Flat
/// per-node vectors replace the per-run std::unordered_map<NodeId,
/// ArrivalInfo>. Stale entries are never erased: liveness is the tracked
/// list (IncrementalPairSelector) or the per-run stamps rewritten at
/// every admission (the DLS(APN) lazy selector), so starting a new run is
/// O(1) and steady-state runs allocate nothing (ArrivalInfo::local_ft
/// capacity survives across runs).
struct PairScratch {
  std::vector<std::uint64_t> stamp;       // DLS(APN) only: commit count at
                                          //   the node's last probe
  std::vector<ArrivalInfo> arrival;       // per-node arrival summary
  std::vector<ProcChoice> best;           // per-node best (proc, EST)
  std::vector<NodeId> tracked;            // nodes currently ready
  std::vector<Time> seg;                  // proc end-time segment tree

  // Giant-tier bookkeeping (all maintained by IncrementalPairSelector):
  // tracked membership is position-indexed so untracking is O(1) instead
  // of an O(ready) scan, and tracked nodes are additionally bucketed by
  // their cached best processor so a placement on p rescores only
  // bucket[p] -- the exact stale set -- instead of every tracked node.
  std::vector<std::uint32_t> tracked_pos;  // node -> index in tracked
  std::vector<std::uint32_t> bucket_pos;   // node -> index in its bucket
  std::vector<std::vector<NodeId>> bucket; // proc -> nodes with best.proc==p
  std::vector<NodeId> bucket_snap;         // node_placed iteration snapshot

  /// Size the pools for a graph with `num_nodes` nodes (grow-only).
  void bind(std::size_t num_nodes) {
    if (stamp.size() < num_nodes) {
      stamp.resize(num_nodes, 0);
      arrival.resize(num_nodes);
      best.resize(num_nodes);
      tracked_pos.resize(num_nodes, 0);
      bucket_pos.resize(num_nodes, 0);
    }
  }

  /// Size the per-processor buckets (grow-only).
  void bind_procs(std::size_t num_procs) {
    if (bucket.size() < num_procs) bucket.resize(num_procs);
  }

  /// Start a run: forget every tracked node. O(buckets) pointer resets,
  /// no deallocation (bucket capacity survives across runs).
  void begin_run() {
    tracked.clear();
    for (std::vector<NodeId>& b : bucket) b.clear();
  }
};

/// Min segment tree over per-processor timeline end times. Non-insertion
/// EST against processor p is max(ready, end_time(p)), so "the best
/// processor for arrival time X" reduces to two ordered queries answered
/// in O(log P): the smallest-id processor already idle by X (its EST is
/// exactly X, and lower-id processors all end later), else the processor
/// ending first. Backed by a PairScratch buffer so reruns do not allocate.
class ProcEndIndex {
 public:
  void init(int nprocs, std::vector<Time>& storage) {
    base_ = 1;
    while (base_ < nprocs) base_ <<= 1;
    seg_ = &storage;
    storage.assign(static_cast<std::size_t>(base_) * 2, kTimeInf);
    for (int p = 0; p < nprocs; ++p) storage[base_ + p] = 0;
    for (int i = base_ - 1; i >= 1; --i)
      storage[i] = std::min(storage[2 * i], storage[2 * i + 1]);
  }

  Time end_of(int p) const { return (*seg_)[base_ + p]; }

  void set(int p, Time end) {
    std::vector<Time>& s = *seg_;
    int i = base_ + p;
    s[i] = end;
    for (i /= 2; i >= 1; i /= 2) s[i] = std::min(s[2 * i], s[2 * i + 1]);
  }

  /// Smallest p in [0, count) with end_of(p) <= x; -1 if none.
  int first_at_most(Time x, int count) const {
    return find_at_most(1, 0, base_, x, count);
  }

  /// p in [0, count) minimizing end_of(p), smallest id on ties.
  int min_end_proc(int count) const {
    Time bv = kTimeInf;
    int bp = -1;
    min_rec(1, 0, base_, count, bv, bp);
    return bp;
  }

 private:
  int find_at_most(int node, int lo, int hi, Time x, int count) const {
    if (lo >= count || (*seg_)[node] > x) return -1;
    if (hi - lo == 1) return lo;
    const int mid = (lo + hi) / 2;
    const int left = find_at_most(2 * node, lo, mid, x, count);
    if (left >= 0) return left;
    return find_at_most(2 * node + 1, mid, hi, x, count);
  }

  void min_rec(int node, int lo, int hi, int count, Time& bv, int& bp) const {
    if (lo >= count || (*seg_)[node] >= bv) return;  // left-first keeps ties
    if (hi - lo == 1) {
      bv = (*seg_)[node];
      bp = lo;
      return;
    }
    const int mid = (lo + hi) / 2;
    min_rec(2 * node, lo, mid, count, bv, bp);
    min_rec(2 * node + 1, mid, hi, count, bv, bp);
  }

  int base_ = 1;
  std::vector<Time>* seg_ = nullptr;
};

/// Incremental (ready node, processor) pair selection against a Schedule.
///
/// Invariant: placing a task on processor q only mutates timeline q, and a
/// ready node's arrival summary is frozen (its parents are placed and never
/// move). So after a placement, a cached best (proc, EST) pair stays exact
/// unless (a) it sits on q -- its EST may have grown, rescan the node -- or
/// (b) ProcScanner::scan_count() grew -- the newly opened processors must
/// be scored against every cached pair (an empty processor can only win
/// strictly, so ties keep preferring smaller ids). ESTs on untouched
/// processors cannot shrink (occupying a timeline never makes earliest_fit
/// earlier, in both append and insertion mode), hence no other cached best
/// can be beaten. Selection order -- and therefore every schedule -- is
/// byte-identical to the exhaustive per-step rescan; the goldens and the
/// naive-reference property tests enforce this.
///
/// Per-node bests are exact at all times, so a scheduling step is one
/// O(ready) argmin over best() instead of O(ready x procs) EST probes.
///
/// In append (non-insertion) mode the per-node rescore itself drops from
/// O(procs) to O(log procs): EST(m, p) = max(ready_on(m, p), end_time(p)),
/// and ready_on(m, p) equals the arrival max1 on every processor except
/// proc1 (a parent's finish without communication never exceeds its finish
/// plus communication), so the best processor is either proc1 or the
/// answer to an ordered end-time query on ProcEndIndex. Insertion mode
/// falls back to the linear scan (gaps break the max() formula).
class IncrementalPairSelector {
 public:
  /// `scratch` must outlive the selector; begin_run() is called here.
  IncrementalPairSelector(const Schedule& s, const ProcScanner& scanner,
                          bool insertion, PairScratch& scratch)
      : sched_(&s),
        scanner_(&scanner),
        scratch_(&scratch),
        insertion_(insertion),
        scanned_(scanner.scan_count()) {
    scratch.bind(s.graph().num_nodes());
    scratch.bind_procs(static_cast<std::size_t>(scanner.limit()));
    scratch.begin_run();
    if (!insertion_) {
      index_.init(scanner.limit(), scratch.seg);
      for (int p = 0; p < std::min(scanner.limit(), s.num_procs()); ++p)
        if (const Time end = s.timeline(p).end_time(); end > 0)
          index_.set(p, end);
    }
  }

  /// Admit a node whose parents are all placed: compute its arrival
  /// summary and score processors [0, scan_count). Membership is the
  /// tracked list; this selector does not use PairScratch::stamp.
  void node_ready(NodeId n) {
    compute_arrival_into(*sched_, n, scratch_->arrival[n]);
    scratch_->tracked_pos[n] =
        static_cast<std::uint32_t>(scratch_->tracked.size());
    scratch_->tracked.push_back(n);
    rescore(n, scanned_, /*fresh=*/true);
  }

  /// Report that `n` (previously ready) was placed on `p`. Call after
  /// Schedule::place and ProcScanner::note_placement; re-scores exactly
  /// the cached pairs the placement could have invalidated. In the common
  /// case (no new processor opened) that is bucket[p] -- the nodes whose
  /// cached best sits on p -- so a placement costs O(|bucket[p]|) rescore
  /// work, not an O(ready) scan (the measured giant-tier bottleneck: FFT
  /// graphs keep thousands of nodes ready at once).
  void node_placed(NodeId n, ProcId p) {
    PairScratch& sc = *scratch_;
    {
      const std::uint32_t i = sc.tracked_pos[n];
      sc.tracked[i] = sc.tracked.back();
      sc.tracked_pos[sc.tracked[i]] = i;
      sc.tracked.pop_back();
      bucket_remove(n);  // n's cached best.proc, which may differ from p
    }
    if (!insertion_) index_.set(p, sched_->timeline(p).end_time());
    const int count = scanner_->scan_count();
    if (count > scanned_) {
      // Rare (at most `limit` times per run): a fresh processor opened, so
      // every cached pair must see it. Newly opened processors are empty,
      // so in append mode node m could start there at its arrival max1;
      // their ids exceed every cached id, so only a strict improvement can
      // move the best.
      for (NodeId m : sc.tracked) {
        if (sc.best[m].proc == p) {
          rescore(m, count, /*fresh=*/false);
          continue;
        }
        const ArrivalInfo& arr = sc.arrival[m];
        ProcChoice pc = sc.best[m];
        if (insertion_) {
          const Cost dur = sched_->graph().weight(m);
          for (ProcId q = static_cast<ProcId>(scanned_); q < count; ++q) {
            const Time t =
                sched_->earliest_start_on(q, arr.ready_on(q), dur, insertion_);
            if (t < pc.start) pc = {q, t};  // strict: ties keep smaller id
          }
        } else if (arr.max1 < pc.start) {
          pc = {static_cast<ProcId>(scanned_), arr.max1};
        }
        if (pc.proc != sc.best[m].proc || pc.start != sc.best[m].start)
          set_best(m, pc);
      }
    } else {
      // Snapshot: rescoring moves nodes between buckets mid-iteration.
      sc.bucket_snap.assign(sc.bucket[p].begin(), sc.bucket[p].end());
      for (NodeId m : sc.bucket_snap) rescore(m, count, /*fresh=*/false);
    }
    scanned_ = count;
  }

  /// Cached best (processor, EST) of ready node `n`; exact under the
  /// invariant above.
  const ProcChoice& best(NodeId n) const { return scratch_->best[n]; }

 private:
  void bucket_insert(NodeId m) {
    std::vector<NodeId>& b = scratch_->bucket[scratch_->best[m].proc];
    scratch_->bucket_pos[m] = static_cast<std::uint32_t>(b.size());
    b.push_back(m);
  }

  void bucket_remove(NodeId m) {
    std::vector<NodeId>& b = scratch_->bucket[scratch_->best[m].proc];
    const std::uint32_t i = scratch_->bucket_pos[m];
    b[i] = b.back();
    scratch_->bucket_pos[b[i]] = i;
    b.pop_back();
  }

  /// Every best[] write funnels through here: bucket membership follows
  /// the cached processor. An unchanged recompute never reaches this
  /// function.
  void set_best(NodeId m, const ProcChoice& pc) {
    bucket_remove(m);
    scratch_->best[m] = pc;
    bucket_insert(m);
  }

  void rescore(NodeId m, int count, bool fresh) {
    const ProcChoice pc = score(m, count);
    if (fresh) {
      scratch_->best[m] = pc;
      bucket_insert(m);
    } else if (pc.proc != scratch_->best[m].proc ||
               pc.start != scratch_->best[m].start) {
      set_best(m, pc);
    }
  }

  ProcChoice score(NodeId m, int count) const {
    const ArrivalInfo& arr = scratch_->arrival[m];
    if (!insertion_) {
      // Candidate 1: proc1, the only processor whose data-ready time can
      // undercut max1.
      ProcChoice pc{kNoProc, kTimeInf};
      if (arr.proc1 != kNoProc && arr.proc1 < count)
        pc = {arr.proc1,
              std::max(arr.ready_on(arr.proc1), index_.end_of(arr.proc1))};
      // Candidate 2: best of the generic EST max(max1, end_time(p)). For
      // proc1 the generic value only over-estimates, so including it is
      // harmless (candidate 1 wins any such tie at the same processor).
      const int idle = index_.first_at_most(arr.max1, count);
      ProcChoice gen{kNoProc, kTimeInf};
      if (idle >= 0) {
        gen = {static_cast<ProcId>(idle), arr.max1};
      } else {
        const int p = index_.min_end_proc(count);
        gen = {static_cast<ProcId>(p), index_.end_of(p)};
      }
      if (pc.proc == kNoProc || gen.start < pc.start ||
          (gen.start == pc.start && gen.proc < pc.proc))
        pc = gen;
      return pc;
    }
    const Cost dur = sched_->graph().weight(m);
    ProcChoice pc{0, kTimeInf};
    for (ProcId q = 0; q < count; ++q) {
      const Time t =
          sched_->earliest_start_on(q, arr.ready_on(q), dur, insertion_);
      if (t < pc.start) pc = {q, t};
    }
    return pc;
  }

  const Schedule* sched_;
  const ProcScanner* scanner_;
  PairScratch* scratch_;
  ProcEndIndex index_;
  bool insertion_;
  int scanned_;  // scan_count the cached pairs are valid for
};

}  // namespace tgs
