#include "tgs/optimal/bb_scheduler.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "tgs/exec/thread_pool.h"
#include "tgs/graph/attributes.h"
#include "tgs/optimal/lower_bounds.h"
#include "tgs/sched/pinned_levels.h"
#include "tgs/util/timer.h"

namespace tgs {

namespace {

// The search splits into this many independent subtrees regardless of
// num_threads (determinism requires an identical search structure at every
// thread count); threads only drain the per-round subtree queue.
constexpr std::size_t kTargetFrontier = 64;

// Per-subtree node allowance of the first round, doubling each round up to
// the cap. Small early rounds circulate the incumbent quickly (the round
// barrier is the only point where subtrees learn of each other's
// schedules); large later rounds amortize the barrier.
constexpr std::uint64_t kInitialQuantum = 1024;
constexpr std::uint64_t kMaxQuantum = 65536;

// Global budget for the per-subtree duplicate-state tables.
constexpr std::size_t kSeenBudget = 3'000'000;

// 128-bit order-independent state hash: two independently mixed 64-bit
// accumulators XORed per placement. Two search paths that place the same
// tasks at the same (processor, start) converge to identical states, so the
// subtree needs exploring once; the 128 bits make an accidental collision
// (which would wrongly prune) vanishingly unlikely (~1e-18 at 1e10 states).
struct StateHash {
  std::uint64_t lo = 0, hi = 0;

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
  }

  void toggle(NodeId n, ProcId p, Time start) {
    // Each field goes through the full-avalanche finalizer on its own
    // (with a distinct salt) before the three are combined: a bit-packed
    // (n << 48) ^ (p << 40) ^ start key would let start times >= 2^40
    // bleed into the processor/node bits and collapse distinct
    // placements onto one key.
    const std::uint64_t key =
        mix(static_cast<std::uint64_t>(n) + 0x9E3779B97F4A7C15ULL) ^
        mix(static_cast<std::uint64_t>(p) + 0xBF58476D1CE4E5B9ULL) ^
        mix(static_cast<std::uint64_t>(start) + 0x94D049BB133111EBULL);
    lo ^= mix(key ^ 0x9E3779B97F4A7C15ULL);
    hi ^= mix(key ^ 0xD1B54A32D192ED03ULL);
  }

  friend bool operator==(const StateHash&, const StateHash&) = default;
};

struct StateHashHasher {
  std::size_t operator()(const StateHash& h) const {
    return static_cast<std::size_t>(h.lo ^ (h.hi * 0x9E3779B97F4A7C15ULL));
  }
};

/// A partial schedule as a replayable decision list.
struct Prefix {
  std::vector<std::pair<NodeId, ProcId>> moves;
};

/// Search-wide configuration; immutable during the subtree rounds except
/// for `stop`, which only the wall-clock limit (documented as
/// non-reproducible) ever sets.
struct SearchCfg {
  const TaskGraph* g = nullptr;
  const LowerBounds* bounds = nullptr;
  int num_procs = 0;
  bool disable_bounds = false;
  double time_limit = 0.0;
  Timer* timer = nullptr;
  std::atomic<bool>* stop = nullptr;
};

/// One frontier subtree: a resumable depth-first search below a fixed
/// prefix. run_round() is a pure function of (state so far, snapshot
/// bound, budget slice) -- it reads no shared mutable data -- which is
/// what makes the whole search reproducible at any thread count.
class SubtreeSearch {
 public:
  SubtreeSearch(const SearchCfg& cfg, const Prefix& prefix,
                std::size_t seen_cap)
      : cfg_(&cfg),
        sched_(*cfg.g, cfg.num_procs),
        levels_(*cfg.g, PinnedLevels::EdgeCosts::kZero),
        sl_nc_(&cfg.bounds->static_levels_nocomm()),
        seen_cap_(seen_cap) {
    const TaskGraph& g = *cfg_->g;
    indeg_.resize(g.num_nodes());
    for (NodeId n = 0; n < g.num_nodes(); ++n) indeg_[n] = g.num_parents(n);
    for (NodeId n = 0; n < g.num_nodes(); ++n)
      if (indeg_[n] == 0) ready_.push_back(n);
    Time cp = 0;
    for (NodeId n = 0; n < g.num_nodes(); ++n)
      cp = std::max(cp, levels_[n] + (*sl_nc_)[n]);
    cp_.push_back(cp);
    for (const auto& [n, p] : prefix.moves) apply(n, p);
  }

  /// Explore until the subtree is exhausted or `budget` nodes were
  /// expanded this round, pruning against the immutable `snapshot` bound
  /// (tightened only by this subtree's own discoveries).
  void run_round(Time snapshot, std::uint64_t budget) {
    snapshot_ = snapshot;
    std::uint64_t spent = 0;
    if (!started_) {
      if (spent >= budget) return;
      started_ = true;
      ++spent;
      if (expandable()) push_frame(kNoNode);
    }
    while (depth_ > 0) {
      if (cfg_->stop->load(std::memory_order_relaxed)) return;
      Frame& f = frames_[depth_ - 1];
      if (f.next >= f.branches.size()) {
        const NodeId via = f.entered_via;
        --depth_;
        if (depth_ > 0) undo(via);
        continue;
      }
      if (spent >= budget) return;  // paused; the next round resumes here
      const Branch br = f.branches[f.next++];
      apply(br.node, br.proc);
      ++spent;
      if (expandable())
        push_frame(br.node);
      else
        undo(br.node);
    }
    exhausted_ = true;
  }

  bool exhausted() const { return exhausted_; }
  std::uint64_t nodes() const { return nodes_; }
  Time best_len() const { return best_len_; }
  const std::optional<Schedule>& best_sched() const { return best_sched_; }

  // Probe accessors for the frontier-expansion phase.
  const std::vector<NodeId>& ready() const { return ready_; }
  const Schedule& schedule() const { return sched_; }

  /// Ready tasks by descending comm-free static level (ties: smaller id)
  /// -- the branching order of both the frontier split and the DFS. The
  /// result lives in a reused buffer until the next call.
  const std::vector<NodeId>& ready_by_priority() {
    prio_.assign(ready_.begin(), ready_.end());
    std::sort(prio_.begin(), prio_.end(), [this](NodeId a, NodeId b) {
      const Time ka = (*sl_nc_)[a], kb = (*sl_nc_)[b];
      return ka != kb ? ka > kb : a < b;
    });
    return prio_;
  }

 private:
  struct Branch {
    NodeId node;
    ProcId proc;
    Time start;  // sort key only; apply() recomputes it
  };
  struct Frame {
    std::vector<Branch> branches;
    std::size_t next = 0;
    NodeId entered_via = kNoNode;  // move undone when the frame pops
  };

  /// Effective pruning bound: the round snapshot or anything better this
  /// subtree has already found itself.
  Time bound() const { return std::min(snapshot_, best_len_); }

  void apply(NodeId n, ProcId p) {
    const Time ready_t = sched_.data_ready(n, p);
    const Time start = sched_.earliest_start_on(p, ready_t, cfg_->g->weight(n),
                                                /*insertion=*/true);
    sched_.place(n, p, start);
    // start >= every parent's finish, the comm-free level n had before, so
    // the placement only raises levels: the new critical-path bound is the
    // old one or a level this placement wrote.
    Time cp = cp_.back();
    for (const NodeId u : levels_.place(n, start))
      cp = std::max(cp, levels_[u] + (*sl_nc_)[u]);
    cp_.push_back(cp);
    hash_.toggle(n, p, start);
    ready_.erase(std::find(ready_.begin(), ready_.end(), n));
    for (const Adj& c : cfg_->g->children(n))
      if (--indeg_[c.node] == 0) ready_.push_back(c.node);
  }

  void undo(NodeId n) {
    for (const Adj& c : cfg_->g->children(n)) {
      if (indeg_[c.node] == 0)
        ready_.erase(std::find(ready_.begin(), ready_.end(), c.node));
      ++indeg_[c.node];
    }
    ready_.push_back(n);
    hash_.toggle(n, sched_.proc(n), sched_.start(n));
    levels_.unplace(n);
    cp_.pop_back();
    sched_.unplace(n);
  }

  /// Count the current state as expanded; decide whether to branch below
  /// it. Complete schedules are offered to the subtree-local incumbent.
  bool expandable() {
    ++nodes_;
    if ((nodes_ & 0x3FF) == 0 && cfg_->time_limit > 0.0 &&
        cfg_->timer->seconds() > cfg_->time_limit)
      cfg_->stop->store(true, std::memory_order_relaxed);

    if (ready_.empty()) {
      const Time len = sched_.makespan();
      if (len < bound()) {
        best_len_ = len;
        best_sched_ = sched_;
      }
      return false;
    }
    if (!cfg_->disable_bounds) {
      if (cfg_->bounds->combine(cp_.back(), sched_.makespan()) >= bound())
        return false;
      // Duplicate-state elimination: different placement orders reaching
      // the same (task, proc, start) map have identical futures. Safe to
      // skip: the first visit ran under an equal-or-worse incumbent and
      // therefore explored an equal-or-larger subtree.
      if (seen_cap_ > 0 && sched_.placed_count() > 0) {
        if (seen_.count(hash_)) return false;
        if (seen_.size() < seen_cap_) seen_.insert(hash_);
      }
    }
    return true;
  }

  /// Branch list of the current state: every (ready task, processor) pair,
  /// tasks by descending level, processors by ascending start (stable),
  /// empty-processor symmetry collapsed. Frames below the stack top keep
  /// their branch buffers for the next push at that depth.
  void push_frame(NodeId via) {
    if (depth_ == frames_.size()) frames_.emplace_back();
    Frame& f = frames_[depth_++];
    f.branches.clear();
    f.next = 0;
    f.entered_via = via;
    std::vector<Branch>& br = f.branches;
    for (NodeId n : ready_by_priority()) {
      const std::size_t first = br.size();
      bool empty_seen = false;
      for (ProcId p = 0; p < cfg_->num_procs; ++p) {
        if (sched_.timeline(p).empty()) {
          if (empty_seen) continue;  // processor symmetry
          empty_seen = true;
        }
        const Time ready_t = sched_.data_ready(n, p);
        const Time start = sched_.earliest_start_on(
            p, ready_t, cfg_->g->weight(n), /*insertion=*/true);
        // Stable insertion by start: at most p entries, no buffer.
        std::size_t j = br.size();
        br.push_back({n, p, start});
        for (; j > first && br[j - 1].start > start; --j) br[j] = br[j - 1];
        br[j] = {n, p, start};
      }
    }
  }

  const SearchCfg* cfg_;
  Schedule sched_;
  PinnedLevels levels_;  // comm-free pinned t-levels
  std::vector<Time> cp_;  // critical-path bound after each placement
  std::vector<std::size_t> indeg_;
  std::vector<NodeId> ready_;
  std::vector<NodeId> prio_;  // ready_by_priority() buffer
  const std::vector<Time>* sl_nc_;  // comm-free static levels
  StateHash hash_;
  std::size_t seen_cap_;
  std::unordered_set<StateHash, StateHashHasher> seen_;

  std::vector<Frame> frames_;  // [0, depth_) is the DFS stack
  std::size_t depth_ = 0;
  bool started_ = false;
  bool exhausted_ = false;
  std::uint64_t nodes_ = 0;
  Time snapshot_ = kTimeInf;
  Time best_len_ = kTimeInf;
  std::optional<Schedule> best_sched_;
};

}  // namespace

BBResult branch_and_bound(const TaskGraph& g, const BBOptions& opt) {
  BBResult result;
  Timer total;
  if (g.num_nodes() == 0) {
    result.proven_optimal = true;
    return result;
  }

  const int nprocs = std::max(1, opt.num_procs);
  LowerBounds bounds(g, nprocs);

  std::atomic<bool> stop{false};
  SearchCfg cfg;
  cfg.g = &g;
  cfg.bounds = &bounds;
  cfg.num_procs = nprocs;
  cfg.disable_bounds = opt.disable_bounds;
  cfg.time_limit = opt.time_limit_seconds;
  cfg.timer = &total;
  cfg.stop = &stop;

  // Global incumbent, written only between rounds (single-threaded).
  // A bare upper bound admits equal-length schedules (we have none yet);
  // a seeded schedule admits strictly better ones only.
  Time incumbent = kTimeInf;
  std::optional<Schedule> best_sched;
  if (opt.initial_upper_bound > 0) incumbent = opt.initial_upper_bound + 1;
  if (opt.initial_schedule) {
    best_sched = *opt.initial_schedule;
    incumbent = std::min(incumbent, best_sched->makespan());
  }

  // Breadth-first frontier split (FIFO), identical at every thread count.
  // Each expansion branches the single most critical ready task over the
  // processors, so sibling subtrees place the same task differently and
  // stay DISJOINT in state space (overlapping subtrees would re-explore
  // shared states: the duplicate tables are per-subtree). Complete
  // prefixes feed the incumbent.
  std::vector<Prefix> frontier{{}};
  std::size_t head = 0;
  while (head < frontier.size() &&
         frontier.size() - head < kTargetFrontier) {
    const Prefix pre = std::move(frontier[head++]);
    SubtreeSearch probe(cfg, pre, /*seen_cap=*/0);
    if (probe.ready().empty()) {
      const Time len = probe.schedule().makespan();
      if (len < incumbent) {
        incumbent = len;
        best_sched = probe.schedule();
      }
      continue;
    }
    const NodeId n = probe.ready_by_priority().front();
    bool empty_seen = false;
    for (ProcId p = 0; p < nprocs; ++p) {
      if (probe.schedule().timeline(p).empty()) {
        if (empty_seen) continue;  // processor symmetry
        empty_seen = true;
      }
      Prefix child = pre;
      child.moves.emplace_back(n, p);
      frontier.push_back(std::move(child));
    }
  }
  frontier.erase(frontier.begin(),
                 frontier.begin() + static_cast<std::ptrdiff_t>(head));

  const std::size_t seen_cap = std::max<std::size_t>(
      16384, kSeenBudget / std::max<std::size_t>(1, frontier.size()));
  std::vector<std::unique_ptr<SubtreeSearch>> subtrees;
  subtrees.reserve(frontier.size());
  for (const Prefix& pre : frontier)
    subtrees.push_back(std::make_unique<SubtreeSearch>(cfg, pre, seen_cap));

  int threads = opt.num_threads > 0
                    ? opt.num_threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  threads = std::max(1, threads);

  // Round loop: ration the node-budget ledger, run every active subtree
  // against the incumbent snapshot, then merge in frontier-index order.
  // The worker pool is created lazily (multi-threaded searches only) and
  // reused across rounds; wait_idle() is the round barrier.
  std::unique_ptr<ThreadPool> pool;
  std::uint64_t spent = 0;
  std::uint64_t quantum = kInitialQuantum;
  bool budget_exhausted = false;
  std::vector<std::size_t> active;
  for (;;) {
    active.clear();
    for (std::size_t i = 0; i < subtrees.size(); ++i)
      if (!subtrees[i]->exhausted()) active.push_back(i);
    if (active.empty() || stop.load(std::memory_order_relaxed)) break;

    std::uint64_t total_alloc =
        static_cast<std::uint64_t>(active.size()) * quantum;
    if (opt.max_nodes > 0) {
      const std::uint64_t remaining =
          opt.max_nodes > spent ? opt.max_nodes - spent : 0;
      if (remaining == 0) {
        budget_exhausted = true;
        break;
      }
      total_alloc = std::min(total_alloc, remaining);
    }
    // Ledger slices: as even as integer division allows, the remainder to
    // the lowest frontier indices -- a deterministic function of
    // (round, spent), never of thread interleaving.
    const std::uint64_t base = total_alloc / active.size();
    const std::uint64_t extra = total_alloc % active.size();
    std::vector<std::uint64_t> alloc(active.size());
    for (std::size_t j = 0; j < active.size(); ++j)
      alloc[j] = base + (j < extra ? 1 : 0);

    const Time snapshot = incumbent;
    std::atomic<std::size_t> cursor{0};
    const auto worker = [&]() {
      for (;;) {
        const std::size_t j =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (j >= active.size()) return;
        if (alloc[j] == 0) continue;
        subtrees[active[j]]->run_round(snapshot, alloc[j]);
      }
    };
    const int width =
        static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(threads), active.size()));
    if (width <= 1) {
      worker();
    } else {
      if (!pool) pool = std::make_unique<ThreadPool>(threads);
      for (int t = 0; t < width; ++t) pool->submit(worker);
      pool->wait_idle();
    }

    // Barrier merge, frontier-index order: strict improvement only, so
    // ties resolve to the lowest index deterministically.
    spent = 0;
    for (const auto& s : subtrees) spent += s->nodes();
    for (const std::size_t i : active) {
      if (subtrees[i]->best_sched() && subtrees[i]->best_len() < incumbent) {
        incumbent = subtrees[i]->best_len();
        best_sched = *subtrees[i]->best_sched();
      }
    }
    quantum = std::min(quantum * 2, kMaxQuantum);
  }

  const bool all_exhausted =
      std::all_of(subtrees.begin(), subtrees.end(),
                  [](const auto& s) { return s->exhausted(); });
  result.nodes_expanded = spent;
  result.seconds = total.seconds();
  result.proven_optimal = all_exhausted && !budget_exhausted &&
                          !stop.load(std::memory_order_relaxed);
  if (best_sched) {
    result.length = best_sched->makespan();
    result.schedule = std::move(best_sched);
  } else if (opt.initial_upper_bound > 0) {
    // The bound pruned everything (or the budget ran dry first): the
    // caller's own bound is the only honest length -- never 0 for a
    // non-empty graph with a supplied incumbent.
    result.length = opt.initial_upper_bound;
  }
  return result;
}

}  // namespace tgs
