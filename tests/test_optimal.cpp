// Tests for the branch-and-bound optimal scheduler.
#include <gtest/gtest.h>

#include "tgs/gen/psg.h"
#include "tgs/gen/rgbos.h"
#include "tgs/gen/rgpos.h"
#include "tgs/gen/structured.h"
#include "tgs/harness/registry.h"
#include "tgs/optimal/bb_scheduler.h"
#include "tgs/optimal/lower_bounds.h"
#include "tgs/sched/metrics.h"
#include "tgs/sched/pinned_levels.h"
#include "tgs/sched/validate.h"
#include "tgs/util/rng.h"

namespace tgs {
namespace {

BBOptions quick(int procs, int threads = 2) {
  BBOptions opt;
  opt.num_procs = procs;
  opt.num_threads = threads;
  opt.time_limit_seconds = 30.0;
  return opt;
}

TEST(LowerBounds, StaticBound) {
  // The empty-schedule bound is max(comm-free CP, ceil(W / p)).
  const TaskGraph g = independent_tasks(4, 10);
  LowerBounds lb(g, 2);
  EXPECT_EQ(lb.evaluate(Schedule(g, 2)), 20);
  LowerBounds lb4(g, 4);
  EXPECT_EQ(lb4.evaluate(Schedule(g, 4)), 10);
}

TEST(LowerBounds, NeverExceedsAchievable) {
  // Bound of the empty schedule must be <= every heuristic's makespan.
  const TaskGraph g = psg_canonical9();
  LowerBounds lb(g, 2);
  Schedule empty(g, 2);
  const Time bound = lb.evaluate(empty);
  SchedOptions opt;
  opt.num_procs = 2;
  for (const auto& algo : make_bnp_schedulers())
    EXPECT_LE(bound, algo->run(g, opt).makespan()) << algo->name();
}

// The load bound as LowerBounds::evaluate computed it on every node before
// it became the constant ceil(W / p), frozen (busy time summed from the
// timeline intervals): ceil((sum of finishes + max(0, remaining work -
// idle gaps)) / p).
Time frozen_dynamic_load_bound(const Schedule& s, int num_procs) {
  const TaskGraph& g = s.graph();
  Time finish_sum = 0;
  Time gap_total = 0;
  for (int p = 0; p < s.num_procs(); ++p) {
    const Time fin = s.timeline(p).end_time();
    Time busy = 0;
    for (const Interval& iv : s.timeline(p).intervals())
      busy += iv.end - iv.start;
    finish_sum += fin;
    gap_total += fin - busy;
  }
  Cost remaining = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    if (!s.is_placed(u)) remaining += g.weight(u);
  const Time effective = finish_sum + std::max<Time>(0, remaining - gap_total);
  return (effective + num_procs - 1) / static_cast<Time>(num_procs);
}

/// Place a random ready task of `s` on a random processor at its earliest
/// insertion start after a random delay (0 = branch and bound's rule).
/// Returns false when no task is ready.
bool place_random_ready(Schedule& s, int num_procs, Time max_delay, Rng& rng,
                        NodeId& placed, Time& start) {
  const TaskGraph& g = s.graph();
  std::vector<NodeId> ready;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (s.is_placed(n)) continue;
    bool all = true;
    for (const Adj& par : g.parents(n)) all = all && s.is_placed(par.node);
    if (all) ready.push_back(n);
  }
  if (ready.empty()) return false;
  placed = ready[rng.uniform_int(0, ready.size() - 1)];
  const ProcId p = static_cast<ProcId>(rng.uniform_int(0, num_procs - 1));
  start = s.earliest_start_on(
      p, s.data_ready(placed, p) + rng.uniform_int(0, max_delay),
      g.weight(placed), /*insertion=*/true);
  s.place(placed, p, start);
  return true;
}

TEST(LowerBounds, DynamicLoadBoundAddsNothingToTheConstant) {
  // On random partial schedules with idle gaps, max(dynamic load bound,
  // makespan) equals max(ceil(W / p), makespan) -- combine(0, makespan).
  Rng rng(21);
  for (int procs = 1; procs <= 8; ++procs) {
    for (const double ccr : kRgbosCcrs) {
      const TaskGraph g = rgbos_graph(ccr, 20, 3 + procs);
      const LowerBounds lb(g, procs);
      for (int walk = 0; walk < 8; ++walk) {
        Schedule s(g, procs);
        NodeId n = kNoNode;
        Time start = 0;
        do {
          const Time makespan = s.makespan();
          const Time dynamic = frozen_dynamic_load_bound(s, procs);
          ASSERT_EQ(std::max(dynamic, makespan), lb.combine(0, makespan))
              << "p=" << procs << " placed " << s.placed_count();
          ASSERT_GE(dynamic, (g.total_weight() + procs - 1) / procs);
        } while (place_random_ready(s, procs, walk * 10, rng, n, start));
      }
    }
  }
}

TEST(LowerBounds, IncrementalCriticalPathMatchesEvaluate) {
  // Branch and bound's bookkeeping: comm-free PinnedLevels plus a stack of
  // critical-path bounds raised by the levels each placement writes. Under
  // its placement rule (earliest insertion start, no delay) and LIFO
  // undo, the combined bound must equal the from-scratch evaluate().
  Rng rng(7);
  for (const int procs : {1, 2, 3, 4}) {
    for (const double ccr : kRgbosCcrs) {
      const TaskGraph g = rgbos_graph(ccr, 26, 40 + procs);
      const LowerBounds lb(g, procs);
      const std::vector<Time>& sl = lb.static_levels_nocomm();
      Schedule s(g, procs);
      PinnedLevels levels(g, PinnedLevels::EdgeCosts::kZero);
      std::vector<Time> cp{0};
      for (NodeId u = 0; u < g.num_nodes(); ++u)
        cp[0] = std::max(cp[0], levels[u] + sl[u]);
      std::vector<NodeId> order;
      for (std::size_t step = 0; step < 6 * g.num_nodes(); ++step) {
        NodeId n = kNoNode;
        Time start = 0;
        if (!order.empty() && rng.bernoulli(0.3)) {
          levels.unplace(order.back());
          s.unplace(order.back());
          order.pop_back();
          cp.pop_back();
        } else if (place_random_ready(s, procs, 0, rng, n, start)) {
          Time c = cp.back();
          for (const NodeId u : levels.place(n, start))
            c = std::max(c, levels[u] + sl[u]);
          cp.push_back(c);
          order.push_back(n);
        }
        ASSERT_EQ(lb.combine(cp.back(), s.makespan()), lb.evaluate(s))
            << g.name() << " p=" << procs << " step " << step;
      }
    }
  }
}

TEST(BranchAndBound, ChainIsSerial) {
  const TaskGraph g = chain_graph(5, 10, 50);
  const BBResult r = branch_and_bound(g, quick(2));
  ASSERT_TRUE(r.schedule.has_value());
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, 50);
  EXPECT_TRUE(validate_schedule(*r.schedule, 2).ok);
}

TEST(BranchAndBound, IndependentTasksBalanced) {
  const TaskGraph g = independent_tasks(6, 10);
  const BBResult r = branch_and_bound(g, quick(2));
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, 30);
  const BBResult r3 = branch_and_bound(g, quick(3));
  EXPECT_EQ(r3.length, 20);
}

TEST(BranchAndBound, UnevenTasksPackOptimally) {
  // Weights 7, 5, 4, 3, 2 on 2 procs: optimal makespan = ceil(21/2) = 11
  // (7+4 | 5+3+2).
  TaskGraphBuilder b;
  for (Cost w : {7, 5, 4, 3, 2}) b.add_node(w);
  const TaskGraph g = b.finalize();
  const BBResult r = branch_and_bound(g, quick(2));
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, 11);
}

TEST(BranchAndBound, CommForcesSerializationWhenHeavy) {
  // fork-join with comm 100 and tiny tasks: staying serial is optimal.
  const TaskGraph g = fork_join(3, 5, 100);
  const BBResult r = branch_and_bound(g, quick(3));
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, g.total_weight());
}

TEST(BranchAndBound, CommCheapAllowsParallelism) {
  // fork-join with free comm on 3 procs: 5 + 5 + 5 = 15.
  const TaskGraph g = fork_join(3, 5, 0);
  const BBResult r = branch_and_bound(g, quick(3));
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, 15);
}

TEST(BranchAndBound, MatchesExhaustiveOnTinyGraphs) {
  // Bounds on vs off must agree (bounds only prune, never lose optima).
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const TaskGraph g = rgbos_graph(1.0, 10, seed);
    BBOptions with = quick(2);
    BBOptions without = quick(2);
    without.disable_bounds = true;
    without.time_limit_seconds = 60.0;
    const BBResult a = branch_and_bound(g, with);
    const BBResult c = branch_and_bound(g, without);
    ASSERT_TRUE(a.proven_optimal);
    ASSERT_TRUE(c.proven_optimal);
    EXPECT_EQ(a.length, c.length) << "seed " << seed;
  }
}

TEST(BranchAndBound, NeverWorseThanHeuristics) {
  const TaskGraph g = rgbos_graph(10.0, 14, 5);
  SchedOptions opt;
  opt.num_procs = 2;
  Time best_heur = kTimeInf;
  for (const auto& algo : make_bnp_schedulers())
    best_heur = std::min(best_heur, algo->run(g, opt).makespan());
  BBOptions bb = quick(2);
  bb.initial_upper_bound = best_heur;
  const BBResult r = branch_and_bound(g, bb);
  ASSERT_TRUE(r.proven_optimal);
  ASSERT_TRUE(r.schedule.has_value());
  EXPECT_LE(r.length, best_heur);
  EXPECT_TRUE(validate_schedule(*r.schedule, 2).ok);
}

TEST(BranchAndBound, FindsPlantedRgposOptimum) {
  // RGPOS plants a no-idle optimal schedule; B&B must recover its length.
  RgposParams p;
  p.num_nodes = 12;
  p.num_procs = 2;
  p.ccr = 1.0;
  p.seed = 4;
  const RgposGraph r = rgpos_graph(p);
  const BBResult bb = branch_and_bound(r.graph, quick(2));
  ASSERT_TRUE(bb.proven_optimal);
  EXPECT_EQ(bb.length, r.optimal_length);
}

TEST(BranchAndBound, Canonical9TwoProcs) {
  const TaskGraph g = psg_canonical9();
  const BBResult r = branch_and_bound(g, quick(2));
  ASSERT_TRUE(r.proven_optimal);
  ASSERT_TRUE(r.schedule.has_value());
  EXPECT_TRUE(validate_schedule(*r.schedule, 2).ok);
  // Optimal is at most the best heuristic and at least the comp-CP bound.
  EXPECT_GE(r.length, schedule_length_lower_bound(g, 2));
  SchedOptions opt;
  opt.num_procs = 2;
  for (const auto& algo : make_bnp_schedulers())
    EXPECT_LE(r.length, algo->run(g, opt).makespan());
}

TEST(BranchAndBound, TimeBudgetReturnsBestFound) {
  // A large instance with an absurdly small budget must still return
  // something (not proven).
  const TaskGraph g = rgbos_graph(1.0, 28, 9);
  BBOptions opt = quick(2);
  opt.time_limit_seconds = 0.05;
  SchedOptions heur_opt;
  heur_opt.num_procs = 2;
  const Time heur = make_scheduler("MCP")->run(g, heur_opt).makespan();
  opt.initial_upper_bound = heur;
  const BBResult r = branch_and_bound(g, opt);
  // Either it proved within budget (fast machine) or returned best-found.
  if (r.schedule.has_value()) {
    EXPECT_LE(r.length, heur);
    EXPECT_TRUE(validate_schedule(*r.schedule, 2).ok);
  } else {
    EXPECT_FALSE(r.proven_optimal);
  }
}

TEST(BranchAndBound, SingleProcessorIsSerialSum) {
  const TaskGraph g = psg_irregular13();
  const BBResult r = branch_and_bound(g, quick(1));
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, g.total_weight());
}

TEST(BranchAndBound, EmptyGraph) {
  TaskGraphBuilder b;
  const TaskGraph g = b.finalize();
  const BBResult r = branch_and_bound(g, quick(2));
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, 0);
}

TEST(BranchAndBound, DeterministicWhenProven) {
  const TaskGraph g = rgbos_graph(0.1, 12, 33);
  const BBResult a = branch_and_bound(g, quick(2));
  const BBResult b = branch_and_bound(g, quick(2, /*threads=*/4));
  ASSERT_TRUE(a.proven_optimal);
  ASSERT_TRUE(b.proven_optimal);
  EXPECT_EQ(a.length, b.length);
}

void expect_identical_results(const BBResult& a, const BBResult& b,
                              const TaskGraph& g) {
  EXPECT_EQ(a.length, b.length);
  EXPECT_EQ(a.proven_optimal, b.proven_optimal);
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  ASSERT_EQ(a.schedule.has_value(), b.schedule.has_value());
  if (a.schedule) {
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      EXPECT_EQ(a.schedule->proc(n), b.schedule->proc(n)) << "task " << n;
      EXPECT_EQ(a.schedule->start(n), b.schedule->start(n)) << "task " << n;
    }
  }
}

TEST(BranchAndBound, ByteIdenticalAtOneVsEightThreads) {
  // The round-synchronous search contract: schedule, length,
  // proven_optimal AND nodes_expanded are pure functions of the input --
  // num_threads is execution width only.
  for (const double ccr : {0.1, 1.0, 10.0}) {
    const TaskGraph g = rgbos_graph(ccr, 14, 21);
    const BBResult a = branch_and_bound(g, quick(2, /*threads=*/1));
    const BBResult b = branch_and_bound(g, quick(2, /*threads=*/8));
    SCOPED_TRACE(ccr);
    ASSERT_TRUE(a.schedule.has_value());
    expect_identical_results(a, b, g);
  }
}

TEST(BranchAndBound, ByteIdenticalAcrossThreadsUnderNodeBudget) {
  // Budget truncation must also cut at the same node at any thread count:
  // the budget is rationed per subtree by the round ledger, not by a
  // shared fetch-add race.
  const TaskGraph g = rgbos_graph(1.0, 24, 9);
  BBOptions opt = quick(2, /*threads=*/1);
  opt.time_limit_seconds = 0.0;
  opt.max_nodes = 20'000;
  const BBResult a = branch_and_bound(g, opt);
  opt.num_threads = 8;
  const BBResult b = branch_and_bound(g, opt);
  EXPECT_GE(a.nodes_expanded, 1u);
  expect_identical_results(a, b, g);
}

TEST(BranchAndBound, UpperBoundPruningEverythingReportsTheBound) {
  // A bound below every achievable makespan prunes the whole tree; the
  // result must report that bound (not a bogus 0) and stay proven.
  const TaskGraph g = chain_graph(5, 10, 50);  // optimum = 50
  BBOptions opt = quick(2);
  opt.initial_upper_bound = 20;
  const BBResult r = branch_and_bound(g, opt);
  EXPECT_FALSE(r.schedule.has_value());
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, 20);
}

TEST(BranchAndBound, InitialScheduleSeedsTheIncumbent) {
  const TaskGraph g = rgbos_graph(10.0, 14, 5);
  SchedOptions heur_opt;
  heur_opt.num_procs = 2;
  const Schedule heur = make_scheduler("MCP")->run(g, heur_opt);

  // Starved budget: too small to complete anything, yet the seeded
  // incumbent guarantees a schedule no worse than the heuristic.
  BBOptions starved = quick(2);
  starved.time_limit_seconds = 0.0;
  starved.max_nodes = 1;
  starved.initial_schedule = heur;
  const BBResult r = branch_and_bound(g, starved);
  ASSERT_TRUE(r.schedule.has_value());
  EXPECT_LE(r.length, heur.makespan());
  EXPECT_FALSE(r.proven_optimal);
  EXPECT_TRUE(validate_schedule(*r.schedule, 2).ok);

  // Full search seeded with the heuristic: still finds the true optimum.
  BBOptions full = quick(2);
  full.initial_schedule = heur;
  full.initial_upper_bound = heur.makespan();
  const BBResult best = branch_and_bound(g, full);
  const BBResult unseeded = branch_and_bound(g, quick(2));
  ASSERT_TRUE(best.proven_optimal);
  ASSERT_TRUE(best.schedule.has_value());
  EXPECT_EQ(best.length, unseeded.length);
}

}  // namespace
}  // namespace tgs
