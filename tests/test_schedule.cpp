// Unit tests for sched/schedule.h and sched/validate.h.
#include <gtest/gtest.h>

#include <vector>

#include "tgs/gen/psg.h"
#include "tgs/gen/rgbos.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/structured.h"
#include "tgs/sched/gantt.h"
#include "tgs/sched/pinned_levels.h"
#include "tgs/sched/schedule.h"
#include "tgs/sched/validate.h"
#include "tgs/util/rng.h"

namespace tgs {
namespace {

TEST(Schedule, PlaceAndQuery) {
  const TaskGraph g = chain_graph(3, 10, 5);
  Schedule s(g, 2);
  s.place(0, 0, 0);
  s.place(1, 0, 10);
  s.place(2, 1, 35);  // cross-proc: 20 finish + 5 comm would be 25; 35 ok
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.proc(1), 0);
  EXPECT_EQ(s.start(2), 35);
  EXPECT_EQ(s.finish(2), 45);
  EXPECT_EQ(s.makespan(), 45);
  EXPECT_EQ(s.procs_used(), 2);
}

TEST(Schedule, RejectsDoublePlacement) {
  const TaskGraph g = independent_tasks(2);
  Schedule s(g);
  s.place(0, 0, 0);
  EXPECT_THROW(s.place(0, 1, 0), std::logic_error);
}

TEST(Schedule, RejectsProcessorOverlap) {
  const TaskGraph g = independent_tasks(2, 10);
  Schedule s(g);
  s.place(0, 0, 0);
  EXPECT_THROW(s.place(1, 0, 5), std::logic_error);
}

TEST(Schedule, UnplaceRestoresState) {
  const TaskGraph g = independent_tasks(2, 10);
  Schedule s(g);
  s.place(0, 0, 0);
  s.unplace(0);
  EXPECT_FALSE(s.is_placed(0));
  EXPECT_EQ(s.placed_count(), 0u);
  s.place(1, 0, 3);  // the slot is free again
  EXPECT_EQ(s.start(1), 3);
  EXPECT_THROW(s.unplace(0), std::logic_error);
}

TEST(Schedule, DataReadyAccountsForCommunication) {
  const TaskGraph g = fork_join(2, 10, 5);  // 0=fork, 1..2=workers, 3=join
  Schedule s(g, 3);
  s.place(0, 0, 0);  // finishes at 10
  EXPECT_EQ(s.data_ready(1, 0), 10);  // same proc: no comm
  EXPECT_EQ(s.data_ready(1, 1), 15);  // cross: +5
  s.place(1, 0, 10);
  s.place(2, 1, 15);
  // join on proc 0: worker1 local (20), worker2 cross (25+5=30).
  EXPECT_EQ(s.data_ready(3, 0), 30);
  // join on proc 2: both cross: max(20+5, 25+5) = 30.
  EXPECT_EQ(s.data_ready(3, 2), 30);
}

TEST(Schedule, EstUsesInsertionWhenAsked) {
  const TaskGraph g = independent_tasks(3, 10);
  Schedule s(g, 1);
  s.place(0, 0, 0);
  s.place(1, 0, 30);  // gap [10, 30)
  EXPECT_EQ(s.est(2, 0, /*insertion=*/true), 10);
  EXPECT_EQ(s.est(2, 0, /*insertion=*/false), 40);
}

TEST(Schedule, PinnedTLevelsPinPlacedAndKeepEdgeCosts) {
  // 0 -> 1 -> 2 with edge costs 5 and 2; 3 is an isolated entry.
  TaskGraphBuilder b("pinned");
  b.add_node(10);
  b.add_node(20);
  b.add_node(3);
  b.add_node(6);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 2);
  const TaskGraph g = b.finalize();
  Schedule s(g, 2);
  s.place(0, 0, 4);
  s.place(3, 1, 50);
  std::vector<Time> t(7, -1);  // stale contents are overwritten
  s.pinned_t_levels(t);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], 4);   // placed: its start, not its t-level 0
  EXPECT_EQ(t[3], 50);
  EXPECT_EQ(t[1], 4 + 10 + 5);  // the edge cost stays: 1 has no processor
  EXPECT_EQ(t[2], 19 + 20 + 2);
}

TaskGraph with_zero_edge_costs(const TaskGraph& g) {
  TaskGraphBuilder b("zero-cost");
  for (NodeId n = 0; n < g.num_nodes(); ++n) b.add_node(g.weight(n));
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    for (const Adj& c : g.children(n)) b.add_edge(n, c.node, 0);
  return b.finalize();
}

TEST(PinnedLevels, MatchesFullPassUnderRandomPlaceUnplace) {
  // A random walk of placements and LIFO unplacements. Each placed task's
  // parents are placed (as in every scheduler); its start is an insertion
  // fit at or after a random delay past its data-ready time, so levels
  // both rise and fall. After every step the kKeep levels must equal
  // Schedule::pinned_t_levels, and the kZero levels the same pass on a
  // copy of the graph whose edges cost nothing.
  std::vector<TaskGraph> graphs;
  for (const double ccr : kRgbosCcrs) graphs.push_back(rgbos_graph(ccr, 24, 5));
  for (const double ccr : {0.1, 1.0, 10.0}) {
    RgnosParams p;
    p.num_nodes = 120;
    p.ccr = ccr;
    p.seed = 11;
    graphs.push_back(rgnos_graph(p));
  }
  Rng rng(2026);
  for (const TaskGraph& g : graphs) {
    const TaskGraph g0 = with_zero_edge_costs(g);
    Schedule s(g, 4), s0(g0, 4);
    PinnedLevels keep(g, PinnedLevels::EdgeCosts::kKeep);
    PinnedLevels zero(g, PinnedLevels::EdgeCosts::kZero);
    std::vector<std::size_t> unplaced_parents(g.num_nodes());
    for (NodeId n = 0; n < g.num_nodes(); ++n)
      unplaced_parents[n] = g.num_parents(n);
    std::vector<NodeId> order;  // placement order, for LIFO unplace
    std::vector<Time> want;
    for (std::size_t step = 0; step < 4 * g.num_nodes(); ++step) {
      std::vector<NodeId> ready;
      for (NodeId n = 0; n < g.num_nodes(); ++n)
        if (!s.is_placed(n) && unplaced_parents[n] == 0) ready.push_back(n);
      if (!order.empty() && (ready.empty() || rng.bernoulli(0.35))) {
        const NodeId n = order.back();
        order.pop_back();
        keep.unplace(n);
        zero.unplace(n);
        s.unplace(n);
        s0.unplace(n);
        for (const Adj& c : g.children(n)) ++unplaced_parents[c.node];
      } else {
        const NodeId n = ready[rng.uniform_int(0, ready.size() - 1)];
        const ProcId p = static_cast<ProcId>(rng.uniform_int(0, 3));
        const Time start = s.earliest_start_on(
            p, s.data_ready(n, p) + rng.uniform_int(0, 40), g.weight(n),
            /*insertion=*/true);
        s.place(n, p, start);
        s0.place(n, p, start);
        const auto written = keep.place(n, start);
        ASSERT_FALSE(written.empty());
        EXPECT_EQ(written.front(), n);
        zero.place(n, start);
        order.push_back(n);
        for (const Adj& c : g.children(n)) --unplaced_parents[c.node];
      }
      s.pinned_t_levels(want);
      for (NodeId n = 0; n < g.num_nodes(); ++n)
        ASSERT_EQ(keep[n], want[n]) << g.name() << " step " << step;
      s0.pinned_t_levels(want);
      for (NodeId n = 0; n < g.num_nodes(); ++n)
        ASSERT_EQ(zero[n], want[n]) << g.name() << " step " << step;
    }
  }
}

TEST(PinnedLevels, CommitKeepsValuesAndDropsUndo) {
  const TaskGraph g = chain_graph(3, 10, 5);
  PinnedLevels t(g, PinnedLevels::EdgeCosts::kKeep);
  EXPECT_EQ(t[2], 30);  // (10 + 5) * 2
  t.place(0, 7);
  t.commit();
  EXPECT_EQ(t[1], 22);
  t.place(1, 40);
  EXPECT_EQ(t[2], 55);
  t.unplace(1);  // undoes only the placement after the commit
  EXPECT_EQ(t[0], 7);
  EXPECT_EQ(t[2], 37);
}

TEST(Schedule, GrowsProcessorsOnDemand) {
  const TaskGraph g = independent_tasks(2);
  Schedule s(g, 1);
  s.place(0, 0, 0);
  s.place(1, 5, 0);
  EXPECT_GE(s.num_procs(), 6);
  EXPECT_EQ(s.procs_used(), 2);
}

TEST(Validate, AcceptsCorrectSchedule) {
  const TaskGraph g = chain_graph(3, 10, 5);
  Schedule s(g, 2);
  s.place(0, 0, 0);
  s.place(1, 0, 10);
  s.place(2, 1, 25);
  EXPECT_TRUE(validate_schedule(s));
}

TEST(Validate, RejectsIncomplete) {
  const TaskGraph g = chain_graph(2);
  Schedule s(g);
  s.place(0, 0, 0);
  const auto r = validate_schedule(s);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not placed"), std::string::npos);
}

TEST(Validate, RejectsSameProcPrecedenceViolation) {
  TaskGraphBuilder b;
  const NodeId x = b.add_node(10);
  const NodeId y = b.add_node(10);
  b.add_edge(x, y, 0);
  const TaskGraph g = b.finalize();
  Schedule s(g, 2);
  s.place(y, 0, 0);
  s.place(x, 0, 10);  // child before parent on the same proc
  const auto r = validate_schedule(s);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("violated"), std::string::npos);
}

TEST(Validate, RejectsMissingCommDelay) {
  const TaskGraph g = chain_graph(2, 10, 5);
  Schedule s(g, 2);
  s.place(0, 0, 0);
  s.place(1, 1, 12);  // needs 10 + 5 = 15 cross-proc
  EXPECT_FALSE(validate_schedule(s).ok);
  Schedule ok(g, 2);
  ok.place(0, 0, 0);
  ok.place(1, 1, 15);
  EXPECT_TRUE(validate_schedule(ok).ok);
}

TEST(Validate, EnforcesProcessorBound) {
  const TaskGraph g = independent_tasks(2, 5);
  Schedule s(g, 4);
  s.place(0, 0, 0);
  s.place(1, 3, 0);
  EXPECT_TRUE(validate_schedule(s).ok);
  EXPECT_FALSE(validate_schedule(s, /*max_procs=*/2).ok);
}

TEST(Gantt, ListingAndChartRender) {
  const TaskGraph g = psg_canonical9();
  Schedule s(g, 2);
  // Simple serial placement on one processor in topological order.
  Time t = 0;
  for (NodeId n : g.topological_order()) {
    s.place(n, 0, t);
    t += g.weight(n);
  }
  EXPECT_TRUE(validate_schedule(s).ok);
  const std::string listing = schedule_listing(s);
  EXPECT_NE(listing.find("P0"), std::string::npos);
  EXPECT_NE(listing.find("n1"), std::string::npos);
  const std::string chart = gantt_chart(s, 60);
  EXPECT_NE(chart.find('#'), std::string::npos);
}

}  // namespace
}  // namespace tgs
