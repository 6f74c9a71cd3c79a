// Tests for the four APN algorithms: message-level validity across
// topologies, determinism, and algorithm-specific behaviours.
#include <gtest/gtest.h>

#include "reference_schedulers.h"
#include "tgs/apn/bsa.h"
#include "tgs/apn/bu.h"
#include "tgs/apn/dls_apn.h"
#include "tgs/apn/mh.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/structured.h"
#include "tgs/graph/attributes.h"
#include "tgs/harness/registry.h"
#include "tgs/net/net_validate.h"
#include "tgs/unc/cluster_schedule.h"
#include "tgs/util/rng.h"

namespace tgs {
namespace {

std::vector<TaskGraph> apn_zoo() {
  std::vector<TaskGraph> zoo;
  zoo.push_back(psg_canonical9());
  zoo.push_back(psg_irregular13());
  zoo.push_back(chain_graph(6, 10, 20));
  zoo.push_back(fork_join(5, 10, 30));
  RgnosParams p;
  p.num_nodes = 50;
  p.ccr = 1.0;
  p.parallelism = 3;
  p.seed = 14;
  zoo.push_back(rgnos_graph(p));
  return zoo;
}

std::vector<Topology> topo_zoo() {
  std::vector<Topology> topos;
  topos.push_back(Topology::ring(4));
  topos.push_back(Topology::mesh(2, 3));
  topos.push_back(Topology::hypercube(3));
  topos.push_back(Topology::fully_connected(4));
  topos.push_back(Topology::star(5));
  return topos;
}

TEST(Apn, AllValidAcrossTopologies) {
  for (const auto& topo : topo_zoo()) {
    const RoutingTable routes(topo);
    for (const auto& algo : make_apn_schedulers()) {
      for (const auto& g : apn_zoo()) {
        const NetSchedule ns = algo->run(g, routes);
        const auto v = validate_net_schedule(ns);
        EXPECT_TRUE(v.ok) << algo->name() << " on " << g.name() << " / "
                          << topo.name() << ": " << v.error;
        EXPECT_GE(ns.makespan(), computation_critical_path_length(g));
      }
    }
  }
}

TEST(Apn, Deterministic) {
  const Topology topo = Topology::hypercube(3);
  const RoutingTable routes(topo);
  RgnosParams p;
  p.num_nodes = 40;
  p.seed = 77;
  const TaskGraph g = rgnos_graph(p);
  for (const auto& algo : make_apn_schedulers()) {
    const NetSchedule a = algo->run(g, routes);
    const NetSchedule b = algo->run(g, routes);
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      EXPECT_EQ(a.tasks().proc(n), b.tasks().proc(n)) << algo->name();
      EXPECT_EQ(a.tasks().start(n), b.tasks().start(n)) << algo->name();
    }
  }
}

TEST(ApnCommon, BuildWithAssignmentRoutesEverything) {
  const TaskGraph g = psg_canonical9();
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  std::vector<ProcId> assign(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) assign[n] = n % 4;
  const NetSchedule ns =
      apn_build_with_assignment(g, routes, assign, /*insertion=*/false);
  const auto v = validate_net_schedule(ns);
  EXPECT_TRUE(v.ok) << v.error;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    EXPECT_EQ(ns.tasks().proc(n), assign[n]);
}

TEST(ApnCommon, ProbeNeverBeatsCommit) {
  // The probe ignores intra-node message contention, so the committed
  // start can only be later or equal.
  const TaskGraph g = psg_irregular13();
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  for (NodeId n : blevel_order(g)) {
    const int p = static_cast<int>(n % 4);
    const Time probe = apn_probe_est(ns, n, p, false);
    const Time committed = apn_commit_node(ns, n, p, false);
    EXPECT_LE(probe, committed);
  }
  EXPECT_TRUE(validate_net_schedule(ns).ok);
}

/// Small DAG with zero-cost edges and heavy fan-in: the probe-sweep edge
/// cases (instantaneous messages, many co-located parents).
TaskGraph zero_cost_mix() {
  TaskGraphBuilder b("zero_cost_mix");
  for (int i = 0; i < 10; ++i) b.add_node(5 + i);
  b.add_edge(0, 3, 0);
  b.add_edge(0, 4, 12);
  b.add_edge(1, 4, 0);
  b.add_edge(1, 5, 30);
  b.add_edge(2, 5, 0);
  b.add_edge(3, 6, 7);
  b.add_edge(4, 6, 0);
  b.add_edge(5, 6, 25);
  b.add_edge(3, 7, 0);
  b.add_edge(4, 7, 0);
  b.add_edge(6, 8, 40);
  b.add_edge(7, 8, 0);
  b.add_edge(6, 9, 1);
  b.add_edge(7, 9, 2);
  return b.finalize();
}

TEST(ApnCommon, ProbeEstAllMatchesPerProcessor) {
  // One-to-all EST sweeps against per-processor probes, at every step of a
  // contended build-up (messages committed between probes), including
  // zero-cost edges and co-located parents.
  std::vector<TaskGraph> graphs = apn_zoo();
  graphs.push_back(zero_cost_mix());
  for (const auto& topo : topo_zoo()) {
    const RoutingTable routes(topo);
    const int nprocs = topo.num_procs();
    for (const auto& g : graphs) {
      NetSchedule ns(g, routes);
      ApnSweepScratch scratch;
      int i = 0;
      for (NodeId n : blevel_order(g)) {
        for (const bool insertion : {false, true}) {
          apn_probe_est_all(ns, n, insertion, scratch);
          for (int p = 0; p < nprocs; ++p)
            ASSERT_EQ(scratch.est[p], apn_probe_est(ns, n, p, insertion))
                << g.name() << " on " << topo.name() << " node " << n
                << " proc " << p << " insertion " << insertion;
        }
        // Clustered placement co-locates consecutive nodes (zero-hop
        // parents) while still crossing links regularly.
        apn_commit_node(ns, n, (i++ / 2) % nprocs, /*insertion=*/false);
      }
    }
  }
}

// Golden APN schedules on multi-hop topologies: exact (proc, start) of
// every task, captured from the pre-gap-index/pre-sweep implementation.
// Guards the byte-identical contract of the fast network core on routes
// longer than one hop (the JSONL goldens cover hypercube(3) only).
TEST(Apn, GoldenSchedulesOnMultiHopTopologies) {
  RgnosParams p;
  p.num_nodes = 60;
  p.ccr = 2.0;
  p.parallelism = 3;
  p.seed = 424242;
  const TaskGraph g = rgnos_graph(p);
  const RoutingTable ring6{Topology::ring(6)};
  const RoutingTable mesh23{Topology::mesh(2, 3)};

  using PS = std::pair<ProcId, Time>;
  const auto expect_schedule = [&](const NetSchedule& ns,
                                   const std::vector<PS>& want,
                                   const char* label) {
    ASSERT_EQ(want.size(), g.num_nodes()) << label;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      EXPECT_EQ(ns.tasks().proc(n), want[n].first) << label << " node " << n;
      EXPECT_EQ(ns.tasks().start(n), want[n].second) << label << " node " << n;
    }
  };

  const NetSchedule mh = MhScheduler().run(g, ring6);
  EXPECT_EQ(mh.makespan(), 6978);
  expect_schedule(
      mh,
      {{4,99},{4,110},{0,0},{2,43},{5,92},{3,59},{5,0},{2,76},{1,73},{4,77},
       {5,49},{0,67},{5,832},{3,0},{4,0},{2,0},{3,105},{5,88},{0,100},{0,70},
       {1,0},{4,68},{5,875},{4,1193},{0,321},{2,701},{2,1621},{3,478},
       {2,1498},{4,1392},{5,786},{1,1311},{4,1554},{1,1084},{1,1188},{3,599},
       {3,1203},{5,695},{1,857},{0,386},{2,914},{0,551},{3,3550},{3,1804},
       {1,635},{5,180},{3,1238},{2,581},{1,579},{1,5933},{1,4639},{0,4047},
       {1,5318},{1,1959},{0,5035},{0,2676},{1,3232},{1,6611},{4,6946},
       {1,5613}},
      "MH/ring6");

  const NetSchedule dls = DlsApnScheduler().run(g, ring6);
  EXPECT_EQ(dls.makespan(), 5885);
  expect_schedule(
      dls,
      {{2,101},{2,112},{3,0},{0,68},{1,73},{4,73},{3,67},{2,0},{2,55},
       {5,109},{0,104},{0,101},{5,171},{5,0},{0,0},{4,0},{1,113},{4,119},
       {5,59},{4,43},{1,0},{3,116},{3,176},{4,1194},{4,634},{5,131},{3,571},
       {4,297},{5,1715},{3,1411},{1,1453},{3,780},{1,1803},{5,1494},{0,293},
       {1,190},{2,349},{4,944},{1,540},{4,243},{5,337},{0,435},{0,1021},
       {1,2238},{1,145},{3,125},{4,163},{0,167},{1,2070},{0,3811},{1,4410},
       {4,4594},{5,3106},{1,2984},{5,2140},{1,2711},{1,3548},{2,5006},
       {5,5481},{3,5808}},
      "DLS-APN/ring6");

  const NetSchedule bu = BuScheduler().run(g, ring6);
  EXPECT_EQ(bu.makespan(), 6053);
  expect_schedule(
      bu,
      {{0,55},{1,713},{1,0},{1,359},{1,557},{1,431},{1,310},{0,0},{1,489},
       {1,535},{1,392},{1,477},{5,0},{1,183},{1,242},{1,140},{1,704},{2,30},
       {0,66},{2,0},{1,67},{1,480},{4,0},{2,1027},{1,784},{1,1032},{0,1375},
       {0,873},{2,1773},{1,1352},{1,1072},{1,1243},{1,2027},{2,1215},
       {1,1193},{2,793},{2,1914},{1,933},{1,1118},{1,849},{1,1148},{0,600},
       {0,3520},{1,2478},{1,987},{1,653},{2,2047},{1,879},{1,597},{3,5546},
       {2,3919},{0,3206},{2,4528},{0,2364},{0,4177},{1,2405},{1,2525},
       {2,5987},{1,6021},{0,5262}},
      "BU/ring6");

  const NetSchedule bsa = BsaScheduler().run(g, mesh23);
  EXPECT_EQ(bsa.makespan(), 2082);
  expect_schedule(
      bsa,
      {{3,39},{5,68},{1,0},{1,67},{2,43},{1,100},{4,59},{1,225},{1,179},
       {1,280},{3,0},{1,146},{3,50},{4,0},{5,0},{2,0},{1,463},{1,302},
       {1,306},{1,149},{0,0},{4,108},{2,83},{1,1082},{1,472},{1,840},
       {1,1340},{1,683},{1,1267},{1,1194},{1,903},{1,1173},{1,1496},
       {1,1104},{1,1024},{1,880},{1,1294},{1,741},{1,949},{1,537},{1,979},
       {1,567},{1,1439},{1,1648},{1,795},{1,412},{1,1363},{1,629},{1,356},
       {1,1933},{1,1758},{1,1735},{1,1469},{1,1391},{1,1804},{1,1543},
       {1,1694},{1,2008},{1,2050},{1,1856}},
      "BSA/mesh23");
}

TEST(ApnCommon, BuildWithAssignmentRejectsWrongSizedVector) {
  const TaskGraph g = psg_canonical9();
  const RoutingTable routes{Topology::ring(4)};
  std::vector<ProcId> short_assign(g.num_nodes() - 1, 0);
  EXPECT_THROW(
      apn_build_with_assignment(g, routes, short_assign, /*insertion=*/true),
      std::invalid_argument);
  std::vector<ProcId> long_assign(g.num_nodes() + 3, 0);
  EXPECT_THROW(
      apn_build_with_assignment(g, routes, long_assign, /*insertion=*/true),
      std::invalid_argument);
}

/// Full byte-level equality of two NetSchedules: every task placement and
/// every committed message, hop by hop.
void expect_net_equal(const NetSchedule& a, const NetSchedule& b,
                      const std::string& label) {
  const TaskGraph& g = a.graph();
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    ASSERT_EQ(a.tasks().is_placed(n), b.tasks().is_placed(n))
        << label << " node " << n;
    if (!a.tasks().is_placed(n)) continue;
    ASSERT_EQ(a.tasks().proc(n), b.tasks().proc(n)) << label << " node " << n;
    ASSERT_EQ(a.tasks().start(n), b.tasks().start(n))
        << label << " node " << n;
  }
  const std::vector<Message>& ma = a.messages();
  const std::vector<Message>& mb = b.messages();
  ASSERT_EQ(ma.size(), mb.size()) << label;
  for (std::size_t i = 0; i < ma.size(); ++i) {
    ASSERT_EQ(ma[i].src, mb[i].src) << label << " msg " << i;
    ASSERT_EQ(ma[i].dst, mb[i].dst) << label << " msg " << i;
    ASSERT_EQ(ma[i].size, mb[i].size) << label << " msg " << i;
    ASSERT_EQ(ma[i].depart_after, mb[i].depart_after) << label << " msg " << i;
    ASSERT_EQ(ma[i].arrival, mb[i].arrival) << label << " msg " << i;
    ASSERT_EQ(ma[i].hops.size(), mb[i].hops.size()) << label << " msg " << i;
    for (std::size_t h = 0; h < ma[i].hops.size(); ++h) {
      ASSERT_EQ(ma[i].hops[h].link, mb[i].hops[h].link)
          << label << " msg " << i << " hop " << h;
      ASSERT_EQ(ma[i].hops[h].start, mb[i].hops[h].start)
          << label << " msg " << i << " hop " << h;
      ASSERT_EQ(ma[i].hops[h].end, mb[i].hops[h].end)
          << label << " msg " << i << " hop " << h;
    }
  }
}

// BsaScheduler against its frozen rebuild-per-migration copy
// (tests/reference_schedulers.h): final schedules byte-identical across
// the APN graph zoo x the topology zoo plus an RGNOS v=45 graph.
TEST(Bsa, MatchesFrozenRebuildReference) {
  std::vector<TaskGraph> graphs = apn_zoo();
  {
    RgnosParams p;
    p.num_nodes = 45;
    p.ccr = 2.0;
    p.parallelism = 4;
    p.seed = 9001;
    graphs.push_back(rgnos_graph(p));
  }
  for (const auto& topo : topo_zoo()) {
    const RoutingTable routes(topo);
    for (const auto& g : graphs) {
      const std::string label = g.name() + " on " + topo.name();
      const NetSchedule want = reference::full_rebuild_bsa(g, routes);
      const NetSchedule got = BsaScheduler().run(g, routes);
      expect_net_equal(got, want, label);
    }
  }
}

/// A random DAG with weights and costs drawn from tiny ranges, so finish
/// times and message sizes tie often; about a quarter of the edges cost 0.
TaskGraph tie_heavy_graph(NodeId v, double edge_prob, std::uint64_t seed) {
  Rng rng(seed);
  TaskGraphBuilder b("tie_heavy_" + std::to_string(seed));
  for (NodeId n = 0; n < v; ++n) b.add_node(rng.uniform_int(1, 4));
  for (NodeId dst = 1; dst < v; ++dst)
    for (NodeId src = 0; src < dst; ++src)
      if (rng.bernoulli(edge_prob))
        b.add_edge(src, dst, rng.bernoulli(0.25) ? 0 : rng.uniform_int(1, 3) * 4);
  return b.finalize();
}

std::vector<Topology> replay_topos() {
  std::vector<Topology> topos;
  topos.push_back(Topology::ring(5));
  topos.push_back(Topology::mesh(2, 3));
  topos.push_back(Topology::hypercube(3));
  topos.push_back(Topology::random_connected(6, 0.3, 11));
  return topos;
}

/// Every processor and link timeline of a and b holds the same intervals,
/// owners included.
void expect_timelines_equal(const NetSchedule& a, const NetSchedule& b,
                            const std::string& label) {
  ASSERT_EQ(a.tasks().num_procs(), b.tasks().num_procs()) << label;
  for (int p = 0; p < a.tasks().num_procs(); ++p)
    ASSERT_EQ(a.tasks().timeline(p).intervals(),
              b.tasks().timeline(p).intervals())
        << label << " proc " << p;
  for (int l = 0; l < a.topology().num_links(); ++l)
    ASSERT_EQ(a.link_timeline(l).intervals(), b.link_timeline(l).intervals())
        << label << " link " << l;
  ASSERT_EQ(a.num_messages(), b.num_messages()) << label;
}

// BSA's trial step: copying the prefix before a moved task's b-level
// position out of the current schedule and replaying the suffix must equal
// building the new assignment from scratch. The two buffers are swapped
// on random "accepts", as BSA does, so stale capacity is reused.
TEST(ApnCommon, SuffixReplayMatchesFullBuild) {
  std::vector<TaskGraph> graphs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    graphs.push_back(tie_heavy_graph(30, 0.15, seed));
  {
    RgnosParams p;
    p.num_nodes = 60;
    p.ccr = 0.1;
    p.seed = 5;
    graphs.push_back(rgnos_graph(p));
    p.ccr = 10;
    graphs.push_back(rgnos_graph(p));
  }
  for (const Topology& topo : replay_topos()) {
    const RoutingTable routes(topo);
    const int nprocs = topo.num_procs();
    for (const TaskGraph& g : graphs) {
      GraphAttributeCache attrs(g);
      const ApnBuildOrder ord(attrs);
      for (const bool insertion : {true, false}) {
        Rng rng(g.num_nodes() * 31 + nprocs);
        std::vector<ProcId> assign(g.num_nodes());
        for (ProcId& p : assign)
          p = static_cast<ProcId>(rng.uniform_int(0, nprocs - 1));
        NetSchedule cur =
            apn_build_with_assignment(g, routes, assign, insertion);
        NetSchedule trial(g, routes);
        for (int step = 0; step < 12; ++step) {
          const NodeId n = static_cast<NodeId>(rng.uniform_int(0, g.num_nodes() - 1));
          const ProcId old = assign[n];
          assign[n] = static_cast<ProcId>(rng.uniform_int(0, nprocs - 1));
          trial.assign_prefix(cur, ord.pos, ord.pos[n]);
          apn_replay(trial, ord, assign, ord.pos[n], insertion);
          const NetSchedule want =
              apn_build_with_assignment(g, routes, assign, insertion);
          const std::string label = g.name() + " on " + topo.name() +
                                    " step " + std::to_string(step) +
                                    " insertion " + std::to_string(insertion);
          expect_net_equal(trial, want, label);
          expect_timelines_equal(trial, want, label);
          ASSERT_TRUE(validate_net_schedule(trial).ok) << label;
          if (rng.bernoulli(0.5))
            std::swap(cur, trial);
          else
            assign[n] = old;
        }
      }
    }
  }
}

// apn_probe_ready_all sweeps only each source processor's Pareto front of
// (finish, cost); it must equal the maximum over a sweep of EVERY parent.
// Fan-in graphs put many parents on one processor, with tied finish times
// across processors, tied costs and zero-cost edges.
TEST(ApnCommon, ReadyAllMatchesEveryParentSweep) {
  std::vector<TaskGraph> graphs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    graphs.push_back(tie_heavy_graph(40, 0.3, seed));
  graphs.push_back(zero_cost_mix());
  graphs.push_back(fork_join(12, 3, 4));
  for (const Topology& topo : replay_topos()) {
    const RoutingTable routes(topo);
    const std::size_t nprocs = static_cast<std::size_t>(topo.num_procs());
    for (const TaskGraph& g : graphs) {
      Rng rng(g.num_edges() + nprocs);
      NetSchedule ns(g, routes);
      ApnSweepScratch scratch;
      std::vector<Time> arrival(nprocs);
      for (NodeId n : blevel_order(g)) {
        std::vector<Time> want(nprocs, 0);
        for (const Adj& par : g.parents(n)) {
          ns.probe_arrival_all(ns.tasks().proc(par.node), par.cost,
                               ns.tasks().finish(par.node), arrival);
          for (std::size_t p = 0; p < nprocs; ++p)
            want[p] = std::max(want[p], arrival[p]);
        }
        apn_probe_ready_all(ns, n, scratch);
        ASSERT_EQ(scratch.ready, want) << g.name() << " on " << topo.name()
                                       << " node " << n;
        // Mostly two processors, so parents pile up on each.
        const int p = rng.bernoulli(0.8)
                          ? static_cast<int>(rng.uniform_int(0, 1))
                          : static_cast<int>(rng.uniform_int(0, nprocs - 1));
        apn_commit_node(ns, n, p, /*insertion=*/rng.bernoulli(0.5));
      }
    }
  }
}

TEST(Bsa, StartsFromMaxDegreePivotAndImproves) {
  // BSA must never be worse than the serial injection it starts from.
  const TaskGraph g = psg_canonical9();
  const Topology topo = Topology::hypercube(3);
  const RoutingTable routes(topo);
  BsaScheduler bsa;
  const NetSchedule ns = bsa.run(g, routes);
  EXPECT_LE(ns.makespan(), g.total_weight());
  EXPECT_TRUE(validate_net_schedule(ns).ok);
}

// Pin the acceptance tie rule (bsa.cpp): a migration whose resulting
// makespan EQUALS the current one is accepted (<=, not <), so ties cause
// task churn by design. Construction: P (w=10) -> X (w=2, c=1) and
// P -> D (w=5, c=50); E (w=17) independent, on fully_connected(3).
// Serial injection stacks P, E, D, X on the pivot in b-level order. E
// bubbles away (ends at 17 on a neighbour), D is pinned by its 50-cost
// message, so X is processed at start 15 behind D while the makespan is
// pinned at 17 by E. X's best EST elsewhere is 11: migrating improves
// X's start but leaves the makespan at exactly 17 -- and the <= rule
// moves it anyway. Flipping <= to < would keep X on the pivot and fail
// this test (and the goldens).
TEST(Bsa, EqualMakespanMigrationIsAccepted) {
  TaskGraphBuilder b("bsa_tie");
  b.add_node(10);        // 0: P
  b.add_node(17);        // 1: E
  b.add_node(5);         // 2: D
  b.add_node(2);         // 3: X
  b.add_edge(0, 2, 50);  // P -> D: migrating D never pays
  b.add_edge(0, 3, 1);   // P -> X: cheap enough to churn
  const TaskGraph g = b.finalize();
  const RoutingTable routes{Topology::fully_connected(3)};
  const int pivot0 = routes.topology().max_degree_proc();

  const NetSchedule ns = BsaScheduler().run(g, routes);
  EXPECT_EQ(ns.makespan(), 17);
  // The tie churn happened: X left the pivot and starts at its probed 11.
  EXPECT_NE(ns.tasks().proc(3), pivot0);
  EXPECT_EQ(ns.tasks().start(3), 11);
  // ...for zero makespan gain: keeping X on the pivot scores the same.
  std::vector<ProcId> stay(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) stay[n] = ns.tasks().proc(n);
  stay[3] = static_cast<ProcId>(pivot0);
  EXPECT_EQ(apn_build_with_assignment(g, routes, stay, /*insertion=*/true)
                .makespan(),
            ns.makespan());
}

TEST(Bsa, SingleProcessorTopologyDegeneratesToSerial) {
  const TaskGraph g = psg_canonical9();
  const Topology topo = Topology::fully_connected(1);
  const RoutingTable routes(topo);
  BsaScheduler bsa;
  const NetSchedule ns = bsa.run(g, routes);
  EXPECT_EQ(ns.makespan(), g.total_weight());
}

TEST(Bu, AssignsChildrenBeforeParents) {
  // On a chain, BU's bottom-up pull keeps everything on one processor.
  const TaskGraph g = chain_graph(6, 10, 25);
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  BuScheduler bu;
  const NetSchedule ns = bu.run(g, routes);
  EXPECT_EQ(ns.tasks().procs_used(), 1);
  EXPECT_EQ(ns.makespan(), 60);
}

TEST(Mh, ChainStaysLocal) {
  const TaskGraph g = chain_graph(6, 10, 25);
  const Topology topo = Topology::mesh(2, 2);
  const RoutingTable routes(topo);
  MhScheduler mh;
  const NetSchedule ns = mh.run(g, routes);
  EXPECT_EQ(ns.tasks().procs_used(), 1);
  EXPECT_EQ(ns.makespan(), 60);
}

TEST(DlsApn, ChainStaysLocal) {
  const TaskGraph g = chain_graph(6, 10, 25);
  const Topology topo = Topology::hypercube(2);
  const RoutingTable routes(topo);
  DlsApnScheduler dls;
  const NetSchedule ns = dls.run(g, routes);
  EXPECT_EQ(ns.tasks().procs_used(), 1);
  EXPECT_EQ(ns.makespan(), 60);
}

TEST(Apn, MoreLinksNeverHurtMuch) {
  // Paper §6.4.1: "all algorithms perform better on the networks with more
  // communication links". Compare ring vs clique on the same graph; allow
  // slack (heuristics are not monotone), but the clique should win for the
  // contention-heavy fork-join.
  const TaskGraph g = fork_join(8, 10, 40);
  const RoutingTable ring_routes{Topology::ring(4)};
  const RoutingTable clique_routes{Topology::fully_connected(4)};
  for (const auto& algo : make_apn_schedulers()) {
    const Time ring_len = algo->run(g, ring_routes).makespan();
    const Time clique_len = algo->run(g, clique_routes).makespan();
    EXPECT_LE(clique_len, ring_len) << algo->name();
  }
}

}  // namespace
}  // namespace tgs
