// Tests for map/cluster_map.h (UNC + cluster-scheduling extension).
#include <gtest/gtest.h>

#include "reference_named.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgnos.h"
#include "tgs/harness/registry.h"
#include "tgs/map/cluster_map.h"
#include "tgs/sched/schedule_io.h"
#include "tgs/sched/validate.h"
#include "tgs/sched/workspace.h"
#include "tgs/unc/cluster_schedule.h"
#include "tgs/unc/dsc.h"

namespace tgs {
namespace {

// The UNC+CS extension's RCP column: the RCP fold, list-scheduled.
Schedule rcp_mapping(SchedWorkspace& ws, const std::vector<ProcId>& clusters,
                     int num_procs) {
  return schedule_with_assignment(
      ws.attrs(), fit_clusters(*ws.graph(), clusters, num_procs));
}

TEST(ClusterMap, ClustersOfExtractsAssignment) {
  const TaskGraph g = psg_canonical9();
  DscScheduler dsc;
  const Schedule s = dsc.run(g, {});
  const auto clusters = clusters_of(s);
  ASSERT_EQ(clusters.size(), g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) EXPECT_EQ(clusters[n], s.proc(n));
}

class ClusterMapFixture : public ::testing::Test {
 protected:
  ClusterMapFixture() {
    RgnosParams p;
    p.num_nodes = 80;
    p.ccr = 1.0;
    p.parallelism = 4;
    p.seed = 6;
    graph = rgnos_graph(p);
    DscScheduler dsc;
    unc = std::make_unique<Schedule>(dsc.run(graph, {}));
    ws.begin_graph(graph);
  }
  TaskGraph graph{TaskGraphBuilder("x").finalize()};
  std::unique_ptr<Schedule> unc;
  SchedWorkspace ws;
};

TEST_F(ClusterMapFixture, SarkarRespectsProcessorBound) {
  for (int p : {2, 4, 8}) {
    const Schedule s = map_clusters_sarkar(graph, clusters_of(*unc), p, ws);
    const auto v = validate_schedule(s, p);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_LE(s.procs_used(), p);
  }
}

TEST_F(ClusterMapFixture, RcpRespectsProcessorBound) {
  for (int p : {2, 4, 8}) {
    const Schedule s = rcp_mapping(ws, clusters_of(*unc), p);
    const auto v = validate_schedule(s, p);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_LE(s.procs_used(), p);
  }
}

TEST_F(ClusterMapFixture, ClustersStayTogether) {
  const auto clusters = clusters_of(*unc);
  const Schedule s = map_clusters_sarkar(graph, clusters, 4, ws);
  for (NodeId a = 0; a < graph.num_nodes(); ++a)
    for (NodeId b = a + 1; b < graph.num_nodes(); ++b)
      if (clusters[a] == clusters[b]) EXPECT_EQ(s.proc(a), s.proc(b));
}

TEST_F(ClusterMapFixture, SarkarConsidersOrderRcpDoesNot) {
  // Paper §7: Sarkar's merging "considering the execution order" should on
  // average do no worse than RCP's order-blind load balancing.
  const auto clusters = clusters_of(*unc);
  const Time sarkar = map_clusters_sarkar(graph, clusters, 4, ws).makespan();
  const Time rcp = rcp_mapping(ws, clusters, 4).makespan();
  EXPECT_LE(sarkar, rcp + rcp / 4);  // allow RCP a 25% band, not a theorem
}

TEST(ClusterMap, SingleProcessorDegeneratesToSerial) {
  const TaskGraph g = psg_canonical9();
  DscScheduler dsc;
  const Schedule unc = dsc.run(g, {});
  SchedWorkspace ws;
  ws.begin_graph(g);
  const Schedule s = rcp_mapping(ws, clusters_of(unc), 1);
  EXPECT_TRUE(validate_schedule(s, 1).ok);
  EXPECT_EQ(s.makespan(), g.total_weight());
}

TEST(ClusterMap, ManyProcsKeepsUncShapeValid) {
  // With as many processors as clusters, mapping must not break validity.
  const TaskGraph g = psg_irregular13();
  DscScheduler dsc;
  const Schedule unc = dsc.run(g, {});
  const int k = unc.procs_used();
  SchedWorkspace ws;
  ws.begin_graph(g);
  const Schedule s = map_clusters_sarkar(g, clusters_of(unc), k, ws);
  EXPECT_TRUE(validate_schedule(s, k).ok);
}

TEST(ClusterMap, SarkarMatchesFrozenOriginal) {
  // ClusterEvaluator's early rejection (bound = best - 1) must leave every
  // placement decision of the full-walk original unchanged.
  for (NodeId v : {50u, 120u, 300u}) {
    for (double ccr : {0.1, 1.0, 10.0}) {
      RgnosParams p;
      p.num_nodes = v;
      p.ccr = ccr;
      p.parallelism = 3;
      p.seed = 40 + v;
      const TaskGraph g = rgnos_graph(p);
      SchedWorkspace ws;
      ws.begin_graph(g);
      for (const char* algo : {"DSC", "DCP", "EZ"}) {
        const auto clusters = clusters_of(make_scheduler(algo)->run(g, {}));
        for (int k : {2, 4, 8}) {
          EXPECT_EQ(schedule_to_string(map_clusters_sarkar(g, clusters, k, ws)),
                    schedule_to_string(
                        reference::original_sarkar(g, clusters, k)))
              << algo << " v=" << v << " ccr=" << ccr << " p=" << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tgs
