// Cross-module integration tests: miniature versions of the paper's
// experiments, checking the qualitative claims end-to-end.
#include <gtest/gtest.h>

#include "tgs/gen/psg.h"
#include "tgs/gen/rgbos.h"
#include "tgs/gen/rgpos.h"
#include "tgs/gen/traced.h"
#include "tgs/harness/registry.h"
#include "tgs/harness/runner.h"
#include "tgs/map/cluster_map.h"
#include "tgs/net/net_validate.h"
#include "tgs/optimal/bb_scheduler.h"
#include "tgs/sched/metrics.h"
#include "tgs/sched/validate.h"
#include "tgs/sched/workspace.h"
#include "tgs/unc/cluster_schedule.h"

namespace tgs {
namespace {

TEST(Integration, BnpNeverBeatsProvenOptimalAtSameProcCount) {
  // Mini Table 3: BNP degradation from optimal is >= 0 on RGBOS graphs.
  for (std::uint64_t seed : {1ull, 2ull}) {
    const TaskGraph g = rgbos_graph(1.0, 14, seed);
    BBOptions bb;
    bb.num_procs = 2;
    bb.num_threads = 4;
    bb.time_limit_seconds = 30.0;
    const BBResult opt = branch_and_bound(g, bb);
    ASSERT_TRUE(opt.proven_optimal);
    SchedOptions sopt;
    sopt.num_procs = 2;
    for (const auto& algo : make_bnp_schedulers()) {
      const Time len = algo->run(g, sopt).makespan();
      EXPECT_GE(len, opt.length) << algo->name() << " beat a proven optimum";
    }
  }
}

TEST(Integration, RgposDegradationNonNegativeForBoundedAlgos) {
  // Mini Table 5: on planted-optimal graphs, BNP algorithms bounded to the
  // planted processor count cannot beat L_opt.
  RgposParams p;
  p.num_nodes = 100;
  p.num_procs = 4;
  p.ccr = 1.0;
  p.seed = 9;
  const RgposGraph r = rgpos_graph(p);
  SchedOptions opt;
  opt.num_procs = r.num_procs;
  for (const auto& algo : make_bnp_schedulers()) {
    const Time len = algo->run(r.graph, opt).makespan();
    EXPECT_GE(len, r.optimal_length) << algo->name();
  }
}

TEST(Integration, PsgTable1Shape) {
  // Mini Table 1: all 11 UNC+BNP algorithms on every PSG graph; lengths
  // vary across algorithms (the paper's headline observation) and DCP is
  // never the worst UNC algorithm.
  const auto suite = peer_set_graphs();
  for (const auto& entry : suite) {
    Time dcp_len = 0, worst_unc = 0;
    Time min_len = kTimeInf, max_len = 0;
    for (const auto& algo : make_unc_and_bnp_schedulers()) {
      const RunResult res = run_scheduler(*algo, entry.graph, {});
      ASSERT_TRUE(res.valid) << algo->name() << ": " << res.error;
      min_len = std::min(min_len, res.length);
      max_len = std::max(max_len, res.length);
      if (algo->name() == "DCP") dcp_len = res.length;
      if (algo->algo_class() == AlgoClass::kUNC)
        worst_unc = std::max(worst_unc, res.length);
    }
    EXPECT_LE(dcp_len, worst_unc) << entry.graph.name();
  }
}

TEST(Integration, CholeskyAllClassesProduceValidSchedules) {
  // Mini Figure 4: Cholesky N=8 across all three classes.
  const TaskGraph g = cholesky_graph(8, 1.0);
  for (const auto& algo : make_unc_and_bnp_schedulers()) {
    const RunResult r = run_scheduler(*algo, g, {});
    EXPECT_TRUE(r.valid) << algo->name() << ": " << r.error;
  }
  const Topology topo = Topology::hypercube(3);
  const RoutingTable routes(topo);
  for (const auto& algo : make_apn_schedulers()) {
    const RunResult r = run_apn_scheduler(*algo, g, routes);
    EXPECT_TRUE(r.valid) << algo->name() << ": " << r.error;
  }
}

TEST(Integration, UncPlusClusterSchedulingEndToEnd) {
  // Paper §7 future work: UNC + CS pipeline on a traced graph.
  const TaskGraph g = cholesky_graph(10, 1.0);
  for (const char* unc_name : {"DSC", "DCP"}) {
    const Schedule unc = make_scheduler(unc_name)->run(g, {});
    const auto clusters = clusters_of(unc);
    SchedWorkspace ws;
    ws.begin_graph(g);
    for (int p : {2, 4}) {
      const Schedule sarkar = map_clusters_sarkar(g, clusters, p, ws);
      EXPECT_TRUE(validate_schedule(sarkar, p).ok) << unc_name;
      const Schedule rcp =
          schedule_with_assignment(ws.attrs(), fit_clusters(g, clusters, p));
      EXPECT_TRUE(validate_schedule(rcp, p).ok) << unc_name;
    }
  }
}

TEST(Integration, NslConsistentAcrossRunner) {
  const TaskGraph g = cholesky_graph(6, 0.5);
  const auto mcp = make_scheduler("MCP");
  const RunResult r = run_scheduler(*mcp, g, {});
  EXPECT_NEAR(r.nsl, normalized_schedule_length(g, r.length), 1e-12);
}

TEST(Integration, HighCcrHurtsEveryAlgorithm) {
  // NSL should grow with CCR for every algorithm class (paper §6.3: the
  // percentage degradations "in general increase with CCRs").
  const TaskGraph low = cholesky_graph(10, 0.1);
  const TaskGraph high = cholesky_graph(10, 10.0);
  for (const auto& algo : make_unc_and_bnp_schedulers()) {
    const double nsl_low =
        normalized_schedule_length(low, algo->run(low, {}).makespan());
    const double nsl_high =
        normalized_schedule_length(high, algo->run(high, {}).makespan());
    EXPECT_LE(nsl_low, nsl_high * 1.05) << algo->name();
  }
}

}  // namespace
}  // namespace tgs
