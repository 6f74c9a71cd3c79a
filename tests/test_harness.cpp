// Tests for the registry, timed runner and pivot-table recorder.
#include <gtest/gtest.h>

#include "tgs/gen/psg.h"
#include "tgs/harness/experiment.h"
#include "tgs/harness/registry.h"
#include "tgs/harness/runner.h"
#include "tgs/net/routing.h"

namespace tgs {
namespace {

TEST(Registry, FifteenAlgorithmsInPaperOrder) {
  EXPECT_EQ(bnp_names(),
            (std::vector<std::string>{"HLFET", "ISH", "MCP", "ETF", "DLS",
                                      "LAST"}));
  EXPECT_EQ(unc_names(),
            (std::vector<std::string>{"EZ", "LC", "DSC", "MD", "DCP"}));
  EXPECT_EQ(apn_names(), (std::vector<std::string>{"MH", "DLS", "BU", "BSA"}));
  EXPECT_EQ(bnp_names().size() + unc_names().size() + apn_names().size(), 15u);
}

TEST(Registry, ClassesAreConsistent) {
  for (const auto& s : make_bnp_schedulers())
    EXPECT_EQ(s->algo_class(), AlgoClass::kBNP);
  for (const auto& s : make_unc_schedulers())
    EXPECT_EQ(s->algo_class(), AlgoClass::kUNC);
}

TEST(Registry, LookupByName) {
  EXPECT_EQ(make_scheduler("MCP")->name(), "MCP");
  EXPECT_EQ(make_scheduler("DCP")->name(), "DCP");
  EXPECT_EQ(make_apn_scheduler("BSA")->name(), "BSA");
  EXPECT_EQ(make_apn_scheduler("DLS-APN")->name(), "DLS");
  EXPECT_THROW(make_scheduler("NOPE"), std::invalid_argument);
  EXPECT_THROW(make_apn_scheduler("NOPE"), std::invalid_argument);
}

TEST(Registry, CombinedListOrder) {
  const auto all = make_unc_and_bnp_schedulers();
  ASSERT_EQ(all.size(), 11u);
  EXPECT_EQ(all.front()->name(), "EZ");
  EXPECT_EQ(all.back()->name(), "LAST");
}

TEST(Runner, ValidatedTimedRun) {
  const TaskGraph g = psg_canonical9();
  const auto mcp = make_scheduler("MCP");
  const RunResult r = run_scheduler(*mcp, g, {});
  EXPECT_TRUE(r.valid) << r.error;
  EXPECT_EQ(r.algo, "MCP");
  EXPECT_GT(r.length, 0);
  EXPECT_GT(r.procs_used, 0);
  EXPECT_GE(r.seconds, 0.0);
  EXPECT_GE(r.nsl, 1.0);
}

TEST(Runner, ApnRun) {
  const TaskGraph g = psg_canonical9();
  const Topology topo = Topology::hypercube(3);
  const RoutingTable routes(topo);
  const auto bsa = make_apn_scheduler("BSA");
  const RunResult r = run_apn_scheduler(*bsa, g, routes);
  EXPECT_TRUE(r.valid) << r.error;
  EXPECT_GT(r.length, 0);
}

TEST(PivotStats, RendersMeansByRowAndColumn) {
  PivotStats stats("nodes", {"A", "B"});
  stats.add(50, "A", 1.0);
  stats.add(50, "A", 3.0);
  stats.add(50, "B", 5.0);
  stats.add(100, "A", 4.0);
  const Table t = stats.render(1);
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("2.0"), std::string::npos);  // mean of 1, 3
  EXPECT_NE(ascii.find("5.0"), std::string::npos);
  EXPECT_NE(ascii.find("-"), std::string::npos);  // missing (100, B)
}

TEST(PivotStats, CellAccess) {
  PivotStats stats("x", {"A"});
  stats.add(1, "A", 2.0);
  ASSERT_NE(stats.cell(1, "A"), nullptr);
  EXPECT_EQ(stats.cell(1, "A")->count(), 1u);
  EXPECT_EQ(stats.cell(2, "A"), nullptr);
  EXPECT_EQ(stats.cell(1, "B"), nullptr);
}

}  // namespace
}  // namespace tgs
