// Unit tests for list/priorities.h and list/ready_list.h.
#include <gtest/gtest.h>

#include "tgs/gen/psg.h"
#include "tgs/gen/structured.h"
#include "tgs/list/priorities.h"
#include "tgs/list/ready_list.h"

namespace tgs {
namespace {

TEST(Priorities, ArgmaxPriority) {
  const std::vector<Time> prio{3, 7, 7, 2};
  EXPECT_EQ(argmax_priority({0, 1, 2, 3}, prio), 1u);  // tie 1 vs 2 -> 1
  EXPECT_EQ(argmax_priority({0, 3}, prio), 0u);
  EXPECT_EQ(argmax_priority({}, prio), kNoNode);
}

TEST(ReadyList, InitialEntriesOnly) {
  const TaskGraph g = fork_join(3, 10, 5);
  ReadyList rl(g);
  ASSERT_EQ(rl.ready().size(), 1u);
  EXPECT_EQ(rl.ready()[0], 0u);  // the fork
  EXPECT_EQ(rl.remaining(), g.num_nodes());
}

TEST(ReadyList, AdmitsChildrenWhenAllParentsScheduled) {
  const TaskGraph g = fork_join(2, 10, 5);  // 0 fork, 1-2 workers, 3 join
  ReadyList rl(g);
  rl.mark_scheduled(0);
  EXPECT_EQ(rl.ready(), (std::vector<NodeId>{1, 2}));
  rl.mark_scheduled(1);
  EXPECT_EQ(rl.ready(), (std::vector<NodeId>{2}));  // join still blocked
  rl.mark_scheduled(2);
  EXPECT_EQ(rl.ready(), (std::vector<NodeId>{3}));
  rl.mark_scheduled(3);
  EXPECT_TRUE(rl.empty());
  EXPECT_EQ(rl.remaining(), 0u);
}

TEST(ReadyList, RejectsSchedulingNonReadyNode) {
  const TaskGraph g = chain_graph(3);
  ReadyList rl(g);
  EXPECT_THROW(rl.mark_scheduled(2), std::logic_error);
}

TEST(ReadyList, KeepsSortedOrder) {
  const TaskGraph g = psg_canonical9();
  ReadyList rl(g);
  while (!rl.empty()) {
    const auto& r = rl.ready();
    for (std::size_t i = 1; i < r.size(); ++i) EXPECT_LT(r[i - 1], r[i]);
    rl.mark_scheduled(r.front());
  }
}

TEST(ReadyList, DrainsWholeGraphInTopologicalOrder) {
  const TaskGraph g = psg_pipelines16();
  ReadyList rl(g);
  std::vector<bool> done(g.num_nodes(), false);
  std::size_t count = 0;
  while (!rl.empty()) {
    const NodeId n = rl.ready().front();
    for (const Adj& p : g.parents(n)) EXPECT_TRUE(done[p.node]);
    done[n] = true;
    ++count;
    rl.mark_scheduled(n);
  }
  EXPECT_EQ(count, g.num_nodes());
}

}  // namespace
}  // namespace tgs
