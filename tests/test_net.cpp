// Tests for the network substrate: topologies, routing (CSR paths and the
// per-source routing-tree sweep), message scheduling, one-to-all probes,
// APN validation.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "tgs/gen/structured.h"
#include "tgs/net/net_schedule.h"
#include "tgs/net/net_validate.h"
#include "tgs/net/routing.h"
#include "tgs/net/topology.h"
#include "tgs/util/rng.h"

namespace tgs {
namespace {

std::vector<Topology> probe_topo_zoo() {
  std::vector<Topology> topos;
  topos.push_back(Topology::ring(7));
  topos.push_back(Topology::mesh(3, 3));
  topos.push_back(Topology::hypercube(3));
  topos.push_back(Topology::star(6));
  topos.push_back(Topology::fully_connected(5));
  topos.push_back(Topology::random_connected(9, 0.25, 11));
  topos.push_back(Topology::random_connected(12, 0.1, 23));
  return topos;
}

TEST(Topology, CliqueCounts) {
  const Topology t = Topology::fully_connected(6);
  EXPECT_EQ(t.num_procs(), 6);
  EXPECT_EQ(t.num_links(), 15);
  EXPECT_EQ(t.degree(0), 5);
}

TEST(Topology, RingCounts) {
  const Topology t = Topology::ring(8);
  EXPECT_EQ(t.num_links(), 8);
  for (int p = 0; p < 8; ++p) EXPECT_EQ(t.degree(p), 2);
  EXPECT_GE(t.link_between(0, 7), 0);
  EXPECT_EQ(t.link_between(0, 3), -1);
}

TEST(Topology, RingOfTwo) {
  const Topology t = Topology::ring(2);
  EXPECT_EQ(t.num_links(), 1);
}

TEST(Topology, MeshCounts) {
  const Topology t = Topology::mesh(2, 4);
  EXPECT_EQ(t.num_procs(), 8);
  EXPECT_EQ(t.num_links(), 2 * 3 + 4);  // rows*(cols-1) + cols*(rows-1)
  EXPECT_EQ(t.degree(0), 2);            // corner
}

TEST(Topology, HypercubeCounts) {
  const Topology t = Topology::hypercube(3);
  EXPECT_EQ(t.num_procs(), 8);
  EXPECT_EQ(t.num_links(), 12);  // d * 2^d / 2
  for (int p = 0; p < 8; ++p) EXPECT_EQ(t.degree(p), 3);
}

TEST(Topology, StarHub) {
  const Topology t = Topology::star(5);
  EXPECT_EQ(t.num_links(), 4);
  EXPECT_EQ(t.max_degree_proc(), 0);
}

TEST(Topology, RandomConnectedIsConnected) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Topology t = Topology::random_connected(9, 0.2, seed);
    // RoutingTable construction throws if disconnected.
    EXPECT_NO_THROW(RoutingTable{t});
  }
}

TEST(Topology, DeterministicRandom) {
  const Topology a = Topology::random_connected(7, 0.3, 5);
  const Topology b = Topology::random_connected(7, 0.3, 5);
  EXPECT_EQ(a.links(), b.links());
}

TEST(Routing, CliqueSingleHop) {
  const Topology t = Topology::fully_connected(4);
  const RoutingTable r(t);
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b)
      if (a != b) EXPECT_EQ(r.distance(a, b), 1);
}

TEST(Routing, RingShortestPath) {
  const Topology t = Topology::ring(6);
  const RoutingTable r(t);
  EXPECT_EQ(r.distance(0, 3), 3);
  EXPECT_EQ(r.distance(0, 5), 1);
  EXPECT_EQ(r.distance(2, 4), 2);
}

TEST(Routing, HypercubeHammingDistance) {
  const Topology t = Topology::hypercube(4);
  const RoutingTable r(t);
  EXPECT_EQ(r.distance(0b0000, 0b1111), 4);
  EXPECT_EQ(r.distance(0b0101, 0b0100), 1);
}

TEST(Routing, PathsUseAdjacentLinks) {
  const Topology t = Topology::mesh(3, 3);
  const RoutingTable r(t);
  for (int a = 0; a < 9; ++a)
    for (int b = 0; b < 9; ++b) {
      if (a == b) continue;
      // Verify the link sequence is a connected path from a to b.
      int cur = a;
      for (int link : r.path_links(a, b)) {
        const auto [x, y] = t.links()[link];
        ASSERT_TRUE(cur == x || cur == y);
        cur = cur == x ? y : x;
      }
      EXPECT_EQ(cur, b);
    }
}

TEST(Routing, SweepIsTheRoutingTreeInParentFirstOrder) {
  for (const Topology& t : probe_topo_zoo()) {
    const RoutingTable r(t);
    const int p = t.num_procs();
    for (int src = 0; src < p; ++src) {
      const auto steps = r.sweep(src);
      ASSERT_EQ(steps.size(), static_cast<std::size_t>(p - 1));
      std::vector<bool> reached(p, false);
      reached[src] = true;
      for (const RoutingTable::SweepStep& st : steps) {
        // Parents precede children, every step crosses a real link, and
        // the step's route is the parent's route plus one hop.
        EXPECT_TRUE(reached[st.parent]);
        EXPECT_FALSE(reached[st.proc]);
        reached[st.proc] = true;
        EXPECT_EQ(t.link_between(st.parent, st.proc), st.link);
        const auto parent_path = r.path_links(src, st.parent);
        const auto path = r.path_links(src, st.proc);
        ASSERT_EQ(path.size(), parent_path.size() + 1);
        for (std::size_t h = 0; h < parent_path.size(); ++h)
          EXPECT_EQ(path[h], parent_path[h]);
        EXPECT_EQ(path.back(), st.link);
      }
      for (int dst = 0; dst < p; ++dst) EXPECT_TRUE(reached[dst]);
    }
  }
}

TEST(NetSchedule, ProbeArrivalAllMatchesPerDestination) {
  // One-to-all routing-tree sweeps against per-destination probes, under
  // random link contention: commit messages from a synthetic fan-out
  // graph, then compare every (src, size, depart) sweep.
  const TaskGraph g = fork_join(40, 10, 25);
  for (const Topology& topo : probe_topo_zoo()) {
    const RoutingTable routes(topo);
    const int p = topo.num_procs();
    Rng rng(2026);
    NetSchedule ns(g, routes);
    ns.tasks().place(0, 0, 0);  // fork node feeds all messages
    int committed = 0;
    for (NodeId w = 1; w <= 40; ++w) {
      const int dst = static_cast<int>(rng.uniform_int(0, p - 1));
      if (dst != 0) ++committed;
      ns.commit_parent_message(w, 0, dst);  // co-located: no message
    }
    ASSERT_GT(committed, 0);
    std::vector<Time> all(static_cast<std::size_t>(p));
    for (int src = 0; src < p; ++src) {
      for (const Cost size : {0, 3, 25, 400}) {
        const Time depart = rng.uniform_int(0, 500);
        ns.probe_arrival_all(src, size, depart, all);
        for (int dst = 0; dst < p; ++dst)
          EXPECT_EQ(all[dst], ns.probe_arrival(src, dst, size, depart))
              << topo.name() << " src=" << src << " dst=" << dst
              << " size=" << size << " depart=" << depart;
      }
    }
  }
}

TEST(NetSchedule, FindMessageIsKeyed) {
  const TaskGraph g = fork_join(2, 10, 8);
  const RoutingTable routes{Topology::ring(4)};
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  ns.commit_parent_message(1, 0, 1);
  ASSERT_NE(ns.find_message(0, 1), nullptr);
  EXPECT_EQ(ns.find_message(0, 1)->src, 0u);
  EXPECT_EQ(ns.find_message(0, 1)->dst, 1u);
  EXPECT_EQ(ns.find_message(0, 2), nullptr);
  EXPECT_EQ(ns.find_message(1, 0), nullptr);  // direction matters
}

TEST(NetSchedule, MessageHopsAndContention) {
  // Two messages over the same ring link must serialize.
  const TaskGraph g = fork_join(2, 10, 8);  // fork(0) w1(1) w2(2) join(3)
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);  // fork on P0, finishes at 10
  // Both workers on P1: two messages 0->1 over the same link.
  const Time a1 = ns.commit_parent_message(1, 0, 1);
  const Time a2 = ns.commit_parent_message(2, 0, 1);
  EXPECT_EQ(a1, 18);  // depart 10 + 8
  EXPECT_EQ(a2, 26);  // serialized behind the first
  ns.tasks().place(1, 1, a1);
  ns.tasks().place(2, 1, 28);
  // Join back on P0.
  const Time a3 = ns.commit_parent_message(3, 0, 0);  // 1 -> 3
  const Time a4 = ns.commit_parent_message(3, 1, 0);  // 2 -> 3
  ns.tasks().place(3, 0, std::max(a3, a4));
  const auto v = validate_net_schedule(ns);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(NetSchedule, MultiHopStoreAndForward) {
  const TaskGraph g = chain_graph(2, 10, 6);
  const Topology topo = Topology::ring(6);  // 0 -> 3 needs 3 hops
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  const Time arrival = ns.commit_parent_message(1, 0, 3);
  EXPECT_EQ(arrival, 10 + 3 * 6);
  ns.tasks().place(1, 3, arrival);
  EXPECT_TRUE(validate_net_schedule(ns).ok);
  ASSERT_EQ(ns.messages().size(), 1u);
  EXPECT_EQ(ns.messages()[0].hops.size(), 3u);
}

TEST(NetSchedule, ProbeMatchesCommitWhenUncontended) {
  const TaskGraph g = chain_graph(2, 10, 6);
  const Topology topo = Topology::mesh(2, 2);
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  const Time probe = ns.probe_arrival(0, 3, 6, 10);
  const Time commit = ns.commit_parent_message(1, 0, 3);
  EXPECT_EQ(probe, commit);
}

TEST(NetSchedule, CopyReadsItsOwnMessages) {
  // messages() hands out views of the schedule's hop array. A copy made
  // after the list was built must answer from its own array: the
  // original is destroyed before the copy is read (ASan flags a dangling
  // view). Moves keep the list valid.
  const TaskGraph g = fork_join(6, 10, 8);
  const RoutingTable routes{Topology::ring(4)};
  auto original = std::make_unique<NetSchedule>(g, routes);
  original->tasks().place(0, 0, 0);
  for (NodeId w = 1; w <= 6; ++w)
    original->commit_parent_message(w, 0, static_cast<int>(w % 4));
  std::vector<std::pair<Time, std::size_t>> want;
  for (const Message& m : original->messages())
    want.emplace_back(m.arrival, m.hops.size());
  ASSERT_EQ(want.size(), 6u);
  auto copy = std::make_unique<NetSchedule>(*original);
  original.reset();
  ASSERT_EQ(copy->messages().size(), 6u);
  NetSchedule moved = std::move(*copy);
  copy.reset();
  std::vector<std::pair<Time, std::size_t>> got;
  for (const Message& m : moved.messages()) {
    got.emplace_back(m.arrival, m.hops.size());
    if (!m.hops.empty()) {
      ASSERT_EQ(m.hops.back().end, m.arrival);
    }
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(moved.num_messages(), 6u);
}

TEST(NetValidate, CatchesMissingMessage) {
  const TaskGraph g = chain_graph(2, 10, 6);
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  ns.tasks().place(1, 1, 100);  // no message committed
  const auto v = validate_net_schedule(ns);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("missing message"), std::string::npos);
}

TEST(NetValidate, CatchesEarlyStart) {
  const TaskGraph g = chain_graph(2, 10, 6);
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  const Time arrival = ns.commit_parent_message(1, 0, 1);
  ns.tasks().place(1, 1, arrival - 1);  // starts before the message lands
  EXPECT_FALSE(validate_net_schedule(ns).ok);
}

TEST(NetValidate, SameProcNeedsNoMessage) {
  const TaskGraph g = chain_graph(2, 10, 6);
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 2, 0);
  ns.tasks().place(1, 2, 10);
  EXPECT_TRUE(validate_net_schedule(ns).ok);
}

}  // namespace
}  // namespace tgs
