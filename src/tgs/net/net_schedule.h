// NetSchedule: a task schedule plus the message schedule on network links.
//
// The APN machine model (paper §4): tasks execute on processors of an
// arbitrary topology; every cross-processor edge (u, v) becomes a message
// that must traverse the fixed route from proc(u) to proc(v),
// store-and-forward, occupying each link for c(u, v) time units, one
// message per link at a time. The message may wait at intermediate nodes
// (hops need not be back-to-back) and departs no earlier than FT(u); the
// child may start only after the last hop completes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "tgs/net/routing.h"
#include "tgs/sched/schedule.h"
#include "tgs/sched/timeline.h"

namespace tgs {

struct MsgHop {
  int link;
  Time start;
  Time end;
};

/// A committed message as read back from a NetSchedule. `hops` views the
/// schedule's shared hop array: valid until the schedule next changes.
struct Message {
  NodeId src;
  NodeId dst;
  Cost size;
  Time depart_after;  // FT(src) at routing time
  Time arrival;       // last hop end (== depart_after when it has no hops)
  std::span<const MsgHop> hops;
};

/// NetSchedule::find_message's answer: one committed message, or none.
/// It reads like a pointer (`m == nullptr`, `m->hops`).
class FoundMessage {
 public:
  FoundMessage() = default;
  explicit FoundMessage(const Message& m) : msg_(m) {}

  const Message* operator->() const { return &*msg_; }
  const Message& operator*() const { return *msg_; }
  friend bool operator==(const FoundMessage& f, std::nullptr_t) {
    return !f.msg_;
  }

 private:
  std::optional<Message> msg_;
};

class NetSchedule {
 public:
  NetSchedule(const TaskGraph& g, const RoutingTable& routes);

  const TaskGraph& graph() const { return tasks_.graph(); }
  const Topology& topology() const { return routes_->topology(); }
  const RoutingTable& routes() const { return *routes_; }

  Schedule& tasks() { return tasks_; }
  const Schedule& tasks() const { return tasks_; }

  /// Route the message of edge parents(v)[i] -> v (v's processor given)
  /// and commit the link reservations. Returns the arrival time at
  /// dst_proc. Co-located endpoints produce no message and arrive at
  /// depart_after. Throws std::logic_error when the parent is not placed
  /// or the edge already carries a message.
  Time commit_parent_message(NodeId v, std::size_t i, int dst_proc);

  /// Arrival time the message WOULD have if routed now, without reserving
  /// links. Concurrent probes do not see each other (documented
  /// approximation; commits are exact).
  Time probe_arrival(int src_proc, int dst_proc, Cost size,
                     Time depart_after) const;

  /// One-to-all probe: fills out[p] (out.size() == num_procs) with
  /// probe_arrival(src_proc, p, size, depart_after) for every processor,
  /// walking the shortest-path routing tree of src_proc so each tree link
  /// is probed exactly once -- O(links) instead of O(procs x diameter)
  /// for a per-destination sweep. Bit-identical to per-destination probes
  /// (the path to p is a prefix-closed tree path; probes reserve nothing).
  void probe_arrival_all(int src_proc, Cost size, Time depart_after,
                         std::span<Time> out) const;

  /// Number of committed messages, O(1).
  std::size_t num_messages() const { return num_messages_; }

  /// Committed messages sorted by (src, dst); rebuilt lazily after a
  /// change (a walk of the edges, no sort).
  const std::vector<Message>& messages() const;

  /// The committed message of edge (u, v), if any: the edge's slot, found
  /// by its id (a search of parents(v) for u).
  FoundMessage find_message(NodeId u, NodeId v) const;

  /// Become a copy of `src` (same graph and routes) holding only the tasks
  /// n with rank[n] < k and the messages into them: filtered bulk copies
  /// of every processor and link timeline. When src was built by
  /// committing nodes (apn_commit_node) in ascending rank, the result
  /// equals src's state after its first k commits -- later commits only
  /// add reservations. `src` must not be this schedule.
  void assign_prefix(const NetSchedule& src,
                     std::span<const std::uint32_t> rank, std::uint32_t k);

  const Timeline& link_timeline(int link) const { return links_[link]; }

  /// Makespan of the task schedule (message tails never extend past the
  /// last dependent task's start in a valid schedule).
  Time makespan() const { return tasks_.makespan(); }

 private:
  // Link interval owner of the message of edge (u, v); v is its low word.
  static std::int64_t msg_key(NodeId u, NodeId v) {
    return (static_cast<std::int64_t>(u) << 32) | v;
  }

  // The message state of one edge, indexed by TaskGraph::parent_edge.
  struct Slot {
    Time depart_after = 0;
    Time arrival = 0;
    std::uint32_t hop_begin = 0;  // into hops_
    std::uint32_t hop_count = 0;
    bool committed = false;
  };

  /// parents(v) index of u, or num_parents(v) when (u, v) is no edge.
  std::size_t parent_index(NodeId u, NodeId v) const;

  Schedule tasks_;
  const RoutingTable* routes_;
  std::vector<Timeline> links_;
  std::vector<Slot> slots_;    // one per graph edge
  std::vector<MsgHop> hops_;   // every message's hops, in commit order
  std::size_t num_messages_ = 0;

  // messages()'s lazily built list. Its spans point into hops_, so a copy
  // starts dirty and rebuilds against its own hops_; a move carries both
  // buffers along and keeps the list.
  struct MessageList {
    std::vector<Message> list;
    bool dirty = true;

    MessageList() = default;
    MessageList(const MessageList&) {}
    MessageList& operator=(const MessageList&) {
      dirty = true;
      return *this;
    }
    MessageList(MessageList&&) = default;
    MessageList& operator=(MessageList&&) = default;
  };
  mutable MessageList order_;
};

}  // namespace tgs
