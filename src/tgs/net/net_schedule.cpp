#include "tgs/net/net_schedule.h"

#include <algorithm>
#include <stdexcept>

namespace tgs {

NetSchedule::NetSchedule(const TaskGraph& g, const RoutingTable& routes)
    : tasks_(g, routes.topology().num_procs()),
      routes_(&routes),
      links_(routes.topology().num_links()),
      slots_(g.num_edges()) {}

std::size_t NetSchedule::parent_index(NodeId u, NodeId v) const {
  const auto pars = graph().parents(v);
  // Parents are sorted by id: binary search.
  const auto it = std::lower_bound(
      pars.begin(), pars.end(), u,
      [](const Adj& a, NodeId id) { return a.node < id; });
  return it != pars.end() && it->node == u
             ? static_cast<std::size_t>(it - pars.begin())
             : pars.size();
}

Time NetSchedule::commit_parent_message(NodeId v, std::size_t i,
                                        int dst_proc) {
  const Adj& par = graph().parents(v)[i];
  const NodeId u = par.node;
  const Cost size = par.cost;
  if (!tasks_.is_placed(u)) throw std::logic_error("message src not placed");
  Slot& m = slots_[graph().parent_edge(v, i)];
  if (m.committed) throw std::logic_error("message already committed");
  const int src_proc = tasks_.proc(u);
  const Time depart = tasks_.finish(u);

  m = Slot{depart, depart, static_cast<std::uint32_t>(hops_.size()), 0, true};
  // A zero-size message is instantaneous and occupies no link.
  if (src_proc != dst_proc && size > 0) {
    Time t = depart;
    for (int link : routes_->path_links(src_proc, dst_proc)) {
      const Time hop_start = links_[link].earliest_fit(t, size, /*insertion=*/true);
      links_[link].occupy(msg_key(u, v), hop_start, size);
      hops_.push_back({link, hop_start, hop_start + size});
      t = hop_start + size;
    }
    m.hop_count = static_cast<std::uint32_t>(hops_.size() - m.hop_begin);
    m.arrival = t;
  }
  ++num_messages_;
  order_.dirty = true;
  return m.arrival;
}

Time NetSchedule::probe_arrival(int src_proc, int dst_proc, Cost size,
                                Time depart_after) const {
  if (src_proc == dst_proc || size <= 0) return depart_after;
  Time t = depart_after;
  for (int link : routes_->path_links(src_proc, dst_proc))
    t = links_[link].earliest_fit(t, size, /*insertion=*/true) + size;
  return t;
}

void NetSchedule::probe_arrival_all(int src_proc, Cost size,
                                    Time depart_after,
                                    std::span<Time> out) const {
  if (size <= 0) {
    std::fill(out.begin(), out.end(), depart_after);
    return;
  }
  out[src_proc] = depart_after;
  // Parents precede children in the sweep, so out[st.parent] is final by
  // the time the step crosses st.link.
  for (const RoutingTable::SweepStep& st : routes_->sweep(src_proc))
    out[st.proc] =
        links_[st.link].earliest_fit(out[st.parent], size, /*insertion=*/true) +
        size;
}

const std::vector<Message>& NetSchedule::messages() const {
  if (order_.dirty) {
    std::vector<Message>& list = order_.list;
    list.clear();
    list.reserve(num_messages_);
    const TaskGraph& g = graph();
    // Children ascend by id, so the (src, dst) walk is already sorted.
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      for (const Adj& c : g.children(u))
        if (const FoundMessage m = find_message(u, c.node); m != nullptr)
          list.push_back(*m);
    order_.dirty = false;
  }
  return order_.list;
}

FoundMessage NetSchedule::find_message(NodeId u, NodeId v) const {
  const std::size_t i = parent_index(u, v);
  if (i == graph().num_parents(v)) return {};
  const Slot& m = slots_[graph().parent_edge(v, i)];
  if (!m.committed) return {};
  return FoundMessage(Message{u, v, graph().parents(v)[i].cost, m.depart_after,
                              m.arrival,
                              {hops_.data() + m.hop_begin, m.hop_count}});
}

void NetSchedule::assign_prefix(const NetSchedule& src,
                                std::span<const std::uint32_t> rank,
                                std::uint32_t k) {
  tasks_.assign_prefix(src.tasks_, rank, k);
  routes_ = src.routes_;
  links_.resize(src.links_.size());
  const auto keep = [&](std::int64_t owner) {
    return rank[static_cast<NodeId>(owner & 0xffffffff)] < k;
  };
  for (std::size_t l = 0; l < links_.size(); ++l)
    links_[l].assign_filtered(src.links_[l], keep);

  const TaskGraph& g = graph();
  slots_.resize(src.slots_.size());
  hops_.clear();
  num_messages_ = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::size_t first = g.parent_edge(v, 0);
    const std::size_t last = first + g.num_parents(v);
    if (rank[v] >= k) {
      for (std::size_t e = first; e < last; ++e) slots_[e] = Slot{};
      continue;
    }
    for (std::size_t e = first; e < last; ++e) {
      const Slot& from = src.slots_[e];
      Slot& to = slots_[e];
      to = from;
      to.hop_begin = static_cast<std::uint32_t>(hops_.size());
      hops_.insert(hops_.end(), src.hops_.begin() + from.hop_begin,
                   src.hops_.begin() + from.hop_begin + from.hop_count);
      num_messages_ += from.committed;
    }
  }
  order_.dirty = true;
}

}  // namespace tgs
