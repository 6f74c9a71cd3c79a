#include "tgs/sched/schedule.h"

#include <algorithm>
#include <stdexcept>

namespace tgs {

Schedule::Schedule(const TaskGraph& g, int num_procs_hint)
    : graph_(&g),
      proc_(g.num_nodes(), kNoProc),
      start_(g.num_nodes(), 0) {
  if (num_procs_hint > 0) timelines_.resize(num_procs_hint);
}

void Schedule::ensure_proc(ProcId p) {
  if (p < 0) throw std::invalid_argument("negative processor id");
  if (static_cast<std::size_t>(p) >= timelines_.size())
    timelines_.resize(static_cast<std::size_t>(p) + 1);
}

void Schedule::place(NodeId n, ProcId p, Time start) {
  if (proc_[n] != kNoProc) throw std::logic_error("task already placed");
  if (start < 0) throw std::invalid_argument("negative start time");
  ensure_proc(p);
  timelines_[p].occupy(static_cast<std::int64_t>(n), start, graph_->weight(n));
  proc_[n] = p;
  start_[n] = start;
  ++placed_count_;
}

void Schedule::unplace(NodeId n) {
  if (proc_[n] == kNoProc) throw std::logic_error("task not placed");
  timelines_[proc_[n]].release(static_cast<std::int64_t>(n), start_[n]);
  proc_[n] = kNoProc;
  start_[n] = 0;
  --placed_count_;
}

void Schedule::assign_prefix(const Schedule& src,
                             std::span<const std::uint32_t> rank,
                             std::uint32_t k) {
  graph_ = src.graph_;
  timelines_.resize(src.timelines_.size());
  const auto keep = [&](std::int64_t owner) { return rank[owner] < k; };
  for (std::size_t p = 0; p < timelines_.size(); ++p)
    timelines_[p].assign_filtered(src.timelines_[p], keep);
  const std::size_t n = src.proc_.size();
  proc_.resize(n);
  start_.resize(n);
  placed_count_ = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const bool kept = rank[v] < k && src.proc_[v] != kNoProc;
    proc_[v] = kept ? src.proc_[v] : kNoProc;
    start_[v] = kept ? src.start_[v] : 0;
    placed_count_ += kept;
  }
}

int Schedule::procs_used() const {
  int used = 0;
  for (const Timeline& tl : timelines_)
    if (!tl.empty()) ++used;
  return used;
}

Time Schedule::makespan() const {
  Time m = 0;
  for (const Timeline& tl : timelines_) m = std::max(m, tl.end_time());
  return m;
}

Time Schedule::earliest_start_on(ProcId p, Time ready, Cost dur,
                                 bool insertion) const {
  if (p < 0) throw std::invalid_argument("negative processor id");
  if (static_cast<std::size_t>(p) >= timelines_.size()) return ready;
  return timelines_[p].earliest_fit(ready, dur, insertion);
}

Time Schedule::data_ready(NodeId n, ProcId p) const {
  Time ready = 0;
  for (const Adj& par : graph_->parents(n)) {
    if (proc_[par.node] == kNoProc) continue;
    const Time ft = start_[par.node] + graph_->weight(par.node);
    const Time arrival = proc_[par.node] == p ? ft : ft + par.cost;
    ready = std::max(ready, arrival);
  }
  return ready;
}

Time Schedule::est(NodeId n, ProcId p, bool insertion) const {
  return earliest_start_on(p, data_ready(n, p), graph_->weight(n), insertion);
}

void Schedule::pinned_t_levels(std::vector<Time>& t) const {
  const TaskGraph& g = *graph_;
  t.assign(g.num_nodes(), 0);
  for (NodeId u : g.topological_order()) {
    if (proc_[u] != kNoProc) {
      t[u] = start_[u];
      continue;
    }
    Time best = 0;
    for (const Adj& par : g.parents(u))
      best = std::max(best, t[par.node] + g.weight(par.node) + par.cost);
    t[u] = best;
  }
}

}  // namespace tgs
