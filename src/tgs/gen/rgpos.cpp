#include "tgs/gen/rgpos.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "tgs/gen/random_core.h"
#include "tgs/util/rng.h"

namespace tgs {

RgposGraph rgpos_graph(const RgposParams& params) {
  Rng rng(params.seed);
  const NodeId v = params.num_nodes;
  const int p = params.num_procs;

  // Distribute v tasks over p processors: start from a uniform draw with
  // mean v/p per processor, then repair to sum exactly v (each processor
  // keeps at least one task).
  std::vector<NodeId> per_proc(p);
  {
    const Cost mean = std::max<Cost>(1, v / p);
    NodeId total = 0;
    for (int i = 0; i < p; ++i) {
      per_proc[i] = static_cast<NodeId>(std::max<Cost>(1, rng.uniform_mean(mean, 1)));
      total += per_proc[i];
    }
    // Repair deterministically, round-robin.
    int i = 0;
    while (total > v) {
      if (per_proc[i] > 1) {
        --per_proc[i];
        --total;
      }
      i = (i + 1) % p;
    }
    while (total < v) {
      ++per_proc[i];
      ++total;
      i = (i + 1) % p;
    }
  }

  // L_opt: every processor is fully busy, mean segment = mean_weight.
  // Using one shared L_opt requires cutting each processor's [0, L_opt]
  // into per_proc[i] positive segments, so L_opt must exceed max(per_proc).
  const Time l_opt = std::max<Time>(
      *std::max_element(per_proc.begin(), per_proc.end()) + 1,
      static_cast<Time>(v) * params.mean_weight / p);

  // Cut each processor's interval; tasks are created processor-major so
  // node ids group by processor (harmless; edges are what matter).
  TaskGraphBuilder builder("rgpos_v" + std::to_string(v) + "_p" +
                           std::to_string(p));
  builder.reserve(
      v, static_cast<std::size_t>(v) +
             (params.edges_per_node > 0
                  ? static_cast<std::size_t>(static_cast<double>(v) *
                                             params.edges_per_node)
                  : static_cast<std::size_t>(
                        static_cast<double>(v) *
                        (static_cast<double>(v) / params.fanout_divisor) /
                        2.0)));
  std::vector<ProcId> proc_of;
  std::vector<Time> start_of, finish_of;
  for (int i = 0; i < p; ++i) {
    const NodeId k = per_proc[i];
    // k-1 distinct interior cut points in [1, l_opt - 1].
    std::vector<Time> cuts;
    std::unordered_set<Time> used;
    while (cuts.size() + 1 < k) {
      const Time c = rng.uniform_int(1, l_opt - 1);
      if (used.insert(c).second) cuts.push_back(c);
    }
    cuts.push_back(0);
    cuts.push_back(l_opt);
    std::sort(cuts.begin(), cuts.end());
    for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
      const Time st = cuts[s], fin = cuts[s + 1];
      builder.add_node(fin - st);
      proc_of.push_back(i);
      start_of.push_back(st);
      finish_of.push_back(fin);
    }
  }

  const NodeId n = static_cast<NodeId>(proc_of.size());
  const Cost comm_mean_chain = std::max<Cost>(
      1, static_cast<Cost>(std::llround(params.mean_weight * params.ccr)));
  std::unordered_set<std::uint64_t> seen;

  // Optional width guard: see RgposParams::width_guard. Task ids are
  // processor-major and time-ordered within a processor.
  if (params.width_guard) {
    NodeId first = 0;
    for (int i = 0; i < p; ++i) {
      for (NodeId k = 1; k < per_proc[i]; ++k) {
        const NodeId a = first + k - 1, b = first + k;
        builder.add_edge(a, b, rng.uniform_mean(comm_mean_chain, 1));
        seen.insert((static_cast<std::uint64_t>(a) << 32) | b);
      }
      first += per_proc[i];
    }
  }

  // Random edges: pick pairs (a, b) with FT(a) <= ST(b). Tasks sorted by
  // start time; for a given a, any task starting at or after FT(a)
  // qualifies.
  std::vector<NodeId> by_start(n);
  for (NodeId i = 0; i < n; ++i) by_start[i] = i;
  std::sort(by_start.begin(), by_start.end(), [&](NodeId a, NodeId b) {
    return start_of[a] != start_of[b] ? start_of[a] < start_of[b] : a < b;
  });
  std::vector<Time> sorted_starts(n);
  for (NodeId i = 0; i < n; ++i) sorted_starts[i] = start_of[by_start[i]];

  const std::size_t edge_target =
      params.edges_per_node > 0
          ? static_cast<std::size_t>(static_cast<double>(v) *
                                     params.edges_per_node)
          : static_cast<std::size_t>(static_cast<double>(v) *
                                     (static_cast<double>(v) /
                                      params.fanout_divisor) /
                                     2.0);
  const Cost comm_mean = comm_mean_chain;

  std::size_t attempts = 0;
  std::size_t added = 0;
  while (added < edge_target && attempts < edge_target * 8) {
    ++attempts;
    const NodeId a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    // Candidates: sorted-start index range with ST >= FT(a).
    const auto lo = std::lower_bound(sorted_starts.begin(), sorted_starts.end(),
                                     finish_of[a]) -
                    sorted_starts.begin();
    if (lo >= static_cast<std::ptrdiff_t>(n)) continue;
    const NodeId b =
        by_start[static_cast<std::size_t>(rng.uniform_int(lo, n - 1))];
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    if (!seen.insert(key).second) continue;

    Cost w;
    if (proc_of[a] != proc_of[b]) {
      const Time slack = start_of[b] - finish_of[a];
      // Mean per CCR but never above the slack (keeps the plant feasible).
      w = slack <= 0 ? 0
                     : std::min<Cost>(slack, rng.uniform_int(0, 2 * comm_mean));
    } else {
      w = rng.uniform_mean(comm_mean, 1);
    }
    builder.add_edge(a, b, w);
    ++added;
  }

  RgposGraph out{builder.finalize(), l_opt, p, std::move(proc_of),
                 std::move(start_of)};
  return out;
}

RgposGraph rgpos_suite_graph(double ccr, NodeId num_nodes, int num_procs,
                             std::uint64_t seed, bool width_guard) {
  RgposParams params;
  params.num_nodes = num_nodes;
  params.num_procs = num_procs;
  params.ccr = ccr;
  params.width_guard = width_guard;
  std::uint64_t state = seed ^ (static_cast<std::uint64_t>(num_nodes) << 18) ^
                        static_cast<std::uint64_t>(std::llround(ccr * 1000));
  params.seed = splitmix64(state);
  return rgpos_graph(params);
}

}  // namespace tgs
