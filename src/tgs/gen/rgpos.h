// RGPOS -- Random Graphs with Pre-determined Optimal Schedules (paper
// §5.3).
//
// Construction (exactly the paper's): fix an optimal length L_opt and a
// processor count p; partition each processor's [0, L_opt] interval into
// randomly many task segments with NO idle time, so total work = p * L_opt
// and the planted schedule is optimal for p processors (any schedule is at
// least ceil(work / p) long). Edges are drawn between tasks with
// FT(a) <= ST(b); a cross-processor edge's weight never exceeds the slack
// ST(b) - FT(a) (so the planted schedule stays feasible), a same-processor
// edge's weight is unconstrained and drawn per CCR.
#pragma once

#include <cstdint>
#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/util/types.h"

namespace tgs {

struct RgposGraph {
  TaskGraph graph;
  Time optimal_length = 0;
  int num_procs = 0;
  /// The planted schedule (proof of achievability).
  std::vector<ProcId> planted_proc;
  std::vector<Time> planted_start;
};

struct RgposParams {
  NodeId num_nodes = 100;
  int num_procs = 4;
  double ccr = 1.0;
  Cost mean_weight = 40;      // mean task segment length
  double fanout_divisor = 10; // edge budget ~ v^2 / (2 * divisor)
  std::uint64_t seed = 1;
  /// Giant-tier scale path: when > 0, the edge budget becomes
  /// v * edges_per_node instead of the paper's quadratic
  /// v^2 / (2 * fanout_divisor). 0 = the paper's original budget; every
  /// existing graph is byte-identical in that mode.
  double edges_per_node = 0;
  /// When true, time-consecutive tasks on each planted processor are
  /// chained with extra same-processor edges. The DAG then has a chain
  /// cover of size p, so (Dilworth) its width is <= p and L_opt = W/p is a
  /// lower bound for ANY schedule, even on more than p processors -- the
  /// property needed when unbounded (UNC) algorithms are measured against
  /// the plant. The chains also make the plant reconstructable by greedy
  /// list scheduling (zero-slack pairs force co-location), so bounded
  /// algorithms should be evaluated with width_guard = false, the paper's
  /// original construction, where W/p already bounds any p-processor
  /// schedule.
  bool width_guard = false;
};

RgposGraph rgpos_graph(const RgposParams& params);

/// One graph of the paper's suite (v = 50..500 step 50 per CCR): v nodes
/// planted on num_procs processors at `ccr`, its seed paired with (seed,
/// ccr, v) so every (ccr, v) cell is fixed by the suite seed.
RgposGraph rgpos_suite_graph(double ccr, NodeId num_nodes, int num_procs,
                             std::uint64_t seed, bool width_guard);

inline constexpr double kRgposCcrs[] = {0.1, 1.0, 10.0};

}  // namespace tgs
