// EZ -- Edge Zeroing (Sarkar, 1989; paper ref [28]).
//
// Classification: UNC, non-CP-based, non-greedy. Edges are examined in
// descending order of communication cost; zeroing an edge means merging the
// clusters of its endpoints. A merge is committed iff the makespan of the
// resulting clustering (evaluated by the deterministic cluster-schedule of
// cluster_schedule.h) does not increase. Complexity O(e (v + e)) in the
// worst case: one evaluation per edge, each stopped early (exactly) once
// the partial schedule provably exceeds the best makespan so far
// (ClusterEvaluator, unc/cluster_schedule.h).
//
// Expressed as the parameter point bl/static/append/ez of the
// ParamScheduler core: the edge-zeroing pass (ez_clusters, unc/ez.cpp)
// fixes the cluster map, and the b-level static list phase reproduces the
// deterministic cluster materialization byte-for-byte
// (tests/reference_named.h, enforced by test_param.cpp).
#pragma once

#include "tgs/param/param_scheduler.h"

namespace tgs {

class EzScheduler final : public ParamScheduler {
 public:
  EzScheduler()
      : ParamScheduler({ParamMetric::kBL, ParamReady::kStatic,
                        ParamInsertion::kAppend, ParamCluster::kEz},
                       "EZ", AlgoClass::kUNC) {}
};

}  // namespace tgs
