#include "tgs/unc/clustering.h"

#include <numeric>
#include <unordered_map>

namespace tgs {

DisjointSets::DisjointSets(std::size_t n) : parent_(n) {
  std::iota(parent_.begin(), parent_.end(), NodeId{0});
}

NodeId DisjointSets::find(NodeId x) const {
  NodeId root = x;
  while (parent_[root] != root) root = parent_[root];
  // Path compression (state change is representation-only).
  while (parent_[x] != root) {
    const NodeId next = parent_[x];
    parent_[x] = root;
    x = next;
  }
  return root;
}

NodeId DisjointSets::merge(NodeId a, NodeId b) {
  const NodeId ra = find(a), rb = find(b);
  if (ra == rb) return ra;
  // Smaller representative wins: deterministic cluster ids.
  const NodeId lo = ra < rb ? ra : rb;
  const NodeId hi = ra < rb ? rb : ra;
  parent_[hi] = lo;
  return lo;
}

std::vector<ProcId> dense_assignment(const DisjointSets& ds) {
  std::vector<ProcId> labels(ds.size());
  for (NodeId i = 0; i < ds.size(); ++i)
    labels[i] = static_cast<ProcId>(ds.find(i));
  return densify(labels);
}

std::vector<ProcId> densify(const std::vector<ProcId>& labels) {
  std::unordered_map<ProcId, ProcId> remap;
  std::vector<ProcId> out(labels.size());
  ProcId next = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    auto [it, inserted] = remap.emplace(labels[i], next);
    if (inserted) ++next;
    out[i] = it->second;
  }
  return out;
}

}  // namespace tgs
