#include "tgs/list/priorities.h"

#include <algorithm>
#include <numeric>

namespace tgs {

std::vector<NodeId> order_by_descending(const std::vector<Time>& priority) {
  std::vector<NodeId> order(priority.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return priority[a] > priority[b];
  });
  return order;
}

NodeId argmax_priority(const std::vector<NodeId>& candidates,
                       const std::vector<Time>& priority) {
  NodeId best = kNoNode;
  for (NodeId n : candidates) {
    if (best == kNoNode || priority[n] > priority[best] ||
        (priority[n] == priority[best] && n < best)) {
      best = n;
    }
  }
  return best;
}

}  // namespace tgs
