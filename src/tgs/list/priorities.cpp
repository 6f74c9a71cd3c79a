#include "tgs/list/priorities.h"

namespace tgs {

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
