#include "proto/conformance.h"

namespace hcube {

const char* to_string(NodeStatus s) {
  // No default arm: one would switch off -Werror=switch for this enum.
  switch (s) {
    case NodeStatus::kCopying: return "copying";
    case NodeStatus::kWaiting: return "waiting";
    case NodeStatus::kNotifying: return "notifying";
    case NodeStatus::kInSystem: return "in_system";
    case NodeStatus::kLeaving: return "leaving";
    case NodeStatus::kDeparted: return "departed";
    case NodeStatus::kCrashed: return "crashed";
  }
  return "?";
}

}  // namespace hcube
