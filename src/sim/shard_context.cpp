#include "sim/shard_context.h"

#include "util/check.h"

namespace hcube {

namespace {
// Written only through LaneScope on the owning thread; thread_local, so the
// shared-state capability rules don't apply.
thread_local LaneContext g_lane_context;
}  // namespace

EventQueue* current_lane_queue() {
  EventQueue* queue = g_lane_context.queue;
  return queue;
}

std::uint32_t lane_scratch_slot() {
  const LaneContext ctx = g_lane_context;
  if (ctx.queue == nullptr) return 0;
  HCUBE_DCHECK(ctx.lane < kMaxShardLanes);
  return ctx.lane;
}

LaneScope::LaneScope(EventQueue* queue, std::uint32_t lane)
    : prev_(g_lane_context) {
  HCUBE_DCHECK(queue == nullptr || lane < kMaxShardLanes);
  g_lane_context = LaneContext{queue, lane};
}

LaneScope::~LaneScope() { g_lane_context = prev_; }

}  // namespace hcube
