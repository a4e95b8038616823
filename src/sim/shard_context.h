// Per-thread lane context for the sharded simulator.
//
// When the sharded driver (sim/shard_driver.h) runs an epoch, each worker
// thread executes exactly one lane's events, and the driver thread itself
// impersonates a lane while running barrier actions on a node's behalf.
// Code deep inside the protocol stack (Overlay's lane-striped counters, the
// transport facade's queue() accessor) needs to know *which* lane the
// current thread is acting for without threading a parameter through every
// call. That is this context: a thread-local {queue, lane}
// pair, set via the RAII LaneScope and empty (queue == nullptr) in code
// that runs outside any lane scope.
#pragma once

#include <cstdint>

namespace hcube {

class EventQueue;

// Upper bound on lanes a sharded run may use. Per-lane arrays are
// statically sized to kMaxShardLanes slots (see lane_scratch_slot()).
inline constexpr std::uint32_t kMaxShardLanes = 16;

struct LaneContext {
  EventQueue* queue = nullptr;  // null = outside any lane scope
  std::uint32_t lane = 0;
};

// Queue of the current lane, or nullptr outside any LaneScope.
EventQueue* current_lane_queue();

// Slot index for per-lane arrays: the lane index inside a LaneScope, 0
// outside one — such code runs only on the driver thread while every
// worker is parked, so it shares lane 0's slot with no concurrent writer.
std::uint32_t lane_scratch_slot();

// RAII lane context: saves the calling thread's context, installs
// {queue, lane}, and restores the previous context on destruction (scopes
// nest — the driver thread re-scopes per node while running barrier
// actions).
class LaneScope {
 public:
  LaneScope(EventQueue* queue, std::uint32_t lane);
  ~LaneScope();

  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  LaneContext prev_;
};

}  // namespace hcube
