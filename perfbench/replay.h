// Layered replay: one recorded join-wave send sequence driven through
// three stacks built up one layer at a time, so each layer's marginal cost
// per message is a subtraction rather than a guess.
//   1. bare EventQueue deliveries into a no-op sink,
//   2. SimTransport (latency model, payload slab, handler dispatch),
//   3. ReliableTransport over SimTransport (sequencing, acks, ARQ timers).
#pragma once

#include <vector>

#include "topology/latency.h"
#include "trace.h"

namespace hcube::perfbench {

struct ReplayCost {
  double queue_ns = 0.0;     // stack 1, per recorded message
  double sim_ns = 0.0;       // stack 2 minus stack 1
  double reliable_ns = 0.0;  // stack 3 minus stack 2
};

// Replays `sends` (in recording order, each issued at its recorded time)
// `reps` times per stack and returns the medians' differences. `latency`
// must be the model the recording ran over, sized for every host.
ReplayCost replay_layers(const std::vector<SendRecord>& sends,
                         LatencyModel& latency, int reps);

}  // namespace hcube::perfbench
