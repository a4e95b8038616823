// Network construction helpers.
//
// Two ways to obtain a consistent network <V, N(V)>:
//   1. build_consistent_network: omniscient direct construction from the
//      full membership (a suffix trie yields, for every node and entry, a
//      matching member in O(1) amortized). Used to erect the large initial
//      networks of the paper's simulations (n = 3096 / 7192) quickly, and
//      as a reference for what the protocol must reproduce.
//   2. The join protocol itself, per Section 6.1: seed one node, then have
//      every other node execute the join protocol (join_sequentially /
//      join_concurrently).
#pragma once

#include <vector>

#include "core/overlay.h"
#include "core/world.h"
#include "ids/node_id.h"
#include "util/rng.h"

namespace hcube {

// Directly installs consistent tables (including complete reverse-neighbor
// sets) for `ids` into an empty overlay. All nodes end up in_system. When
// the overlay's ProtocolOptions::backups_per_entry is > 0, every entry also
// gets up to that many redundant neighbors (Section 2.1's extras for
// fault-tolerant routing), as the protocol keeps them.
void build_consistent_network(Overlay& overlay,
                              const std::vector<NodeId>& ids);

// Joins `new_ids` one at a time (strictly sequential joining periods): each
// node picks a uniformly random gateway among the members present when it
// starts, and the world drains before the next join begins.
void join_sequentially(World& world, const std::vector<NodeId>& new_ids,
                       std::vector<NodeId> members, Rng& rng);

// Schedules all of `new_ids` to start joining within [now, now + window_ms]
// (window 0 = all at the same instant, as in the paper's simulations), each
// via a uniformly random gateway from `members`, then drains the world.
void join_concurrently(World& world, const std::vector<NodeId>& new_ids,
                       const std::vector<NodeId>& members, Rng& rng,
                       SimTime window_ms = 0.0);

// Section 6.1 network initialization: ids[0] becomes the seed; the rest join
// sequentially (via random gateways) when `concurrent` is false, or all at
// once via the seed when true.
void initialize_network(World& world, const std::vector<NodeId>& ids,
                        Rng& rng, bool concurrent = false);

// Closed-loop departure: starts the leave protocol for `id` and drains the
// world, so the caller observes the post-departure fixpoint. This is the
// quiescence-barrier regime (one membership change at a time) — the
// open-loop equilibrium engine in chaos/ deliberately never calls it.
void leave_and_drain(World& world, const NodeId& id);

}  // namespace hcube
