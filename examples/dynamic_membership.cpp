// Dynamic membership, end to end — the full lifecycle the paper's title
// promises and the extensions this library adds on its framework:
//
//   1. bootstrap a network through the join protocol (paper, §6.1)
//   2. a concurrent join wave (paper, Theorem 1)
//   3. graceful leaves (extension: leave protocol)
//   4. fail-stop crashes + pull/push repair (extension: recovery)
//   5. an object store that follows the membership via root handoff
//
// After every phase the network is audited against Definition 3.8 over the
// live membership.
//
// Build & run:  ./build/examples/dynamic_membership
#include <cstdio>

#include "core/builder.h"
#include "core/consistency.h"
#include "core/routing.h"
#include "dht/object_store.h"
#include "topology/latency.h"

using namespace hcube;

namespace {

bool audit_phase(const char* phase, Overlay& overlay) {
  const auto report = check_consistency(view_of(overlay));
  std::printf("%-38s live=%3zu  %s\n", phase, overlay.live_size(),
              report.consistent() ? "CONSISTENT" : "INCONSISTENT!");
  return report.consistent();
}

}  // namespace

int main() {
  const IdParams params{16, 6};
  World world(params, ProtocolOptions{},
              std::make_unique<SyntheticLatency>(300, 5.0, 120.0, 1234));
  Overlay& overlay = world.overlay;
  UniqueIdGenerator gen(params, 42);
  Rng rng(7);
  bool ok = true;

  // 1. bootstrap: 80 nodes, all via the join protocol.
  std::vector<NodeId> members;
  for (int i = 0; i < 80; ++i) members.push_back(gen.next());
  initialize_network(world, members, rng);
  ok &= audit_phase("1. bootstrapped via joins", overlay);

  // Publish a library of objects.
  ObjectStore store(view_of(overlay));
  for (int i = 0; i < 300; ++i)
    store.publish(members[static_cast<std::size_t>(i) % members.size()],
                  "doc/" + std::to_string(i), "contents-" + std::to_string(i));

  // 2. concurrent join wave.
  std::vector<NodeId> joiners;
  for (int i = 0; i < 60; ++i) joiners.push_back(gen.next());
  join_concurrently(world, joiners, members, rng);
  members.insert(members.end(), joiners.begin(), joiners.end());
  ok &= audit_phase("2. +60 concurrent joins", overlay);
  std::printf("   object handoff after joins: %zu objects migrated\n",
              store.rebalance(view_of(overlay)));

  // 3. graceful leaves.
  for (int i = 0; i < 25; ++i) {
    const std::size_t victim = rng.next_below(members.size());
    leave_and_drain(world, members[victim]);
    members.erase(members.begin() + static_cast<long>(victim));
  }
  ok &= audit_phase("3. -25 graceful leaves", overlay);
  std::printf("   object handoff after leaves: %zu objects migrated\n",
              store.rebalance(view_of(overlay)));

  // 4. crashes + recovery.
  for (int i = 0; i < 10; ++i) {
    const std::size_t victim = rng.next_below(members.size());
    world.crash(members[victim]);
    members.erase(members.begin() + static_cast<long>(victim));
  }
  const auto queries = world.repair_all(/*ping_timeout_ms=*/500.0,
                                        /*rounds=*/3);
  ok &= audit_phase("4. -10 crashes, repaired", overlay);
  std::printf("   recovery issued %llu repair queries\n",
              static_cast<unsigned long long>(queries));
  std::printf("   object handoff after recovery: %zu objects migrated\n",
              store.rebalance(view_of(overlay)));

  // 5. final service check: every object findable from every 7th member.
  int found = 0, probes = 0;
  for (int i = 0; i < 300; i += 23) {
    for (std::size_t p = 0; p < members.size(); p += 7) {
      ++probes;
      std::string value;
      if (store.lookup(members[p], "doc/" + std::to_string(i), &value)
              .success &&
          value == "contents-" + std::to_string(i))
        ++found;
    }
  }
  std::printf("5. object service after all churn: %d/%d lookups succeeded\n",
              found, probes);
  ok &= (found == probes);

  std::printf("\n%s\n", ok ? "lifecycle complete — every phase consistent"
                           : "LIFECYCLE FAILED");
  return ok ? 0 : 1;
}
