// Experiment E6 — the paper's qualitative claim against multicast-based
// joins (Tapestry / Hildrum et al., Section 1):
//
//   "This approach has the disadvantage of requiring many existing nodes to
//    store and process extra states as well as send and receive messages on
//    behalf of joining nodes. We take a very different approach ... We put
//    the burden of the join process on joining nodes only."
//
// For the same sequence of joins we measure, per join:
//   - multicast baseline: existing nodes touched, existing nodes that hold
//     pending join state, messages processed by existing nodes;
//   - Liu-Lam protocol: pending join state at existing S-nodes (always 0 by
//     construction: Q_r/Q_n/Q_j/Q_sr/Q_sn live only at joining nodes) and
//     join-protocol messages initiated by existing nodes (0 as well — they
//     only reply).
#include <cstdio>
#include <unordered_set>

#include "baseline/multicast_join.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hcube;
  const bench::Flags flags(
      argc, argv, {{"--quick"}, {"--seed", "S"}, {"--n", "N"}, {"--m", "N"}});
  const bool quick = flags.present("--quick");
  const auto seed = flags.u64("--seed", 31);
  // b = 16 keeps notification sets a handful of nodes wide (expected size
  // up to ~b), which is where the multicast fan-out and its pending lists
  // are most visible.
  const IdParams params{16, 8};
  const auto n = flags.u64("--n", quick ? 300 : 2000);
  const auto m = flags.u64("--m", quick ? 50 : 200);

  UniqueIdGenerator gen(params, seed);
  std::vector<NodeId> v, w;
  for (std::size_t i = 0; i < n; ++i) v.push_back(gen.next());
  for (std::size_t i = 0; i < m; ++i) w.push_back(gen.next());

  // ---- multicast baseline (sequential joins) ----
  MulticastNetwork baseline(params, v);
  StreamingStats touched, pending, msgs;
  {
    Rng rng(seed);
    std::vector<NodeId> members = v;
    for (const NodeId& x : w) {
      const auto metrics =
          baseline.join(x, members[rng.next_below(members.size())]);
      touched.add(static_cast<double>(metrics.existing_nodes_touched));
      pending.add(
          static_cast<double>(metrics.existing_nodes_with_pending_state));
      msgs.add(static_cast<double>(metrics.messages_at_existing()));
      members.push_back(x);
    }
  }
  const bool baseline_consistent =
      check_consistency(baseline.view()).consistent();

  // ---- Liu-Lam protocol (same memberships, sequential joins) ----
  World world(params, {},
              std::make_unique<SyntheticLatency>(
                  static_cast<std::uint32_t>(n + m), 5.0, 120.0, seed));
  Overlay& overlay = world.overlay;
  build_consistent_network(overlay, v);
  // Messages addressed to existing nodes, counted as the overlay sends them;
  // the network is loss-free, so each one is delivered.
  const std::unordered_set<NodeId, NodeIdHash> existing(v.begin(), v.end());
  double v_received = 0.0, v_big = 0.0;
  overlay.on_message = [&](const NodeId&, const NodeId& to,
                           const MessageBody& body) {
    if (!existing.contains(to)) return;
    v_received += 1.0;
    if (is_big_request(type_of(body))) v_big += 1.0;
  };
  {
    Rng rng(seed);
    join_sequentially(world, w, v, rng);
  }
  const bool ours_consistent =
      overlay.all_in_system() &&
      check_consistency(view_of(overlay)).consistent();

  // Existing-node burden under our protocol: join messages initiated by
  // V-nodes (they never initiate; they only reply) and pending state.
  std::uint64_t v_initiated = 0;
  for (const NodeId& u : v) {
    const JoinStats& s = overlay.at(u).join_stats();
    v_initiated += s.sent_of(MessageType::kCpRst) +
                   s.sent_of(MessageType::kJoinWait) +
                   s.sent_of(MessageType::kJoinNoti);
  }

  std::printf("# E6: existing-node burden, multicast baseline vs this "
              "protocol\n");
  std::printf("# b=%u d=%u, n=%llu existing nodes, m=%llu joins\n\n",
              params.base, params.num_digits,
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(m));
  std::printf("multicast baseline (per join):\n");
  std::printf("  existing nodes touched:        mean %8.2f  max %6.0f\n",
              touched.mean(), touched.max());
  std::printf("  existing nodes holding state:  mean %8.2f  max %6.0f\n",
              pending.mean(), pending.max());
  std::printf("  messages at existing nodes:    mean %8.2f  max %6.0f\n",
              msgs.mean(), msgs.max());
  std::printf("  network consistent afterwards: %s\n\n",
              baseline_consistent ? "yes" : "NO");
  std::printf("this protocol (per join):\n");
  std::printf("  join messages initiated by existing nodes: %llu\n",
              static_cast<unsigned long long>(v_initiated));
  std::printf("  existing nodes holding pending join state: 0 (by "
              "construction: Q_* live only at T-nodes)\n");
  std::printf("  messages at existing nodes:    mean %8.2f"
              " (%.2f requests to answer, %.2f stateless bookkeeping"
              " notifications)\n",
              v_received / static_cast<double>(m),
              v_big / static_cast<double>(m),
              (v_received - v_big) / static_cast<double>(m));
  std::printf("  network consistent afterwards: %s\n",
              ours_consistent ? "yes" : "NO");
  std::printf("\n# Existing nodes under this protocol never forward, queue,"
              " or track a join:\n"
              "# each message is answered (or merely noted) immediately and"
              " forgotten. Under\n"
              "# the multicast baseline every interior tree node holds the"
              " joiner in a pending\n"
              "# list across a full subtree round trip.\n");
  return baseline_consistent && ours_consistent ? 0 : 1;
}
