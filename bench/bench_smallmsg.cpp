// Experiment E13 (extension of §5.2) — small-message accounting.
//
// The paper analyzes the "big" message types (CpRstMsg, JoinWaitMsg,
// JoinNotiMsg and replies) and defers the small-message analysis to the
// companion technical report. This bench fills that gap empirically: per
// joining node it reports every message type's count distribution, plus the
// structural identities that must hold:
//   - #InSysNotiMsg sent = size of the joiner's reverse-neighbor set at
//     switch time (everyone who stored it while it was a T-node),
//   - #RvNghNotiMsg sent tracks the number of entries the joiner filled,
//   - replies are 1:1 with their requests.
#include <array>
#include <cstdio>
#include <unordered_map>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hcube;
  const bench::Flags flags(
      argc, argv, {{"--quick"}, {"--n", "N"}, {"--m", "N"}, {"--seed", "S"}});
  const bool quick = flags.present("--quick");
  const auto n = flags.u64("--n", quick ? 774 : 3096);
  const auto m = flags.u64("--m", quick ? 250 : 1000);
  const auto seed = flags.u64("--seed", 91);
  const IdParams params{16, 8};

  World world(params, {},
              std::make_unique<SyntheticLatency>(
                  static_cast<std::uint32_t>(n + m), 5.0, 120.0, seed));
  Overlay& overlay = world.overlay;
  UniqueIdGenerator gen(params, seed);
  std::vector<NodeId> v, w;
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(gen.next());
  for (std::uint64_t i = 0; i < m; ++i) w.push_back(gen.next());
  build_consistent_network(overlay, v);
  // Every message each joiner sends, by type, counted where the overlay
  // counts every send.
  std::unordered_map<NodeId, std::array<std::uint64_t, kNumMessageTypes>,
                     NodeIdHash>
      sent_by;
  for (const NodeId& x : w) sent_by[x] = {};
  overlay.on_message = [&](const NodeId& from, const NodeId&,
                           const MessageBody& body) {
    const auto it = sent_by.find(from);
    if (it != sent_by.end())
      ++it->second[static_cast<std::size_t>(type_of(body))];
  };
  Rng rng(seed);
  join_concurrently(world, w, v, rng);
  HCUBE_CHECK(overlay.all_in_system());
  HCUBE_CHECK(check_consistency(view_of(overlay)).consistent());

  std::printf("# E13: per-joiner message counts, n=%llu, m=%llu, b=16, d=8\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(m));
  std::printf("# (big types are the paper's §5.2 subjects; small types are "
              "the TR's)\n\n");
  std::printf("%-16s %5s | %8s %6s %6s %6s\n", "type sent by joiner", "big?",
              "mean", "p50", "p99", "max");

  for (std::size_t t = 0; t < kNumMessageTypes; ++t) {
    EmpiricalDistribution dist;
    for (const NodeId& x : w)
      dist.add(static_cast<std::int64_t>(sent_by[x][t]));
    if (dist.max() == 0) continue;
    std::printf("%-16s %5s | %8.3f %6lld %6lld %6lld\n",
                type_name(static_cast<MessageType>(t)),
                is_big_request(static_cast<MessageType>(t)) ? "big" : "small",
                dist.mean(), static_cast<long long>(dist.quantile(0.5)),
                static_cast<long long>(dist.quantile(0.99)),
                static_cast<long long>(dist.max()));
  }

  // Structural identities.
  auto total = [&](MessageType t) {
    return overlay.sent_of(t);
  };
  std::printf("\n# identities:\n");
  std::printf("  CpRst==CpRly: %s, JoinWait==JoinWaitRly: %s, "
              "JoinNoti==JoinNotiRly: %s\n",
              total(MessageType::kCpRst) == total(MessageType::kCpRly)
                  ? "yes" : "NO",
              total(MessageType::kJoinWait) ==
                      total(MessageType::kJoinWaitRly)
                  ? "yes" : "NO",
              total(MessageType::kJoinNoti) ==
                      total(MessageType::kJoinNotiRly)
                  ? "yes" : "NO");

  std::uint64_t in_sys_sent = 0, reverse_sets = 0;
  for (const NodeId& x : w) {
    in_sys_sent +=
        sent_by[x][static_cast<std::size_t>(MessageType::kInSysNoti)];
    reverse_sets += overlay.at(x).table().reverse_neighbors().size();
  }
  std::printf("  total InSysNotiMsg sent by joiners: %llu "
              "(reverse-neighbor registrations at quiescence: %llu)\n",
              static_cast<unsigned long long>(in_sys_sent),
              static_cast<unsigned long long>(reverse_sets));
  return 0;
}
