// Experiment E8 — micro-benchmarks (google-benchmark) for the hot paths of
// the library: table writes/snapshots, suffix-trie queries, routing hops,
// consistency audits, and end-to-end single joins in the simulator.
#include <benchmark/benchmark.h>

#include "core/builder.h"
#include "core/consistency.h"
#include "core/routing.h"
#include "ids/sha1.h"
#include "ids/suffix_trie.h"
#include "topology/latency.h"

namespace hcube {
namespace {

std::vector<NodeId> ids_for(const IdParams& params, std::size_t n,
                            std::uint64_t seed) {
  UniqueIdGenerator gen(params, seed);
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(gen.next());
  return ids;
}

void BM_NodeIdCsuf(benchmark::State& state) {
  const IdParams params{16, 40};
  const auto ids = ids_for(params, 256, 1);
  std::size_t i = 0, acc = 0;
  for (auto _ : state) {
    acc += ids[i % 256].csuf_len(ids[(i * 7 + 3) % 256]);
    ++i;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_NodeIdCsuf);

void BM_SuffixTrieInsert(benchmark::State& state) {
  const IdParams params{16, 8};
  const auto ids =
      ids_for(params, static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    SuffixTrie trie(params);
    for (const auto& id : ids) trie.insert(id);
    benchmark::DoNotOptimize(trie.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SuffixTrieInsert)->Arg(256)->Arg(2048);

void BM_SuffixTrieNotifyLen(benchmark::State& state) {
  const IdParams params{16, 8};
  const auto ids = ids_for(params, 4096, 3);
  SuffixTrie trie(params);
  for (std::size_t i = 0; i < 4095; ++i) trie.insert(ids[i]);
  for (auto _ : state)
    benchmark::DoNotOptimize(trie.notify_suffix_len(ids[4095]));
}
BENCHMARK(BM_SuffixTrieNotifyLen);

void BM_TableSnapshotFull(benchmark::State& state) {
  const IdParams params{16, 40};
  const auto ids = ids_for(params, 600, 4);
  NeighborTable table(params, ids[0]);
  SuffixTrie trie(params);
  for (const auto& id : ids) trie.insert(id);
  trie.for_each_entry_candidate(
      ids[0], [&](std::size_t level, Digit j, const NodeId& first) {
        table.set(static_cast<std::uint32_t>(level), j, first,
                  NeighborState::kS);
      });
  for (auto _ : state) benchmark::DoNotOptimize(table.snapshot_full());
}
BENCHMARK(BM_TableSnapshotFull);

void BM_BuildConsistentNetwork(benchmark::State& state) {
  const IdParams params{16, 8};
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = ids_for(params, n, 5);
  for (auto _ : state) {
    World world(params, {},
                std::make_unique<ConstantLatency>(
                    static_cast<std::uint32_t>(n), 1.0));
    build_consistent_network(world.overlay, ids);
    benchmark::DoNotOptimize(world.overlay.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildConsistentNetwork)->Arg(512)->Arg(4096);

void BM_Route(benchmark::State& state) {
  const IdParams params{16, 8};
  const auto ids = ids_for(params, 4096, 6);
  World world(params, {}, std::make_unique<ConstantLatency>(4096, 1.0));
  build_consistent_network(world.overlay, ids);
  const NetworkView net = view_of(world.overlay);
  std::size_t i = 0, hops = 0;
  for (auto _ : state) {
    const auto r = route(net, ids[i % 4096], ids[(i * 13 + 7) % 4096]);
    hops += r.hops();
    ++i;
  }
  benchmark::DoNotOptimize(hops);
}
BENCHMARK(BM_Route);

void BM_ConsistencyCheck(benchmark::State& state) {
  const IdParams params{16, 8};
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = ids_for(params, n, 7);
  World world(params, {},
              std::make_unique<ConstantLatency>(static_cast<std::uint32_t>(n),
                                                1.0));
  build_consistent_network(world.overlay, ids);
  const NetworkView net = view_of(world.overlay);
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_consistency(net).consistent());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ConsistencyCheck)->Arg(512)->Arg(2048);

void BM_SingleJoinEndToEnd(benchmark::State& state) {
  const IdParams params{16, 8};
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = ids_for(params, n + 1, 8);
  const std::vector<NodeId> v(ids.begin(), ids.end() - 1);
  for (auto _ : state) {
    World world(params, {},
                std::make_unique<SyntheticLatency>(
                    static_cast<std::uint32_t>(n + 1), 5.0, 120.0, 9));
    build_consistent_network(world.overlay, v);
    world.schedule_join(ids[n], v[0], 0.0);
    world.drain();
    benchmark::DoNotOptimize(world.overlay.all_in_system());
  }
}
BENCHMARK(BM_SingleJoinEndToEnd)->Arg(512)->Arg(2048);

void BM_Sha1IdFromName(benchmark::State& state) {
  const IdParams params{16, 40};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        id_from_name("object/" + std::to_string(i++), params));
  }
}
BENCHMARK(BM_Sha1IdFromName);

}  // namespace
}  // namespace hcube

BENCHMARK_MAIN();
