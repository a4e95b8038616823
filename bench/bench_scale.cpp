// Memory-budgeted scale bench on the sharded simulator: how large an
// overlay fits in a stated heap budget, what each node costs, and how the
// epoch/barrier engine carries a planet-scale join wave.
//
// Builds a consistent network of n nodes offline (SuffixTrie builder, no
// protocol traffic), measuring the heap delta across overlay construction:
// bytes/node is that delta divided by n. A join wave of m nodes then runs
// ON TOP of the built network through the sharded stack (net/sharded_net.h)
// — each join is a driver action, protocol events execute on the K lanes
// under the epoch barrier — so "settle time" reflects live-protocol hot
// paths at scale. K = 1 runs the identical wave on a single lane; the
// digest emitted into BENCH_scale.json is invariant across K (CI
// cross-checks --shards 4 against --shards 1), which extends the chaos
// tier's differential-determinism proof to the n=10^6 / m=100k regime.
//
// Usage: bench_scale [--n N] [--wave M] [--shards K] [--budget-mb MB]
//                    [--max-bytes-per-node B] [--quick]
//   --quick               n=10'000, m=1'000 (CI bench-trend); default
//                         n=1'000'000, m=100'000 (the headline workload);
//                         --n and --wave must be >= 1
//   --shards              simulator lanes in [1, kMaxShardLanes] (default 1)
//   --budget-mb           heap budget the build must fit in (default 8192)
//   --max-bytes-per-node  hard ceiling; nonzero exit when exceeded
//
// Where the allocator statistics see no heap (a non-glibc build, or a
// sanitizer that replaces malloc), the build shows no heap growth: the run
// says the heap cannot be measured, reports the budget as not checked, and
// exits 1 if --max-bytes-per-node was given.

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "net/sharded_net.h"
#include "sim/shard_context.h"

namespace hcube::bench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Heap bytes currently handed out by the allocator (glibc): ordinary
// arena allocations plus mmapped blocks. Good to within allocator
// bookkeeping; both snapshots carry the same bias so the delta is clean.
// Reads 0 where glibc's statistics do not see the heap.
std::uint64_t heap_in_use() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::uint64_t>(mi.uordblks) +
         static_cast<std::uint64_t>(mi.hblkhd);
#else
  return 0;
#endif
}

std::uint64_t max_rss_kb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

// FNV-1a over the wave's complete observable outcome. Every addend is a
// pure function of (n, m, seeds) by the sharded determinism argument
// (DESIGN.md §16), so the digest must be bit-identical for any --shards.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<unsigned char>(v >> (8 * i));
      h *= 0x100000001b3ULL;
    }
  }
};

// Pre-refactor layout measured at n = 10k (array-of-structs NeighborTable,
// 65-byte inline-digit NodeId, unordered_map reverse/backup sides), same
// IdParams{16, 8} and build path as below. The dense-index layout must stay
// >= 4x below this (ISSUE 6 acceptance); CI additionally enforces the
// --max-bytes-per-node ceiling on every run.
constexpr double kBaselineBytesPerNode10k = 16950.0;

int main_impl(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {{"--quick"}, {"--n", "N"}, {"--wave", "N"},
                     {"--shards", "K"}, {"--budget-mb", "MB"},
                     {"--max-bytes-per-node", "B"}});
  const bool quick = flags.present("--quick");
  const std::size_t n = static_cast<std::size_t>(
      flags.u64("--n", quick ? 10'000 : 1'000'000));
  const std::size_t wave = static_cast<std::size_t>(
      flags.u64("--wave", quick ? 1'000 : 100'000));
  const std::uint64_t lanes = flags.u64("--shards", 1);
  if (n < 1) flags.fail("--n must be >= 1");
  if (wave < 1) flags.fail("--wave must be >= 1");
  if (lanes < 1 || lanes > kMaxShardLanes)
    flags.fail("--shards must be in [1, " + std::to_string(kMaxShardLanes) +
               "]");
  const auto shards = static_cast<std::uint32_t>(lanes);
  const std::uint64_t budget_mb = flags.u64("--budget-mb", 8192);
  const std::uint64_t ceiling =
      flags.u64("--max-bytes-per-node", 0);
  const IdParams params{16, 8};

  std::printf("scale: n=%zu wave=%zu shards=%u budget=%lluMB base=%u "
              "digits=%u\n",
              n, wave, shards, static_cast<unsigned long long>(budget_mb),
              params.base, params.num_digits);

  const auto t_start = Clock::now();
  const std::uint64_t heap0 = heap_in_use();

  ShardedNet::Params net_params;
  net_params.lanes = shards;
  net_params.rel.rto_ms = 500.0;
  World world(params, ProtocolOptions{},
              std::make_unique<SyntheticLatency>(
                  static_cast<std::uint32_t>(n + wave), 5.0, 120.0,
                  /*seed=*/1),
              net_params);
  ShardedNet& net = world.net;
  Overlay& overlay = world.overlay;

  UniqueIdGenerator gen(params, 0x5ca1eULL);
  std::vector<NodeId> v, w;
  v.reserve(n);
  w.reserve(wave);
  for (std::size_t i = 0; i < n; ++i) v.push_back(gen.next());
  for (std::size_t i = 0; i < wave; ++i) w.push_back(gen.next());

  const std::uint64_t heap_setup = heap_in_use();
  // Set-up (latency model, stack, IDs) and the offline builder are timed
  // apart: build_ms is build_consistent_network alone, as perfbench's
  // builder.build_s is.
  const double setup_ms = ms_since(t_start);
  const auto t_build = Clock::now();
  {
    // finish_install stamps t_begin via env.now(); lanes all sit at t = 0.
    LaneScope scope(&net.lane_queue(0), 0);
    build_consistent_network(overlay, v);
  }
  const double build_ms = ms_since(t_build);
  const std::uint64_t heap1 = heap_in_use();
  std::size_t rev_bytes = 0, rev_live = 0, tbl_bytes = 0;
  for (const auto& node : overlay.nodes()) {
    rev_bytes += node->table().reverse_neighbors().bytes_used();
    rev_live += node->table().reverse_neighbors().size() * sizeof(NodeId);
    tbl_bytes += node->table().bytes_used();
  }
  std::printf(
      "  breakdown: setup %.1f MB, arena %.1f/%.1f MB used/reserved, "
      "tables %.1f MB (reverse %.1f cap / %.1f live), sizeof(Node)=%zu\n",
      static_cast<double>(heap_setup - heap0) / (1024.0 * 1024.0),
      static_cast<double>(overlay.table_arena().bytes_used()) /
          (1024.0 * 1024.0),
      static_cast<double>(overlay.table_arena().bytes_reserved()) /
          (1024.0 * 1024.0),
      static_cast<double>(tbl_bytes) / (1024.0 * 1024.0),
      static_cast<double>(rev_bytes) / (1024.0 * 1024.0),
      static_cast<double>(rev_live) / (1024.0 * 1024.0), sizeof(Node));

  const std::uint64_t heap_bytes = heap1 > heap0 ? heap1 - heap0 : 0;
  const double bytes_per_node =
      n > 0 ? static_cast<double>(heap_bytes) / static_cast<double>(n) : 0.0;
  // Building nodes always allocates: no growth means the allocator
  // statistics cannot see this build's heap, not that it is free.
  const bool heap_measured = heap_bytes > 0;
  const bool within_budget = heap_bytes <= budget_mb * 1024 * 1024;

  if (heap_measured) {
    std::printf("  set up in %.0f ms, built in %.0f ms: %.1f MB heap, %.0f "
                "bytes/node%s\n",
                setup_ms, build_ms,
                static_cast<double>(heap_bytes) / (1024.0 * 1024.0),
                bytes_per_node, within_budget ? "" : "  [OVER BUDGET]");
  } else {
    std::printf("  set up in %.0f ms, built in %.0f ms: heap cannot be "
                "measured in this build (no growth after %zu nodes); "
                "budget not checked\n",
                setup_ms, build_ms, n);
  }

  // Settle: the m-join wave as driver actions — the same joins at the same
  // instants for every K, with seeded gateway picks, so the merged event
  // history (and the digest below) is shard-invariant. Arrivals are spaced
  // 0.05 ms apart: dense enough that thousands of joins are in flight at
  // once, sparse enough that the arrival order is unambiguous.
  const auto t_settle = Clock::now();
  Rng rng(7);
  for (std::size_t i = 0; i < wave; ++i)
    world.schedule_join(w[i], v[rng.next_below(n)],
                        0.05 * static_cast<double>(i + 1));
  world.drain();
  const double settle_wall_ms = ms_since(t_settle);
  const double settle_sim_ms = net.driver().last_event_time();
  const bool settled = overlay.all_in_system();
  const double wall_ms = ms_since(t_start);

  std::printf("  wave of %zu settled in %.0f ms wall / %.0f ms sim over %llu "
              "epochs (%llu cross-shard msgs)%s\n",
              wave, settle_wall_ms, settle_sim_ms,
              static_cast<unsigned long long>(net.driver().epochs_run()),
              static_cast<unsigned long long>(net.cross_shard_messages()),
              settled ? "" : "  [UNSETTLED]");

  // The shard-invariant outcome fold. rel_in_flight is 0 at quiescence on
  // every healthy run; folding it keeps a leak from going unnoticed.
  const Overlay::Totals totals = overlay.totals();
  Digest digest;
  digest.add(n);
  digest.add(wave);
  digest.add(net.driver().events_processed());
  digest.add(totals.messages);
  digest.add(totals.bytes);
  digest.add(static_cast<std::uint64_t>(settle_sim_ms * 1000.0));
  digest.add(settled ? 1 : 0);
  digest.add(net.rel_in_flight());

  obs::BenchReport report("scale");
  report.param("quick", static_cast<std::uint64_t>(quick ? 1 : 0));
  report.param("n", static_cast<std::uint64_t>(n));
  report.param("wave", static_cast<std::uint64_t>(wave));
  report.param("budget_mb", budget_mb);
  report.param("base", static_cast<std::uint64_t>(params.base));
  report.param("digits", static_cast<std::uint64_t>(params.num_digits));
  report.param("digest", digest.h);
  auto& reg = report.metrics();
  // The heap figures only where the heap was seen.
  if (heap_measured) {
    reg.set_named("scale.bytes_per_node", bytes_per_node);
    reg.set_named("scale.heap_bytes", static_cast<double>(heap_bytes));
    reg.set_named("scale.within_budget", within_budget ? 1.0 : 0.0);
    reg.set_named("scale.baseline_bytes_per_node_10k",
                  kBaselineBytesPerNode10k);
    reg.set_named("scale.improvement_x",
                  kBaselineBytesPerNode10k / bytes_per_node);
  }
  reg.set_named("scale.setup_ms", setup_ms);
  reg.set_named("scale.build_ms", build_ms);
  reg.set_named("scale.settle_wall_ms", settle_wall_ms);
  reg.set_named("scale.settle_sim_ms", settle_sim_ms);
  reg.set_named("scale.maxrss_kb", static_cast<double>(max_rss_kb()));
  // Sharded-execution schema fields (hcstat rejects scale reports without
  // them; tools/hcstat.cpp).
  reg.set_named("scale.shards", static_cast<double>(net.num_lanes()));
  reg.set_named("scale.epoch_ms", net.epoch_ms());
  reg.set_named("scale.wall_ms", wall_ms);
  reg.set_named("scale.peak_rss", static_cast<double>(max_rss_kb()) * 1024.0);
  reg.set_named("scale.epochs", static_cast<double>(net.driver().epochs_run()));
  reg.set_named("scale.cross_shard_messages",
                static_cast<double>(net.cross_shard_messages()));
  write_report(report);

  if (!heap_measured && ceiling != 0) {
    std::fprintf(stderr,
                 "FAIL: --max-bytes-per-node %llu cannot be checked: the "
                 "heap cannot be measured in this build\n",
                 static_cast<unsigned long long>(ceiling));
    return 1;
  }
  if (!within_budget) {
    std::fprintf(stderr, "FAIL: heap %.1f MB exceeds budget %llu MB\n",
                 static_cast<double>(heap_bytes) / (1024.0 * 1024.0),
                 static_cast<unsigned long long>(budget_mb));
    return 1;
  }
  if (!settled) {
    std::fprintf(stderr, "FAIL: join wave did not settle\n");
    return 1;
  }
  if (ceiling != 0 && bytes_per_node > static_cast<double>(ceiling)) {
    std::fprintf(stderr,
                 "FAIL: %.0f bytes/node exceeds ceiling %llu (regression)\n",
                 bytes_per_node, static_cast<unsigned long long>(ceiling));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hcube::bench

int main(int argc, char** argv) { return hcube::bench::main_impl(argc, argv); }
