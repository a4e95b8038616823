// Messaging-core throughput: messages/sec and allocations/message.
//
// Three raw messaging paths push the same two-endpoint ping-pong workload:
//   sim      — SimTransport: latency-modelled, pooled typed events, hosts
//              pre-resolved (the steady-state send path)
//   loopback — SimTransport over ConstantLatency(n, 0.0): zero latency,
//              pooled typed events
//   reliable — ReliableTransport over the loopback transport: the ARQ
//              decorator on a clean network (acks flow, nothing
//              retransmits); its clean-path overhead must stay
//              allocation-free too
// followed by a protocol-level join wave on a one-lane World over each of
// the sim and loopback latency models.
//
// Allocations are counted by instrumenting global operator new, warming the
// pools first so the steady-state figure is what is reported. The paths
// bump a MetricsRegistry counter on every delivery, so the count covers
// metric updates: registry add() is a pre-interned vector index, not a hash
// or allocation.
//
// The bench is a gate: it exits 1 when any path allocates inside its
// measured window, when the clean reliable path retransmits or suppresses
// a duplicate, or when a join wave ends inconsistent.
//
// Usage: bench_throughput [--messages N] [--warmup N] [--wave-n N]
//                         [--wave-m N] [--quick]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_common.h"
#include "net/reliable_transport.h"
#include "net/sim_transport.h"
#include "obs/collect.h"

// ---------------------------------------------------------------------------
// Allocation instrumentation (single-threaded benches; plain counters).

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// The replacement operator new above allocates with malloc, so free() is
// the matching deallocator; GCC's -Wmismatched-new-delete can't see that
// pairing across the replaced operators.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hcube::bench {
namespace {

HCUBE_METRIC(kMetricDelivered, "tp.delivered");

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One path's measured window.
struct PathResult {
  const char* name;
  std::uint64_t delivered = 0;  // inside the window
  double wall_s = 0.0;
  std::uint64_t allocs = 0;     // inside the window
  double msgs_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(delivered) / wall_s : 0.0;
  }
  double allocs_per_msg() const {
    return delivered > 0 ? static_cast<double>(allocs) /
                               static_cast<double>(delivered)
                         : 0.0;
  }
};

std::array<NodeId, 2> make_ids(const IdParams& params) {
  UniqueIdGenerator gen(params, 42);
  return {gen.next(), gen.next()};
}

PathResult run_pooled(const char* name, Transport& transport,
                      std::uint64_t warmup, std::uint64_t measured,
                      obs::MetricsRegistry& reg) {
  const IdParams params{16, 8};
  const auto ids = make_ids(params);
  EventQueue& queue = transport.queue();
  const std::uint64_t total = warmup + measured;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  // Interned before the measured window opens; the per-delivery add() below
  // is the metric update the allocs/msg figure has to stay at zero with.
  const obs::MetricsRegistry::Id delivered_id = reg.counter(kMetricDelivered);
  for (HostId self : {HostId{0}, HostId{1}}) {
    transport.add_endpoint([&, self](HostId from, const Message&) {
      ++delivered;
      reg.add(delivered_id);
      if (sent < total) {
        ++sent;
        transport.send(self, from, Message{ids[self], PingMsg{}});
      }
    });
  }

  ++sent;
  transport.send(0, 1, Message{ids[0], PingMsg{}});
  queue.run(warmup);
  const std::uint64_t delivered_before = delivered;
  const std::uint64_t allocs_before = g_allocs;
  const auto t0 = Clock::now();
  // Every delivery is one event. The window closes before the last one:
  // it sends no reply, so its slab slot is freed while the other one is
  // still free, and growing the free list to two entries is the stream's
  // one allocation.
  queue.run(measured > 0 ? measured - 1 : 0);
  PathResult r{name};
  r.wall_s = seconds_since(t0);
  r.allocs = g_allocs - allocs_before;
  r.delivered = delivered - delivered_before;
  queue.run();
  return r;
}

void print_path(const PathResult& r) {
  std::printf("  %-24s %12.0f msgs/sec   %8.4f allocs/msg   (%llu delivered, "
              "%llu allocs, %.3fs)%s\n",
              r.name, r.msgs_per_sec(), r.allocs_per_msg(),
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.allocs), r.wall_s,
              r.allocs == 0 ? "" : "  [ALLOCATES]");
}

// Protocol-level comparison: the same join wave over each latency model.
// The sim wave also snapshots the full overlay registry (per-message-type
// send counters, membership gauges, join histograms) into the bench report.
// Returns whether the wave ended consistent with every joiner in system.
bool run_wave(const char* name, std::unique_ptr<LatencyModel> latency,
              std::size_t n, std::size_t m, std::uint64_t seed,
              obs::MetricsRegistry* collect_into) {
  const IdParams params{16, 8};
  World world(params, ProtocolOptions{}, std::move(latency));
  Overlay& overlay = world.overlay;
  Rng rng(seed);
  UniqueIdGenerator gen(params, seed ^ 0x5eed);
  std::vector<NodeId> v, w;
  for (std::size_t i = 0; i < n; ++i) v.push_back(gen.next());
  for (std::size_t i = 0; i < m; ++i) w.push_back(gen.next());
  build_consistent_network(overlay, v);

  const ShardDriver& driver = world.net.driver();
  const std::uint64_t events_before = driver.events_processed();
  const auto t0 = Clock::now();
  join_concurrently(world, w, v, rng, /*window_ms=*/0.0);
  const double wall = seconds_since(t0);
  const std::uint64_t events = driver.events_processed() - events_before;
  const bool consistent = check_consistency(view_of(overlay)).consistent() &&
                          overlay.all_in_system();
  if (collect_into) {
    obs::collect(overlay, *collect_into);
    collect_into->set_named(std::string("wave.") + name + ".msgs_per_sec",
                            wall > 0 ? overlay.totals().messages / wall : 0.0);
  }
  std::printf(
      "  %-10s n=%zu m=%zu: %llu msgs in %.3fs (%.0f msgs/sec, %llu events)%s\n",
      name, n, m, static_cast<unsigned long long>(overlay.totals().messages),
      wall, wall > 0 ? overlay.totals().messages / wall : 0.0,
      static_cast<unsigned long long>(events),
      consistent ? "" : "  [INCONSISTENT]");
  return consistent;
}

int main_impl(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {{"--quick"}, {"--messages", "N"}, {"--warmup", "N"},
                     {"--wave-n", "N"}, {"--wave-m", "N"}});
  // Defaults sized so the measured phase runs long enough (~0.4s+) that
  // scheduler jitter does not swamp the per-path rates; --quick trades
  // precision for CI turnaround.
  const bool quick = flags.present("--quick");
  const std::uint64_t measured = flags.u64("--messages",
                                          quick ? 1'000'000 : 10'000'000);
  const std::uint64_t warmup =
      flags.u64("--warmup", quick ? 100'000 : 200'000);
  const std::size_t wave_n = static_cast<std::size_t>(
      flags.u64("--wave-n", quick ? 256 : 512));
  const std::size_t wave_m = static_cast<std::size_t>(
      flags.u64("--wave-m", quick ? 64 : 128));

  obs::BenchReport report("throughput");
  report.param("quick", static_cast<std::uint64_t>(quick ? 1 : 0));
  report.param("messages", measured);
  report.param("warmup", warmup);
  report.param("wave_n", static_cast<std::uint64_t>(wave_n));
  report.param("wave_m", static_cast<std::uint64_t>(wave_m));
  auto& reg = report.metrics();
  bool ok = true;
  auto record_path = [&reg, &ok](const char* key, const PathResult& r) {
    print_path(r);
    reg.set_named(std::string("tp.") + key + ".msgs_per_sec",
                  r.msgs_per_sec());
    reg.set_named(std::string("tp.") + key + ".allocs_per_msg",
                  r.allocs_per_msg());
    ok = ok && r.allocs == 0;
  };

  std::printf("raw ping-pong (%llu warmup + %llu measured messages):\n",
              static_cast<unsigned long long>(warmup),
              static_cast<unsigned long long>(measured));
  {
    EventQueue queue;
    SyntheticLatency latency(2, 5.0, 120.0, /*seed=*/1);
    SimTransport transport(queue, latency);
    record_path("sim", run_pooled("sim (pooled)", transport, warmup,
                                  measured, reg));
  }
  {
    EventQueue queue;
    ConstantLatency zero(2, 0.0);
    SimTransport transport(queue, zero);
    record_path("loopback", run_pooled("loopback (pooled)", transport,
                                       warmup, measured, reg));
  }
  {
    EventQueue queue;
    ConstantLatency zero(2, 0.0);
    SimTransport inner(queue, zero);
    ReliableTransport transport(inner);
    record_path("reliable", run_pooled("reliable (loopback)", transport,
                                       warmup, measured, reg));
    if (transport.rstats().retransmits != 0 ||
        transport.rstats().dup_suppressed != 0) {
      ok = false;
      std::printf("  [UNEXPECTED] clean loopback saw %llu retransmits, "
                  "%llu dup-suppressed\n",
                  static_cast<unsigned long long>(
                      transport.rstats().retransmits),
                  static_cast<unsigned long long>(
                      transport.rstats().dup_suppressed));
    }
  }

  std::printf("\nprotocol join wave:\n");
  const auto wave_hosts = static_cast<std::uint32_t>(wave_n + wave_m);
  if (!run_wave("sim",
                std::make_unique<SyntheticLatency>(wave_hosts, 5.0, 120.0,
                                                   /*seed=*/7),
                wave_n, wave_m, /*seed=*/7, &reg))
    ok = false;
  if (!run_wave("loopback",
                std::make_unique<ConstantLatency>(wave_hosts, 0.0), wave_n,
                wave_m, /*seed=*/7, nullptr))
    ok = false;
  write_report(report);
  if (!ok) {
    std::fprintf(stderr, "FAIL: see the [ALLOCATES], [UNEXPECTED] or "
                         "[INCONSISTENT] lines above\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hcube::bench

int main(int argc, char** argv) {
  return hcube::bench::main_impl(argc, argv);
}
