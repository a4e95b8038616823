#include "wave.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <malloc.h>
#include <memory>
#include <vector>

#include "core/builder.h"
#include "core/consistency.h"
#include "core/overlay.h"
#include "core/routing.h"
#include "net/sharded_net.h"
#include "replay.h"
#include "sim/shard_context.h"
#include "topology/latency.h"
#include "trace.h"
#include "util/rng.h"

namespace hcube::perfbench {

namespace {

const IdParams kParams{16, 8};
constexpr double kArrivalGapMs = 0.05;
constexpr double kRtoMs = 500.0;
constexpr std::uint32_t kLookups = 200'000;  // per lookup round
constexpr int kLookupRounds = 3;
constexpr int kReplayReps = 3;
// One wave repetition (set-up + wave) per this many seconds of --seconds.
constexpr double kSecondsPerRep = 7.0;
// Where the traced run writes its spans, relative to the checkout root.
constexpr const char* kSpanDir = ".bench_build/results";
// Wall-clock checkpoints at fixed simulated instants (see run_wave).
constexpr double kCheckpointMs = 20.0;
constexpr double kCheckpointHorizonMs = 600'000.0;

// Everything the program is fed, drawn from the workload seed up front.
struct WaveInputs {
  std::uint64_t id_seed = 0;
  std::uint64_t latency_seed = 0;
  std::vector<std::uint32_t> gateway;  // per joiner: index into the n members
  std::vector<std::pair<std::uint32_t, std::uint32_t>> lookups;  // over n + m
};

WaveInputs make_inputs(const Options& o) {
  WaveInputs in;
  Rng rng(o.seed ^ 0x77a7e5eedULL);
  in.id_seed = rng();
  in.latency_seed = rng();
  in.gateway.reserve(o.m);
  for (std::uint32_t i = 0; i < o.m; ++i)
    in.gateway.push_back(static_cast<std::uint32_t>(rng.next_below(o.n)));
  const std::uint64_t members = std::uint64_t{o.n} + o.m;
  in.lookups.reserve(kLookups);
  while (in.lookups.size() < kLookups) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(members));
    const auto b = static_cast<std::uint32_t>(rng.next_below(members));
    if (a != b) in.lookups.emplace_back(a, b);
  }
  return in;
}

// One repetition's stack and network. Member order = destruction order in
// reverse: the overlay goes first, the latency model last.
struct World {
  std::vector<NodeId> v, w;
  std::unique_ptr<SyntheticLatency> latency;
  std::unique_ptr<ShardedNet> net;
  std::unique_ptr<TracingTransport> shim;
  std::unique_ptr<Overlay> overlay;

  double setup_s = 0.0;
  double build_s = 0.0;
  double bytes_per_node = 0.0;
  std::uint64_t reverse_entries = 0;
  std::uint64_t table_bytes = 0;
  std::uint64_t arena_bytes = 0;
};

// Set-up: generate the IDs, build the stack, run the offline builder.
std::unique_ptr<World> build_world(const Options& o, const WaveInputs& in,
                                   std::uint32_t lanes, SpanLog* log,
                                   std::vector<SendRecord>* record) {
  // Hands the previous world's pages back, so every world is built into a
  // fresh heap as the first one is; without this each repetition ran slower
  // than the one before, on the fragmented heap it left.
  malloc_trim(0);
  const auto t0 = Clock::now();
  auto world = std::make_unique<World>();
  UniqueIdGenerator gen(kParams, in.id_seed);
  world->v.reserve(o.n);
  world->w.reserve(o.m);
  for (std::uint32_t i = 0; i < o.n; ++i) world->v.push_back(gen.next());
  for (std::uint32_t i = 0; i < o.m; ++i) world->w.push_back(gen.next());

  const std::uint64_t heap0 = heap_in_use();
  world->latency = std::make_unique<SyntheticLatency>(o.n + o.m, 5.0, 120.0,
                                                     in.latency_seed);
  ShardedNet::Params params;
  params.lanes = lanes;
  params.rel.rto_ms = kRtoMs;
  world->net = std::make_unique<ShardedNet>(params, *world->latency);
  Transport* transport = &world->net->transport();
  if (log != nullptr) {
    world->shim =
        std::make_unique<TracingTransport>(*transport, *log, record);
    transport = world->shim.get();
  }
  world->overlay =
      std::make_unique<Overlay>(kParams, ProtocolOptions{}, *transport);
  const auto tb = Clock::now();
  {
    // finish_install stamps t_begin via env.now(); lanes all sit at t = 0.
    LaneScope scope(&world->net->lane_queue(0), 0);
    const std::uint32_t span = log ? log->begin(SpanKind::kBuild) : 0;
    build_consistent_network(*world->overlay, world->v);
    if (log) log->end(span);
  }
  world->build_s = seconds_since(tb);
  world->setup_s = seconds_since(t0);
  const std::uint64_t heap1 = heap_in_use();
  world->bytes_per_node =
      heap1 > heap0 ? static_cast<double>(heap1 - heap0) / o.n : 0.0;
  for (const auto& node : world->overlay->nodes()) {
    world->reverse_entries += node->table().reverse_neighbors().size();
    world->table_bytes += node->table().bytes_used();
  }
  world->arena_bytes = world->overlay->table_arena().bytes_used();
  return world;
}

// Every repetition of a wave runs the same events between the same two
// checkpoints, so a checkpoint interval's wall time can be compared across
// repetitions. A chain of no-op driver actions, one every kCheckpointMs of
// simulated time, stamps the wall clock until the arrivals are over and
// nothing is in flight.
class CheckpointChain {
 public:
  CheckpointChain(ShardedNet& net, SimTime last_arrival)
      : net_(net), last_arrival_(last_arrival) {}
  void arm(SimTime t) {
    net_.driver().schedule_action(t, [this, t] { fire(t); });
  }
  const std::vector<Clock::time_point>& stamps() const { return stamps_; }

 private:
  void fire(SimTime t) {
    stamps_.push_back(Clock::now());
    if (t < kCheckpointHorizonMs &&
        (t <= last_arrival_ || net_.rel_in_flight() > 0))
      arm(t + kCheckpointMs);
  }
  ShardedNet& net_;
  SimTime last_arrival_;
  std::vector<Clock::time_point> stamps_;
};

struct WaveTiming {
  double wall_s = 0.0;            // drain() as a whole
  std::vector<double> interval_s;  // between consecutive checkpoints
};

// The wave: m driver actions, then drain.
WaveTiming run_wave(World& world, const WaveInputs& in, SpanLog* log,
                    bool drop_join_message) {
  Overlay& overlay = *world.overlay;
  ShardedNet& net = *world.net;
  if (drop_join_message) {
    // Loses one JoinNotiMsg above the reliable layer, so no retransmission
    // repairs it: that joiner can never finish.
    auto dropped = std::make_shared<std::atomic<bool>>(false);
    overlay.set_drop_filter(
        [dropped](const NodeId&, const NodeId&, const MessageBody& body) {
          return type_of(body) == MessageType::kJoinNoti &&
                 !dropped->exchange(true);
        });
  }
  for (std::size_t i = 0; i < world.w.size(); ++i) {
    const NodeId id = world.w[i];
    const NodeId gw = world.v[in.gateway[i]];
    net.driver().schedule_action(
        kArrivalGapMs * static_cast<double>(i + 1),
        [&overlay, &net, log, id, gw] {
          const std::uint32_t span = log ? log->begin(SpanKind::kAction) : 0;
          Node& joiner = overlay.add_node(id);
          const std::uint32_t lane = net.lane_of_host(overlay.host_of(id));
          LaneScope scope(&net.lane_queue(lane), lane);
          joiner.start_join(gw);
          if (log) log->end(span);
        });
  }
  CheckpointChain chain(
      net, kArrivalGapMs * static_cast<double>(world.w.size()));
  chain.arm(kCheckpointMs);
  const auto t0 = Clock::now();
  net.driver().drain();
  const auto t1 = Clock::now();

  const auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  WaveTiming timing;
  timing.wall_s = seconds(t0, t1);
  Clock::time_point prev = t0;
  for (const Clock::time_point t : chain.stamps()) {
    timing.interval_s.push_back(seconds(prev, t));
    prev = t;
  }
  timing.interval_s.push_back(seconds(prev, t1));
  return timing;
}

// Wave wall time with the noise of a shared machine filtered out: the sum
// over checkpoint intervals of each interval's fastest repetition.
// Interference only ever adds time, and it comes in bursts shorter than a
// wave, so the fastest copy of each interval is the undisturbed cost.
double fastest_intervals_s(const std::vector<WaveTiming>& reps) {
  double sum = 0.0;
  for (std::size_t i = 0; i < reps.front().interval_s.size(); ++i) {
    double best = reps.front().interval_s[i];
    for (const WaveTiming& r : reps) best = std::min(best, r.interval_s[i]);
    sum += best;
  }
  return sum;
}

// FNV-1a over the wave's observable outcome; a pure function of the inputs
// for every K (DESIGN.md §16), so join-wave and join-wave-sharded agree.
std::uint64_t wave_digest(World& world) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<unsigned char>(v >> (8 * i));
      h *= 0x100000001b3ULL;
    }
  };
  const Overlay::Totals totals = world.overlay->totals();
  add(world.v.size());
  add(world.w.size());
  add(world.net->driver().events_processed());
  add(totals.messages);
  add(totals.bytes);
  add(static_cast<std::uint64_t>(world.net->driver().last_event_time() *
                                 1000.0));
  add(world.overlay->all_in_system() ? 1 : 0);
  add(world.net->rel_in_flight());
  return h;
}

struct WaveOutcome {
  WaveTiming timing;
  std::uint64_t digest = 0;
  std::vector<double> join_ms;  // t_end - t_begin of every completed join
  std::uint64_t completed = 0;
  std::uint64_t copy_wait_max = 0;
  double noti_mean = 0.0;
};

// Runs the wave on a built world and applies the per-wave output checks.
WaveOutcome wave_and_check(const Options& o, World& world,
                           const WaveInputs& in, SpanLog* log, Report& report) {
  WaveOutcome out;
  out.timing = run_wave(world, in, log, o.drop_join_message);
  out.digest = wave_digest(world);
  std::uint64_t noti = 0;
  for (const NodeId& id : world.w) {
    const Node& node = world.overlay->at(id);
    const JoinStats& s = node.join_stats();
    out.copy_wait_max = std::max(out.copy_wait_max, s.copy_plus_wait());
    noti += s.sent_of(MessageType::kJoinNoti);
    if (!node.is_s_node()) continue;
    ++out.completed;
    out.join_ms.push_back(s.t_end - s.t_begin);
  }
  out.noti_mean = static_cast<double>(noti) / static_cast<double>(o.m);
  report.add_attempted(o.m);
  report.add_failed(o.m - out.completed);
  report.check(world.overlay->all_in_system(), "all_in_system after the wave");
  report.check(out.copy_wait_max <= kParams.num_digits + 1,
               "Theorem 3: #CpRst + #JoinWait <= d+1 for every joiner");
  report.check(world.net->rel_in_flight() == 0, "rel.in_flight_end == 0");
  return out;
}

void set_layer_counters(const Options& o, World& world,
                        const WaveOutcome& wave, Report& report) {
  ShardedNet& net = *world.net;
  const Overlay::Totals totals = world.overlay->totals();
  std::uint64_t delivered = 0, wire = 0;
  for (std::uint32_t i = 0; i < net.num_lanes(); ++i) {
    delivered += net.lane_transport(i).messages_delivered();
    wire += net.lane_transport(i).messages_sent();
  }
  // The driver counts the benchmark's checkpoint actions; leave them out.
  const double checkpoints =
      static_cast<double>(wave.timing.interval_s.size() - 1);
  const double events =
      static_cast<double>(net.driver().events_processed()) - checkpoints;
  const double actions =
      static_cast<double>(net.driver().actions_executed()) - checkpoints;
  const double epochs = static_cast<double>(net.driver().epochs_run());
  const double msgs = static_cast<double>(totals.messages);
  report.set("builder.build_s", world.build_s);
  report.set("builder.reverse_entries", world.reverse_entries);
  report.set("builder.table_bytes", world.table_bytes);
  report.set("builder.arena_bytes", world.arena_bytes);
  report.set("core.sizeof_node", sizeof(Node));
  report.set("sim.events", events);
  report.set("sim.events_per_msg", msgs > 0 ? events / msgs : 0.0);
  report.set("sim.actions", actions);
  report.set("sim.epochs", epochs);
  report.set("sim.events_per_epoch", epochs > 0 ? events / epochs : 0.0);
  report.set("sim.timer_events",
             events - static_cast<double>(delivered) - actions);
  report.set("sim.cross_shard_msgs", net.cross_shard_messages());
  report.set("net.wire_msgs", wire);
  const ReliabilityStats rel = net.rel_stats();
  report.set("rel.tracked_sent", rel.tracked_sent);
  report.set("rel.acks_sent", rel.acks_sent);
  report.set("rel.acks_per_msg",
             rel.tracked_sent ? static_cast<double>(rel.acks_sent) /
                                    static_cast<double>(rel.tracked_sent)
                              : 0.0);
  report.set("rel.retransmits", rel.retransmits);
  report.set("rel.dup_suppressed", rel.dup_suppressed);
  report.set("rel.wasted_retx_ratio",
             rel.retransmits ? static_cast<double>(rel.dup_suppressed) /
                                   static_cast<double>(rel.retransmits)
                             : 0.0);
  report.set("rel.give_ups", rel.give_ups);
  report.set("rel.in_flight_end", net.rel_in_flight());
  report.set("proto.msgs", msgs);
  report.set("proto.bytes", totals.bytes);
  report.set("proto.msgs_per_join", msgs / o.m);
  report.set("proto.bytes_per_msg",
             msgs > 0 ? static_cast<double>(totals.bytes) / msgs : 0.0);
  for (std::size_t t = 0; t < kNumMessageTypes; ++t)
    report.set(std::string("proto.sent.") +
                   type_name(static_cast<MessageType>(t)),
               totals.sent[t]);
  report.set("core.copy_wait_max", wave.copy_wait_max);
  report.set("core.noti_mean", wave.noti_mean);
}

// One closed-loop round on one thread over the settled network: routes
// every input pair once. Returns its wall seconds.
double lookup_round(const std::vector<NodeId>& members, const WaveInputs& in,
                    const NetworkView& view, SpanLog* log, Report& report,
                    double* hops_mean) {
  std::uint64_t failed = 0, hops = 0;
  const auto t0 = Clock::now();
  for (const auto& [a, b] : in.lookups) {
    const std::uint32_t span = log ? log->begin(SpanKind::kLookup) : 0;
    const RouteResult res = route(view, members[a], members[b]);
    if (log) log->end(span);
    failed += res.success ? 0 : 1;
    hops += res.hops();
  }
  const double wall = seconds_since(t0);
  *hops_mean = static_cast<double>(hops) / in.lookups.size();
  report.add_attempted(in.lookups.size());
  report.add_failed(failed);
  report.check(failed == 0, "every lookup succeeds");
  return wall;
}

// The lookup phase (one traced round first when `log` is set), then the
// Definition 3.8 audit of the settled network, outside every timed region.
void lookups_and_audit(World& world, const WaveInputs& in, SpanLog* log,
                       Report& report) {
  const NetworkView view = view_of(*world.overlay);
  std::vector<NodeId> members = world.v;
  members.insert(members.end(), world.w.begin(), world.w.end());
  double hops_mean = 0.0;
  if (log != nullptr) {
    const std::size_t from = log->spans().size();
    lookup_round(members, in, view, log, report, &hops_mean);
    report.set("trace.route_s", log->self_seconds(from)[static_cast<
                                    std::size_t>(SpanKind::kLookup)]);
  }
  std::vector<double> rounds;
  for (int r = 0; r < kLookupRounds; ++r)
    rounds.push_back(lookup_round(members, in, view, nullptr, report,
                                  &hops_mean));
  const double per_round = median(rounds);
  report.set("route.lookups", static_cast<double>(in.lookups.size()));
  report.set("route.lookups_per_s", in.lookups.size() / per_round);
  report.set("route.ns_per_lookup", per_round * 1e9 / in.lookups.size());
  report.set("route.hops_mean", hops_mean);

  const auto t0 = Clock::now();
  const ConsistencyReport c = check_consistency(view);
  std::printf("consistency: %llu entries audited in %.2f s\n",
              static_cast<unsigned long long>(c.entries_checked),
              seconds_since(t0));
  report.check(c.consistent(),
               "Definition 3.8: settled network is consistent");
}

// ---- untraced runs: the end-to-end metrics ----

void run_untraced(const Options& o, const WaveInputs& in, std::uint32_t lanes,
                  bool closed_loop_lookups, Report& report) {
  const std::uint32_t reps = repetitions(o.seconds, kSecondsPerRep);
  std::vector<double> setup, bytes;
  std::vector<WaveTiming> timings;
  std::unique_ptr<World> world;
  WaveOutcome wave;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    world.reset();
    world = build_world(o, in, lanes, nullptr, nullptr);
    setup.push_back(world->setup_s);
    bytes.push_back(world->bytes_per_node);
    const std::uint64_t prev_digest = wave.digest;
    wave = wave_and_check(o, *world, in, nullptr, report);
    timings.push_back(wave.timing);
    std::printf("rep %u: setup %.3f s (build %.3f s), wave %.3f s, digest "
                "%016llx\n",
                rep, world->setup_s, world->build_s, wave.timing.wall_s,
                static_cast<unsigned long long>(wave.digest));
    if (rep > 0) {
      report.check(wave.digest == prev_digest,
                   "wave digest identical across repetitions");
      report.check(wave.timing.interval_s.size() ==
                       timings.front().interval_s.size(),
                   "same checkpoints in every repetition");
    }
  }
  std::printf("digest %016llx\n", static_cast<unsigned long long>(wave.digest));

  // Set-up, like the wave, takes its fastest repetition: interference only
  // ever adds time.
  report.set("setup_s", *std::min_element(setup.begin(), setup.end()));
  const double wave_s = fastest_intervals_s(timings);
  std::printf("wave %.3f s (fastest of %u reps per checkpoint interval)\n",
              wave_s, reps);
  report.set("joins_per_s", o.m / wave_s);
  report.set("join_p50_ms", quantile(wave.join_ms, 0.50));
  report.set("join_p99_ms", quantile(wave.join_ms, 0.99));
  report.set("join_ok_ratio", static_cast<double>(wave.completed) / o.m);
  report.set("bytes_per_node", median(bytes));
  set_layer_counters(o, *world, wave, report);

  if (closed_loop_lookups) lookups_and_audit(*world, in, nullptr, report);
  world.reset();
  report.set("peak_rss_mb", peak_rss_mb());
}

// ---- traced run: attribution per layer ----

void run_traced(const Options& o, const WaveInputs& in, Report& report) {
  // Untraced baseline on the same inputs, for the overhead figure.
  double untraced_wave_s = 0.0;
  {
    std::unique_ptr<World> world = build_world(o, in, 1, nullptr, nullptr);
    untraced_wave_s =
        wave_and_check(o, *world, in, nullptr, report).timing.wall_s;
  }
  SpanLog log;
  std::vector<SendRecord> sends;
  std::unique_ptr<World> world = build_world(o, in, 1, &log, &sends);
  const std::size_t wave_from = log.spans().size();
  const WaveOutcome wave = wave_and_check(o, *world, in, &log, report);
  const std::vector<double> self = log.self_seconds(wave_from);
  const auto self_of = [&self](SpanKind k) {
    return self[static_cast<std::size_t>(k)];
  };
  const double wave_s = wave.timing.wall_s;
  report.set("trace.wave_s", wave_s);
  report.set("trace.handler_self_s", self_of(SpanKind::kHandler));
  report.set("trace.send_s", self_of(SpanKind::kSend));
  report.set("trace.action_s", self_of(SpanKind::kAction));
  report.set("trace.queue_s", wave_s - log.top_level_seconds(wave_from));
  report.set("trace.build_s", log.self_seconds()[static_cast<std::size_t>(
                                  SpanKind::kBuild)]);
  report.set("trace.overhead_s", wave_s - untraced_wave_s);
  set_layer_counters(o, *world, wave, report);
  lookups_and_audit(*world, in, &log, report);
  report.set("trace.spans", static_cast<double>(log.spans().size()));
  const std::string span_path = std::string(kSpanDir) + "/join-wave.spans";
  std::error_code ec;
  std::filesystem::create_directories(kSpanDir, ec);
  if (!log.write(span_path))
    std::fprintf(stderr, "perfbench: could not write %s\n", span_path.c_str());
  world.reset();

  // Layered replay of the traced wave's send sequence.
  SyntheticLatency latency(o.n + o.m, 5.0, 120.0, in.latency_seed);
  const ReplayCost cost = replay_layers(sends, latency, kReplayReps);
  report.set("layer.replay_msgs", static_cast<double>(sends.size()));
  report.set("layer.queue_ns_per_msg", cost.queue_ns);
  report.set("layer.sim_ns_per_msg", cost.sim_ns);
  report.set("layer.reliable_ns_per_msg", cost.reliable_ns);
}

// Sharded counters come from a K-lane rep; the speed-up against K = 1 is
// measured on the same inputs in the same run.
void run_sharded_layers(const Options& o, const WaveInputs& in,
                        std::uint32_t lanes, Report& report) {
  double k1_wave_s = 0.0;
  {
    std::unique_ptr<World> world = build_world(o, in, 1, nullptr, nullptr);
    k1_wave_s = wave_and_check(o, *world, in, nullptr, report).timing.wall_s;
  }
  std::unique_ptr<World> world = build_world(o, in, lanes, nullptr, nullptr);
  const WaveOutcome wave = wave_and_check(o, *world, in, nullptr, report);
  std::printf("digest %016llx\n", static_cast<unsigned long long>(wave.digest));
  set_layer_counters(o, *world, wave, report);
  report.set("sim.sharded_speedup", k1_wave_s / wave.timing.wall_s);
}

}  // namespace

void run_join_wave(const Options& opts, std::uint32_t lanes,
                   bool closed_loop_lookups, Report& report) {
  const WaveInputs in = make_inputs(opts);
  if (!opts.trace)
    run_untraced(opts, in, lanes, closed_loop_lookups, report);
  else if (closed_loop_lookups)
    run_traced(opts, in, report);
  else
    run_sharded_layers(opts, in, lanes, report);
}

}  // namespace hcube::perfbench
