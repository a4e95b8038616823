#include "chaos/engine.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "chaos/adversary.h"
#include "chaos/oracles.h"
#include "core/builder.h"
#include "core/world.h"
#include "net/fault_plan.h"
#include "sim/shard_context.h"
#include "util/check.h"

namespace hcube::chaos {

std::string ChaosResult::first_failure() const {
  for (const BarrierVerdict& b : barriers)
    if (!b.failures.empty()) return b.failures.front();
  return "";
}

std::string ChaosResult::summary() const {
  std::ostringstream out;
  out << "chaos: " << (ok ? "PASS" : "FAIL") << "\n";
  out << "  steps: " << counts.joins << " joins, " << counts.leaves
      << " leaves, " << counts.crashes << " crashes, " << counts.restarts
      << " restarts, " << counts.partitions << " partitions, "
      << counts.misbehaves << " misbehaves, " << counts.rate_windows
      << " rate windows, " << counts.spikes << " spikes, " << counts.noops
      << " no-ops\n";
  out << "  membership: " << settled << " settled, " << departed
      << " departed, " << crashed << " crashed, " << abandoned_joins
      << " abandoned join(s)\n";
  if (eq.probes > 0 || eq.join_arrivals > 0) {
    char rate_buf[32];
    std::snprintf(rate_buf, sizeof rate_buf, "%.4f", eq.completion_rate());
    out << "  equilibrium: " << eq.join_arrivals << " join / "
        << eq.leave_arrivals << " leave arrivals, " << eq.completed
        << " completed (rate " << rate_buf << "), " << eq.abandoned
        << " abandoned, backlog p99 " << eq.backlog.quantile(0.99) << " over "
        << eq.probes << " probes";
    if (eq.recovery_ms >= 0.0)
      out << ", spike recovery " << eq.recovery_ms << "ms";
    out << "\n";
  }
  if (adversaries > 0) {
    out << "  adversary: " << adversaries << " marked, " << adv_intercepted
        << " intercepted, " << adv_stale_replies << " stale replies, "
        << adv_swallowed << " swallowed\n";
  }
  out << "  traffic: " << messages << " messages, " << bytes << " bytes, "
      << events << " events\n";
  out << "  faults: " << faults_injected << " injected, " << partition_drops
      << " partition drops, " << retransmits << " retransmits, " << give_ups
      << " give-ups\n";
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest));
  out << "  digest: " << digest_hex << "\n";
  // Failing verdicts: barrier oracles and (in equilibrium runs) the
  // steady-state probes, both recorded against their step index.
  for (const BarrierVerdict& b : barriers) {
    if (b.ok()) continue;
    out << "  verdict @step " << b.step_index << " (t=" << b.at_ms << "ms):\n";
    for (const std::string& f : b.failures) out << "    " << f << "\n";
  }
  return out.str();
}

namespace {

std::uint64_t mix(std::uint64_t x) { return splitmix64_next(x); }

// FNV-1a accumulator for the run digest.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add_byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) add_byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(const std::string& s) {
    for (char c : s) add_byte(static_cast<unsigned char>(c));
    add_byte(0xff);  // terminator: {"a","b"} != {"ab",""}
  }
};

// The engine runs every script on a ShardedNet of max(1, shards) lanes
// under the epoch-barrier driver (sim/shard_driver.h). One lane runs its
// events in exactly the order a single event queue would, so every fault
// and option works there; the digest is the same for every lane count.
// That rests on three rules enforced here:
//   * every top-level closure of the step walk is exactly one driver
//     action (so event counts and action times do not depend on K),
//   * barrier-phase protocol calls run with every lane clock synchronized
//     to the global last-event time (ShardDriver::drain),
//   * configs whose faults or options read cross-lane state mid-epoch
//     (probabilistic drop/duplicate streams, the degrade tier's backlog
//     reads) run on one lane only (shard_config_error).
class Runner {
 public:
  explicit Runner(const ChurnScript& script)
      : script_(script),
        cfg_(script.config),
        world_(cfg_.params, protocol_options(cfg_),
               make_latency(cfg_, cfg_.n_seed + script.num_join_ids()),
               net_params(cfg_)),
        adversary_(world_.overlay) {
    // One plan per lane, all from the same seed. With more than one lane
    // the probabilities are zero, so no plan draws its RNG and each lane's
    // partition predicate (evaluated against its own clock, which at any
    // send instant reads the global time) decides as one plan would.
    FaultPlan::Spec base;
    base.drop = cfg_.drop;
    base.duplicate = cfg_.duplicate;
    plans_.reserve(world_.net.num_lanes());
    for (std::uint32_t i = 0; i < world_.net.num_lanes(); ++i) {
      plans_.emplace_back(cfg_.fault_seed);
      plans_.back().set_default(base);
      plans_.back().attach(world_.net.lane_transport(i));
    }
    if (cfg_.adv_drop_mask != 0) adversary_.set_drop_mask(cfg_.adv_drop_mask);
  }

  ChaosResult run(const ObserveOverlay& observe) {
    if (observe) observe(world_.overlay);
    seed_world();
    SimTime cursor = 0.0;
    for (std::uint32_t i = 0; i < script_.steps.size(); ++i) {
      const ChurnStep& step = script_.steps[i];
      cursor = std::max(cursor, world_.net.driver().last_event_time()) +
               std::max(0.0, step.gap_ms);
      if (step.kind == StepKind::kBarrier) {
        barrier(i);
        continue;
      }
      if (is_rate_window(step.kind)) {
        // Open-loop: schedule the whole window (arrivals + probes) and move
        // the cursor past it without draining — no quiescence anywhere.
        schedule_rate_window(i, step, cursor);
        cursor += std::max(0.0, step.duration_ms);
        continue;
      }
      world_.net.driver().schedule_action(cursor,
                                          [this, &step] { execute(step); });
    }
    if (script_.steps.empty() ||
        script_.steps.back().kind != StepKind::kBarrier) {
      barrier(static_cast<std::uint32_t>(script_.steps.size()));
    }
    finish();
    return std::move(result_);
  }

 private:
  static ShardedNet::Params net_params(const ChaosConfig& cfg) {
    const std::string why = shard_config_error(cfg);
    HCUBE_CHECK_MSG(why.empty(), why.c_str());
    ShardedNet::Params p;
    p.lanes = std::max(1u, cfg.shards);
    p.rel = ReliabilityConfig{cfg.rto_ms, cfg.backoff, cfg.max_retries};
    return p;
  }

  static ProtocolOptions protocol_options(const ChaosConfig& cfg) {
    ProtocolOptions o;
    o.join_watchdog_ms = cfg.join_watchdog_ms;
    o.join_max_restarts = cfg.join_max_restarts;
    o.leave_watchdog_ms = cfg.leave_watchdog_ms;
    o.leave_max_retries = cfg.leave_max_retries;
    if (cfg.defend != 0) {
      // Misbehaving-peer hardening (core/options.h): ping-validate repair
      // candidates, evict notification-phase peers that never reply (a
      // quarter of the watchdog interval, so several janitor rounds fit in
      // one watchdog attempt), and rotate gateways away from suspects.
      o.validate_repair_candidates = true;
      o.reply_timeout_ms =
          cfg.join_watchdog_ms > 0 ? cfg.join_watchdog_ms / 4.0 : 1000.0;
      o.suspect_aware_rotation = true;
    }
    if (cfg.degrade != 0) {
      // Graceful-degradation tier: watchdog restarts back off with jitter
      // (one RTO base doubling up to 64x) and settled gateways defer
      // copy-requests while the overlay-wide join backlog is above half the
      // configured bound. The jitter stream is seeded from the script's
      // fault seed, so a replay pins it but distinct scripts differ.
      o.join_backoff_base_ms = cfg.rto_ms;
      o.overload_defer_threshold =
          cfg.max_backlog > 0 ? std::max(1u, cfg.max_backlog / 2) : 8;
      o.overload_defer_ms = cfg.rto_ms;
      o.backoff_seed = mix(cfg.fault_seed ^ 0x6a17e2b5c3d4ULL);
    }
    return o;
  }

  // latency_model 0 = the classic synthetic band; 1 = the planet map the
  // adversary/flashcrowd scenario pack runs on.
  static std::unique_ptr<LatencyModel> make_latency(const ChaosConfig& cfg,
                                                    std::uint32_t num_hosts) {
    if (cfg.latency_model == 1)
      return std::make_unique<PlanetLatency>(num_hosts, cfg.latency_seed);
    return std::make_unique<SyntheticLatency>(num_hosts, 5.0, 120.0,
                                              cfg.latency_seed);
  }

  void seed_world() {
    UniqueIdGenerator gen(cfg_.params, cfg_.id_seed);
    std::vector<NodeId> seed_ids;
    seed_ids.reserve(cfg_.n_seed);
    for (std::uint32_t i = 0; i < cfg_.n_seed; ++i)
      seed_ids.push_back(gen.next());
    const std::uint32_t joiners = script_.num_join_ids();
    join_ids_.reserve(joiners);
    for (std::uint32_t i = 0; i < joiners; ++i) join_ids_.push_back(gen.next());
    // finish_install stamps t_begin via env.now(); every lane sits at
    // t = 0 here, so lane 0's clock reads the global time.
    LaneScope scope(&world_.net.lane_queue(0), 0);
    build_consistent_network(world_.overlay, seed_ids);
  }

  // Deterministic victim selection: the step's pick indexes the current
  // candidate set (overlay iteration order is registration order).
  template <typename Pred>
  Node* pick_node(std::uint64_t pick, Pred&& pred) {
    std::vector<Node*> candidates;
    for (const auto& node : world_.overlay.nodes())
      if (pred(*node)) candidates.push_back(node.get());
    if (candidates.empty()) return nullptr;
    return candidates[pick % candidates.size()];
  }

  void execute(const ChurnStep& step) {
    switch (step.kind) {
      case StepKind::kJoin: {
        const NodeId& id = join_ids_[step.id_index];
        Node* gateway = pick_node(step.pick,
                                  [](const Node& n) { return n.is_s_node(); });
        if (world_.overlay.find(id) != nullptr || gateway == nullptr) {
          ++result_.counts.noops;
          return;
        }
        Node& joiner = world_.overlay.add_node(id);
        world_.on_lane_of(joiner, [&] { joiner.start_join(gateway->id()); });
        ++result_.counts.joins;
        return;
      }
      case StepKind::kLeave: {
        Node* victim = churn_victim(step.pick);
        if (victim == nullptr) return;
        world_.on_lane_of(*victim, [&] { victim->start_leave(); });
        ++result_.counts.leaves;
        return;
      }
      case StepKind::kCrash: {
        Node* victim = churn_victim(step.pick);
        if (victim == nullptr) return;
        world_.crash(victim->id());
        ++result_.counts.crashes;
        return;
      }
      case StepKind::kRestart: {
        Node* victim = pick_node(
            step.pick, [](const Node& n) { return n.is_crashed(); });
        Node* gateway = pick_node(mix(step.pick),
                                  [](const Node& n) { return n.is_s_node(); });
        if (victim == nullptr || gateway == nullptr) {
          ++result_.counts.noops;
          return;
        }
        world_.restart(victim->id(), gateway->id());
        ++result_.counts.restarts;
        return;
      }
      case StepKind::kPartition: {
        // Cut the host space in two by a keyed hash; both sides must be
        // non-empty for the cut to mean anything.
        std::vector<std::vector<HostId>> groups(2);
        for (HostId h = 0; h < world_.overlay.size(); ++h)
          groups[mix(step.pick ^ h) & 1].push_back(h);
        if (groups[0].empty() || groups[1].empty()) {
          ++result_.counts.noops;
          return;
        }
        // A driver action: every lane clock reads the action instant.
        const SimTime t0 = world_.now();
        const SimTime t1 = t0 + step.duration_ms;
        // Every lane evaluates the identical pure predicate against its own
        // clock; senders of either side see the cut as one plan would.
        for (FaultPlan& plan : plans_) plan.partition(groups, t0, t1);
        partition_end_ = std::max(partition_end_, t1);
        ++result_.counts.partitions;
        return;
      }
      case StepKind::kMisbehave: {
        // Mark a live settled node misbehaving; id_index carries the profile
        // mask. Picks resolve against the *unmarked* settled population so
        // a script's k-th misbehave step marks a k-th distinct node, and
        // shrunk subsets stay meaningful.
        Node* victim = pick_node(step.pick, [this](const Node& n) {
          return n.is_s_node() && !adversary_.is_marked(n.id());
        });
        bool marked = false;
        if (victim != nullptr) {
          world_.on_lane_of(*victim, [&] {
            marked = adversary_.mark(*victim, step.id_index);
          });
        }
        if (!marked) {
          ++result_.counts.noops;
          return;
        }
        ++result_.counts.misbehaves;
        return;
      }
      case StepKind::kRateWindow:
      case StepKind::kSpike:
        HCUBE_CHECK_MSG(false, "rate windows are scheduled inline by run()");
        return;
      case StepKind::kBarrier:
        HCUBE_CHECK_MSG(false, "barriers are not scheduled as events");
        return;
    }
  }

  // Common guard for leaves and crashes: keep a minimum live population.
  Node* churn_victim(std::uint64_t pick) {
    if (world_.overlay.live_size() <= cfg_.min_live) {
      ++result_.counts.noops;
      return nullptr;
    }
    Node* victim =
        pick_node(pick, [](const Node& n) { return n.is_s_node(); });
    if (victim == nullptr) ++result_.counts.noops;
    return victim;
  }

  // Schedules a rate window's entire Poisson arrival train plus its
  // steady-state health probes at absolute times in [start, start + dur).
  // A spike window additionally snapshots the pre-spike backlog at its
  // opening edge and lays out a fixed series of recovery probes past its
  // close (covering the rest of the script plus a few watchdog periods), so
  // recovery_ms is measured without any self-rescheduling loop.
  void schedule_rate_window(std::uint32_t step_index, const ChurnStep& step,
                            SimTime start) {
    if (step.kind == StepKind::kSpike)
      ++result_.counts.spikes;
    else
      ++result_.counts.rate_windows;
    ShardDriver& driver = world_.net.driver();
    for (const Arrival& a : window_arrivals(step)) {
      driver.schedule_action(start + a.at_ms,
                             [this, &step, a] { execute_arrival(step, a); });
    }
    const double period =
        cfg_.probe_every_ms > 0.0 ? cfg_.probe_every_ms : step.duration_ms;
    if (period <= 0.0) return;  // degenerate (shrunk) window: nothing to do
    for (double t = period; t <= step.duration_ms; t += period)
      driver.schedule_action(start + t,
                             [this, step_index] { probe(step_index); });
    if (step.kind == StepKind::kSpike && !spike_seen_) {
      spike_seen_ = true;
      spike_end_ = start + step.duration_ms;
      driver.schedule_action(start, [this] {
        spike_baseline_backlog_ = world_.overlay.join_backlog();
      });
      double tail = 4.0 * std::max(cfg_.join_watchdog_ms, 1000.0);
      for (std::uint32_t j = step_index + 1;
           j < static_cast<std::uint32_t>(script_.steps.size()); ++j) {
        tail += std::max(0.0, script_.steps[j].gap_ms) +
                std::max(0.0, script_.steps[j].duration_ms);
      }
      const auto n_probes = static_cast<std::uint32_t>(tail / period) + 1;
      for (std::uint32_t k = 1; k <= n_probes; ++k)
        driver.schedule_action(spike_end_ + k * period,
                               [this] { recovery_probe(); });
    }
  }

  void execute_arrival(const ChurnStep& step, const Arrival& a) {
    if (a.is_join) {
      const NodeId& id = join_ids_[step.id_index + a.join_ordinal];
      Node* gateway =
          pick_node(a.pick, [](const Node& n) { return n.is_s_node(); });
      if (world_.overlay.find(id) != nullptr || gateway == nullptr) {
        ++result_.counts.noops;
        return;
      }
      Node& joiner = world_.overlay.add_node(id);
      world_.on_lane_of(joiner, [&] { joiner.start_join(gateway->id()); });
      eq_joiners_.insert(id);
      ++result_.counts.joins;
      ++result_.eq.join_arrivals;
      return;
    }
    Node* victim = churn_victim(a.pick);
    if (victim == nullptr) return;
    world_.on_lane_of(*victim, [&] { victim->start_leave(); });
    ++result_.counts.leaves;
    ++result_.eq.leave_arrivals;
  }

  // One steady-state health probe: sample the in-flight join backlog, bound
  // it against the configured ceiling, and run the relaxed mid-churn
  // consistency audit. Only failing probes produce verdicts. As a driver
  // action this is a mini-barrier: every lane has quiesced up to the probe
  // instant, so the backlog gauge and the audited snapshot are exact.
  void probe(std::uint32_t step_index) {
    ++result_.eq.probes;
    const std::uint32_t backlog = world_.overlay.join_backlog();
    result_.eq.backlog.observe(static_cast<double>(backlog));
    std::vector<std::string> failures;
    if (cfg_.max_backlog > 0 && backlog > cfg_.max_backlog) {
      failures.push_back(
          "equilibrium: in-flight join backlog " + std::to_string(backlog) +
          " exceeds the configured bound " + std::to_string(cfg_.max_backlog));
    }
    for (std::string& f :
         run_probe_oracles(world_.overlay, adversary_.marked()).failures)
      failures.push_back(std::move(f));
    if (failures.empty()) return;
    BarrierVerdict v;
    v.step_index = step_index;
    v.at_ms = world_.now();
    v.failures = std::move(failures);
    result_.ok = false;
    result_.barriers.push_back(std::move(v));
  }

  void recovery_probe() {
    if (recovered_ || world_.overlay.join_backlog() > spike_baseline_backlog_)
      return;
    recovered_ = true;
    result_.eq.recovery_ms = world_.now() - spike_end_;
  }

  void barrier(std::uint32_t step_index) {
    ShardDriver& driver = world_.net.driver();
    world_.drain();
    // Heal: advance simulated time past any open partition window, so the
    // ARQ layer's buffered retransmissions flow across the former cut.
    if (driver.last_event_time() < partition_end_) {
      driver.schedule_action(partition_end_, [] {});
      world_.drain();
    }
    // Abandon joins whose watchdog budget ran out: the process gives up
    // and exits, i.e. fail-stops. Repair then reclaims any pointer other
    // nodes still hold to it (it would keep answering pings otherwise).
    std::vector<std::string> quarantine_failures;
    for (const auto& node : world_.overlay.nodes()) {
      if (is_joining(node->status()) &&
          node->join_stats().watchdog_restarts >= cfg_.join_max_restarts) {
        // Under quarantine, an *honest* join that burned its whole restart
        // budget is a convergence-around-faults failure: the adversary tier
        // must degrade latency, never liveness. Attribution first, though —
        // a joiner whose silent-past-deadline suspects include a node that
        // genuinely fail-stopped can abandon without any adversary's help
        // (the clean-abort contract retry_exhaustion_test pins), so only
        // the abandons crashes cannot explain are charged to the tier.
        if (!adversary_.marked().empty() &&
            !adversary_.is_marked(node->id())) {
          bool crash_explains = false;
          for (const NodeId& s : node->join_suspects()) {
            const Node* peer = world_.overlay.find(s);
            if (peer == nullptr || peer->status() == NodeStatus::kCrashed) {
              crash_explains = true;
              break;
            }
          }
          if (!crash_explains) {
            quarantine_failures.push_back(
                "quarantine: honest join " +
                node->id().to_string(world_.overlay.params()) +
                " exhausted its watchdog restart budget");
          }
        }
        world_.crash(node->id());
        ++result_.abandoned_joins;
        if (eq_joiners_.contains(node->id())) ++result_.eq.abandoned;
      }
    }
    if (cfg_.heal_rounds > 0) world_.repair_all(0.0, cfg_.heal_rounds);
    world_.drain();

    BarrierVerdict verdict;
    verdict.step_index = step_index;
    verdict.at_ms = driver.last_event_time();
    verdict.failures =
        run_oracles(world_.overlay, adversary_.marked()).failures;
    for (std::string& f : quarantine_failures)
      verdict.failures.push_back(std::move(f));
    const std::uint64_t in_flight = world_.net.rel_in_flight();
    if (in_flight != 0) {
      verdict.failures.push_back(
          "transport: " + std::to_string(in_flight) +
          " message(s) still in flight at quiescence");
    }
    if (!verdict.failures.empty()) result_.ok = false;
    result_.barriers.push_back(std::move(verdict));
  }

  void finish() {
    result_.events = world_.net.driver().events_processed();
    result_.messages = world_.overlay.totals().messages;
    result_.bytes = world_.overlay.totals().bytes;
    for (const FaultPlan& plan : plans_) {
      result_.faults_injected += plan.drops_injected() +
                                 plan.duplicates_injected() +
                                 plan.delays_injected();
      result_.partition_drops += plan.partition_drops();
    }
    const ReliabilityStats rel = world_.net.rel_stats();
    result_.retransmits = rel.retransmits;
    result_.give_ups = rel.give_ups;
    for (const auto& node : world_.overlay.nodes()) {
      if (node->is_s_node()) ++result_.settled;
      if (node->has_departed()) ++result_.departed;
      if (node->is_crashed()) ++result_.crashed;
    }
    // Equilibrium ledger: settle the open-loop joiners' fates. Completed
    // means the join protocol finished (t_end set) — under sustained
    // turnover a completed joiner may well have been picked as a later
    // leave arrival's victim, and that departure is not the join's failure.
    // Latency is t_end - t_begin, spanning every watchdog attempt (and any
    // backoff waits between them) — the latency a user of the overlay sees.
    for (const NodeId& id : eq_joiners_) {
      const Node* n = world_.overlay.find(id);
      if (n == nullptr || n->join_stats().t_end < 0.0) continue;
      ++result_.eq.completed;
      result_.eq.join_latency_ms.observe(n->join_stats().t_end -
                                         n->join_stats().t_begin);
    }
    result_.adversaries = adversary_.marked().size();
    const AdversaryEngine::Counters& ac = adversary_.counters();
    result_.adv_intercepted = ac.intercepted;
    result_.adv_stale_replies = ac.stale_replies;
    result_.adv_swallowed = ac.swallowed;
    result_.shards = world_.net.num_lanes();
    result_.cross_shard_messages = world_.net.cross_shard_messages();
    Digest d;
    result_.for_each_metric([&d](const char*, std::uint64_t v) { d.add(v); });
    // Rate-step scripts fold the whole equilibrium trajectory in too; the
    // guard keeps every fail-stop schedule's pinned digest unchanged.
    if (script_.has_rate_steps())
      result_.eq.fold([&d](std::uint64_t v) { d.add(v); });
    for (const BarrierVerdict& b : result_.barriers) {
      d.add(b.step_index);
      d.add(static_cast<std::uint64_t>(b.at_ms * 1000.0));
      for (const std::string& f : b.failures) d.add(f);
    }
    result_.digest = d.h;
  }

  const ChurnScript& script_;
  const ChaosConfig& cfg_;
  World world_;
  // One per lane. Destroyed before world_ although attached to its lane
  // transports (nothing sends during teardown): freed ahead of the lane
  // queue's large heap vector, the plans' many small partition-map nodes
  // are consolidated by the allocator at that free, not in the next
  // world's construction.
  std::vector<FaultPlan> plans_;
  AdversaryEngine adversary_;
  std::vector<NodeId> join_ids_;
  SimTime partition_end_ = 0.0;
  // Equilibrium-mode state: the open-loop joiners (for the completion
  // ledger) and the spike recovery measurement.
  FlatNodeSet eq_joiners_;
  bool spike_seen_ = false;
  bool recovered_ = false;
  SimTime spike_end_ = 0.0;
  std::uint32_t spike_baseline_backlog_ = 0;
  ChaosResult result_;
};

}  // namespace

ChaosResult run_script(const ChurnScript& script,
                       const ObserveOverlay& observe) {
  Runner runner(script);
  return runner.run(observe);
}

}  // namespace hcube::chaos
