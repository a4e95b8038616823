// Seeded, reproducible fault injection for transports.
//
// A FaultPlan decides, per message, whether the network drops it,
// duplicates it, or delays it — drawing every decision from one seeded RNG
// so a run is exactly reproducible from (seed, workload). Rules come in
// three precedence tiers: a per-host-pair rule beats a per-message-type
// rule beats the default rule. Every rule can additionally be confined to a
// simulated-time window [active_from_ms, active_until_ms); outside its
// window a rule is skipped during matching and the next tier applies, so a
// "5% loss between t=1000 and t=2000" rule composes with an always-on
// default. attach() installs the plan as a transport's fault_injector (the
// fault seam every Transport carries, net/transport.h) and binds the
// transport's event-queue clock; the transport then consults the plan on
// every send attempt.
//
// On top of the per-message rules the plan models network partitions as a
// first-class primitive: partition() cuts a set of hosts into groups for
// [t0, t1), and while the window is active every message between hosts of
// different groups is dropped (counted separately — a partition is a
// property of the network, not a per-rule fault budget). When the window
// ends the partition heals by itself; with a ReliableTransport layered on
// top, traffic buffered by the ARQ layer then flows across the former cut.
//
// With a ReliableTransport layered on the faulty transport, the protocols
// survive whatever a plan injects (up to the retry budget); used directly
// under a plain transport, a plan demonstrates what the paper's
// reliable-delivery assumption protects against. The counters record what
// was actually injected, so tests can assert the run was genuinely lossy;
// stats() additionally breaks the charges down per rule for choreographed
// fault scripts that must verify each rule actually fired.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "util/rng.h"

namespace hcube {

// Ordered host pair, used as the per-pair rule key. A dedicated struct (not
// a packed 64-bit word) so the map stays collision-free by construction
// even if HostId ever widens; the hash packs both ids into one word and
// pins that assumption with a static_assert right where it is made.
struct HostPair {
  HostId from = kNoHost;
  HostId to = kNoHost;
  bool operator==(const HostPair&) const = default;
};

struct HostPairHash {
  std::size_t operator()(const HostPair& p) const {
    static_assert(sizeof(HostId) * 2 <= sizeof(std::uint64_t),
                  "HostPairHash packs two HostIds into a 64-bit word; widen "
                  "the mix below if HostId outgrows 32 bits");
    std::uint64_t mixed = (static_cast<std::uint64_t>(p.from)
                           << (8 * sizeof(HostId))) |
                          p.to;
    return static_cast<std::size_t>(splitmix64_next(mixed));
  }
};

class FaultPlan {
 public:
  // "No end": a window that never closes.
  static constexpr SimTime kNoEnd = std::numeric_limits<SimTime>::infinity();

  // Fault probabilities for one rule. Drop wins over duplicate; delay is
  // decided independently and also applies to duplicated messages.
  struct Spec {
    double drop = 0.0;       // P(message is lost)
    double duplicate = 0.0;  // P(message is delivered twice)
    double delay = 0.0;      // P(message gets extra_delay_ms added)
    double extra_delay_ms = 0.0;
    // Simulated-time window in which the rule participates in matching.
    // Outside [active_from_ms, active_until_ms) the rule is skipped and the
    // next precedence tier applies.
    SimTime active_from_ms = 0.0;
    SimTime active_until_ms = kNoEnd;
    // Budgets: at most this many faults charged to this rule (UINT64_MAX =
    // unlimited). A budget of K with probability 1.0 hits exactly the first
    // K matching messages — the deterministic fault-choreography tests.
    std::uint64_t max_drops = UINT64_MAX;
    std::uint64_t max_duplicates = UINT64_MAX;
    std::uint64_t max_delays = UINT64_MAX;
    std::uint64_t drops_charged = 0;       // running counts against budgets
    std::uint64_t duplicates_charged = 0;
    std::uint64_t delays_charged = 0;
  };

  // Per-rule view of what was charged, for tests that must verify each rule
  // of a choreographed fault script actually fired.
  struct RuleStats {
    std::string scope;  // "default", "type <name>", "pair <from>-><to>"
    std::uint64_t drops_charged = 0;
    std::uint64_t duplicates_charged = 0;
    std::uint64_t delays_charged = 0;
  };
  struct Stats {
    std::uint64_t drops = 0;       // injected via rules (not partitions)
    std::uint64_t duplicates = 0;
    std::uint64_t delays = 0;
    std::uint64_t partition_drops = 0;
    std::vector<RuleStats> rules;  // default, by-type, by-pair (sorted)
  };

  explicit FaultPlan(std::uint64_t seed) : rng_(seed) {}

  // The one time-window containment rule of the whole plan, shared by rule
  // activation windows and partition windows: half-open [from, until). A
  // rule is active at exactly t == from and inactive at exactly t == until,
  // so back-to-back windows [a, b) + [b, c) compose with neither a gap nor
  // a double-match at the seam. Pinned by fault_plan_test's
  // WindowEdgesAreHalfOpen regression.
  static bool window_contains(SimTime t, SimTime from, SimTime until) {
    return t >= from && t < until;
  }

  // Default rule for messages no per-pair / per-type rule matches.
  void set_default(const Spec& spec) { default_ = spec; }
  // Rule for one message type (matched after per-pair rules).
  void set_for_type(MessageType t, const Spec& spec);
  // Rule for one ordered host pair (highest precedence).
  void set_for_pair(HostId from, HostId to, const Spec& spec);

  // Cuts the listed hosts into groups for simulated time [t0, t1): while
  // the window is active, a message whose endpoints sit in different groups
  // is dropped. Hosts absent from every group are unaffected. Windows may
  // overlap; a message is dropped if any active window separates its
  // endpoints. The partition heals itself when the window closes.
  void partition(const std::vector<std::vector<HostId>>& groups, SimTime t0,
                 SimTime t1);

  // True when some active window separates a and b right now.
  bool partitioned(HostId a, HostId b) const;

  // Installs the plan as the transport's fault_injector, replacing any
  // previous injector, and binds the transport's clock (time-windowed rules
  // and partitions are evaluated against it). The plan must outlive the
  // transport's use of it.
  void attach(Transport& transport);

  // Clock for window evaluation when the plan is driven directly rather
  // than via attach() (tests). Unset, windows see t = 0.
  void bind_clock(const EventQueue& queue) { clock_ = &queue; }

  // Decision procedure; exposed for transports/tests that drive it
  // directly.
  FaultDecision decide(HostId from, HostId to, const Message& msg);

  // What was actually injected.
  std::uint64_t drops_injected() const { return drops_; }
  std::uint64_t duplicates_injected() const { return duplicates_; }
  std::uint64_t delays_injected() const { return delays_; }
  std::uint64_t partition_drops() const { return partition_drops_; }

  // Snapshot of the injection totals plus per-rule charges, in a
  // deterministic order (default rule, then by-type rules in insertion
  // order, then by-pair rules sorted by (from, to)).
  Stats stats() const;

 private:
  struct PartitionWindow {
    SimTime t0 = 0.0;
    SimTime t1 = 0.0;
    std::unordered_map<HostId, std::uint32_t> group;  // host -> group index
  };

  SimTime now() const;
  static bool active(const Spec& spec, SimTime t) {
    return window_contains(t, spec.active_from_ms, spec.active_until_ms);
  }
  FaultDecision apply(Spec& spec);

  Rng rng_;
  Spec default_;
  std::vector<std::pair<MessageType, Spec>> by_type_;
  std::unordered_map<HostPair, Spec, HostPairHash> by_pair_;
  std::vector<PartitionWindow> partitions_;
  const EventQueue* clock_ = nullptr;
  std::uint64_t drops_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t delays_ = 0;
  std::uint64_t partition_drops_ = 0;
};

}  // namespace hcube
