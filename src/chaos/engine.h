// The deterministic chaos engine: executes a ChurnScript against a fresh
// simulated world and reports every oracle verdict.
//
// The world (core/world.h) is rebuilt per run from the script's config
// alone: a latency model, a ShardedNet (net/sharded_net.h) of
// max(1, config.shards) lanes — each an event queue, a lossy SimTransport
// with an attached FaultPlan (seeded drops/duplicates plus partition
// windows) and a ReliableTransport ARQ decorator healing those faults — and
// an Overlay with the join- and leave-stall watchdogs enabled. Every run,
// one lane included, executes under the net's epoch-barrier driver
// (sim/shard_driver.h), and the digest does not depend on the lane count.
// Every source of nondeterminism is a seeded Rng drawn through the script,
// so a run is a pure function of the script: run_script(s) twice yields
// byte-identical results, including the digest. That is the property
// replay artifacts and the schedule shrinker stand on.
//
// Execution walks the step list once. Non-barrier steps schedule their
// action as a driver action at a monotonically advancing cursor time
// without draining, so the churn between two barriers genuinely overlaps
// (concurrent joins racing a partition window, crashes mid-join, ...). A
// barrier then
//   1. drains the driver (the protocols quiesce by themselves),
//   2. heals: advances simulated time past any open partition window and
//      drains again (the ARQ layer's buffered traffic flows across the
//      former cut),
//   3. repairs: World::repair_all's pull/announce rounds,
//      config.heal_rounds of them (0 disables healing — the
//      deliberately-broken fixture mode that the shrinker tests minimize
//      against),
//   4. runs the invariant oracles (chaos/oracles.h) and records a verdict.
// A final barrier is appended implicitly when the script does not end with
// one, so every run terminates in a checked state.
//
// Open-loop equilibrium mode (rate-window steps): a kRateWindow/kSpike step
// schedules its whole Poisson arrival train (window_arrivals) plus periodic
// health probes, then advances the cursor past the window WITHOUT draining —
// sustained turnover with no quiescence anywhere before the final barrier.
// Each probe samples the overlay's in-flight join backlog (bound-checked
// against config.max_backlog), and runs the relaxed mid-churn consistency
// audit (run_probe_oracles); failing probes record BarrierVerdicts against
// the window's step index. A kSpike window additionally snapshots the
// pre-spike backlog and measures how long after the window closes the
// backlog first returns to that baseline (ChurnHealth::recovery_ms). The
// equilibrium ledger folds into the digest only when the script contains
// rate steps, so every fail-stop schedule's digest is unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chaos/schedule.h"
#include "obs/churn_health.h"
#include "util/metric.h"

namespace hcube {
class Overlay;
}  // namespace hcube

namespace hcube::chaos {

struct BarrierVerdict {
  std::uint32_t step_index = 0;  // index of the barrier in script.steps
                                 // (== steps.size() for the implicit final)
  SimTime at_ms = 0.0;           // simulated time the oracles ran
  std::vector<std::string> failures;
  bool ok() const { return failures.empty(); }
};

// How many of each step kind actually acted vs. no-op'd (a restart with
// nobody crashed, churn at the min_live floor, a one-sided partition cut).
struct StepCounts {
  std::uint32_t joins = 0;
  std::uint32_t leaves = 0;
  std::uint32_t crashes = 0;
  std::uint32_t restarts = 0;
  std::uint32_t partitions = 0;
  std::uint32_t misbehaves = 0;
  std::uint32_t rate_windows = 0;
  std::uint32_t spikes = 0;
  std::uint32_t noops = 0;
};

// Canonical registry names for the end-of-run accounting
// (obs::collect_counters exports them; see ChaosResult::for_each_metric).
HCUBE_METRIC(kMetricChaosEvents, "chaos.events");
HCUBE_METRIC(kMetricChaosMessages, "chaos.messages");
HCUBE_METRIC(kMetricChaosBytes, "chaos.bytes");
HCUBE_METRIC(kMetricChaosFaultsInjected, "chaos.faults_injected");
HCUBE_METRIC(kMetricChaosPartitionDrops, "chaos.partition_drops");
HCUBE_METRIC(kMetricChaosRetransmits, "chaos.retransmits");
HCUBE_METRIC(kMetricChaosGiveUps, "chaos.give_ups");
HCUBE_METRIC(kMetricChaosSettled, "chaos.settled");
HCUBE_METRIC(kMetricChaosDeparted, "chaos.departed");
HCUBE_METRIC(kMetricChaosCrashed, "chaos.crashed");
HCUBE_METRIC(kMetricChaosAbandonedJoins, "chaos.abandoned_joins");
HCUBE_METRIC(kMetricChaosAdversaries, "chaos.adversaries");
HCUBE_METRIC(kMetricChaosAdvIntercepted, "chaos.adv_intercepted");
HCUBE_METRIC(kMetricChaosAdvStaleReplies, "chaos.adv_stale_replies");
HCUBE_METRIC(kMetricChaosAdvSwallowed, "chaos.adv_swallowed");

struct ChaosResult {
  bool ok = true;  // every barrier passed every oracle
  std::vector<BarrierVerdict> barriers;
  StepCounts counts;
  // End-of-run accounting (all deterministic, all folded into the digest).
  std::uint64_t events = 0;           // simulator events executed
  std::uint64_t messages = 0;         // protocol messages sent
  std::uint64_t bytes = 0;            // protocol bytes sent
  std::uint64_t faults_injected = 0;  // drops + duplicates
  std::uint64_t partition_drops = 0;  // messages cut by partition windows
  std::uint64_t retransmits = 0;      // ARQ retransmissions
  std::uint64_t give_ups = 0;         // ARQ retry budgets exhausted
  std::uint64_t settled = 0;          // nodes in_system at the end
  std::uint64_t departed = 0;
  std::uint64_t crashed = 0;
  // Joins abandoned at a barrier after exhausting the watchdog's restart
  // budget (the engine fail-stops them so repair reclaims references).
  std::uint64_t abandoned_joins = 0;
  // Misbehaving-node tier (chaos/adversary.h): nodes marked, and the
  // AdversaryEngine interception counters.
  std::uint64_t adversaries = 0;
  std::uint64_t adv_intercepted = 0;
  std::uint64_t adv_stale_replies = 0;
  std::uint64_t adv_swallowed = 0;
  // Equilibrium-churn ledger: filled only by rate-window steps, and folded
  // into the digest only when the script has any (so fail-stop schedules
  // keep their pinned digests).
  obs::ChurnHealth eq;
  // FNV-1a over every verdict and counter above: two runs of the same
  // script produce the same digest, byte for byte.
  std::uint64_t digest = 0;
  // Lane introspection. Deliberately NOT folded into the digest and NOT
  // exported by for_each_metric: cross_shard_messages depends on the shard
  // count, while the digest and the metrics JSON are invariant across it
  // (the property shard_determinism_test pins). Tests use these to assert
  // a sharded run genuinely exercised the cross-lane path.
  std::uint32_t shards = 1;
  std::uint64_t cross_shard_messages = 0;

  // First failing oracle line, or "" when ok.
  std::string first_failure() const;
  // Multi-line human-readable report.
  std::string summary() const;

  // Exports the end-of-run counters under their canonical registry names,
  // in the order the digest folds them: a counter added here moves every
  // digest pin.
  template <class Fn>
  void for_each_metric(Fn&& fn) const {
    fn(kMetricChaosEvents, events);
    fn(kMetricChaosMessages, messages);
    fn(kMetricChaosBytes, bytes);
    fn(kMetricChaosFaultsInjected, faults_injected);
    fn(kMetricChaosPartitionDrops, partition_drops);
    fn(kMetricChaosRetransmits, retransmits);
    fn(kMetricChaosGiveUps, give_ups);
    fn(kMetricChaosSettled, settled);
    fn(kMetricChaosDeparted, departed);
    fn(kMetricChaosCrashed, crashed);
    fn(kMetricChaosAbandonedJoins, abandoned_joins);
    fn(kMetricChaosAdversaries, adversaries);
    fn(kMetricChaosAdvIntercepted, adv_intercepted);
    fn(kMetricChaosAdvStaleReplies, adv_stale_replies);
    fn(kMetricChaosAdvSwallowed, adv_swallowed);
  }
};

// Observation hook: called with the freshly built overlay before the first
// step runs, so callers can attach observers (obs::JoinSpanTracer, an
// on_message subscriber) to a world the engine otherwise keeps internal.
// Attaching must not perturb the run — the digest of an observed run is
// identical to an unobserved one.
using ObserveOverlay = std::function<void(Overlay& overlay)>;

ChaosResult run_script(const ChurnScript& script,
                       const ObserveOverlay& observe = {});

}  // namespace hcube::chaos
