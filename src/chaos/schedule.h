// Churn schedules for the deterministic chaos engine.
//
// A ChurnScript is the complete, self-contained description of one chaos
// run: the world configuration (ID-space shape, seed-network size, fault
// probabilities, ARQ and watchdog knobs, RNG seeds) plus an ordered list of
// churn steps (joins, graceful leaves, crashes, restarts, partition
// windows, oracle barriers). Everything an execution does is a pure
// function of the script — no wall clock, no global RNG — which is what
// makes replay exact and schedule shrinking sound: any subset of the steps
// is itself an executable script.
//
// Two design rules keep subsets executable:
//   * A step names its victim by a sampled 64-bit `pick`, resolved against
//     the network state at execution time (pick % candidates). Removing an
//     earlier step changes the candidate set, not the step's validity.
//   * A step whose action is impossible at execution time (no crashed node
//     to restart, the live-node floor reached) executes as a no-op rather
//     than an error.
// Join identities are pre-bound (`id_index` into the script's ID pool), so
// the same step always joins the same NodeId regardless of which other
// steps survived shrinking.
//
// Scripts serialize to a line-oriented text form (serialize / parse) used
// as the replay artifact emitted by tools/hchaos and uploaded by CI when a
// seed sweep fails.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ids/node_id.h"
#include "sim/event_queue.h"

namespace hcube::chaos {

enum class StepKind : std::uint8_t {
  kJoin,       // add a node (id_index into the ID pool), join via a random
               // live S-node gateway
  kLeave,      // a random live S-node departs gracefully
  kCrash,      // a random live S-node fail-stops
  kRestart,    // a random crashed node rejoins via a random live S-node
  kPartition,  // cut the hosts into two groups for duration_ms
  kMisbehave,  // mark a live honest S-node misbehaving: id_index is the
               // AdversaryEngine profile mask (stale table | reply dropper)
  kBarrier,    // quiesce, heal, repair, then run the invariant oracles

  // ---- equilibrium-churn tier (open-loop rate windows) ----
  // Appended after kBarrier so pre-equilibrium artifacts keep their kind
  // tokens; the parser dispatches on the token, and rate-window step lines
  // carry two extra trailing fields (rate_join, rate_leave).
  kRateWindow,  // open-loop window: seeded Poisson join/leave arrivals at
                // rate_join/rate_leave events per second for duration_ms,
                // with no quiescence barrier. id_index is the base into the
                // join-ID pool, pick seeds the window-local arrival stream.
  kSpike,       // same mechanics as kRateWindow, but flagged as a rate
                // spike: the engine snapshots the pre-spike backlog and
                // measures recovery time after the window closes.
};
inline constexpr std::size_t kNumStepKinds = 9;

inline bool is_rate_window(StepKind k) {
  return k == StepKind::kRateWindow || k == StepKind::kSpike;
}

const char* to_string(StepKind k);
std::optional<StepKind> step_kind_from(std::string_view token);

struct ChurnStep {
  StepKind kind = StepKind::kBarrier;
  SimTime gap_ms = 0.0;       // delay after the previous step's action time
  std::uint32_t id_index = 0; // kJoin: which pool ID joins
                              // kMisbehave: adversary profile mask
                              // rate windows: base index into the ID pool
  std::uint64_t pick = 0;     // deterministic victim/gateway/cut selector
                              // rate windows: arrival-stream seed
  SimTime duration_ms = 0.0;  // kPartition / rate windows: window length
  // Rate windows only (serialized as trailing fields on those step lines):
  // Poisson arrival rates in events per second.
  double rate_join = 0.0;
  double rate_leave = 0.0;
};

// One arrival of a rate window, at an offset from the window's start time.
// Joins bind the pool ID join_ordinal slots past the window's id_index;
// pick selects the gateway (joins) or victim (leaves) at execution time,
// exactly like the point-step rules above.
struct Arrival {
  SimTime at_ms = 0.0;
  bool is_join = false;
  std::uint32_t join_ordinal = 0;
  std::uint64_t pick = 0;
};

// The merged Poisson arrival process of one rate window — a pure function
// of the step alone (the stream is seeded from step.pick), so dropping or
// reordering *other* steps during shrinking never perturbs this window's
// arrivals. Returns an empty vector for non-rate steps or zero rates.
std::vector<Arrival> window_arrivals(const ChurnStep& step);

// Number of join arrivals window_arrivals(step) yields (0 for non-rate
// steps): the step consumes pool IDs [id_index, id_index + count).
std::uint32_t window_join_count(const ChurnStep& step);

// World configuration of a run. Every field is serialized with the script,
// so a replay rebuilds the identical world.
struct ChaosConfig {
  IdParams params;                   // ID-space shape (b, d)
  std::uint32_t n_seed = 24;         // size of the direct-built seed network
  std::uint64_t id_seed = 1;         // ID-pool generator seed
  std::uint64_t latency_seed = 42;   // SyntheticLatency seed
  std::uint64_t fault_seed = 7;      // FaultPlan RNG seed
  double drop = 0.02;                // FaultPlan drop probability
  double duplicate = 0.01;           // FaultPlan duplication probability
  double rto_ms = 100.0;             // ARQ initial retransmission timeout
  double backoff = 2.0;              // ARQ RTO multiplier
  std::uint32_t max_retries = 8;     // ARQ retransmissions before give-up
  double join_watchdog_ms = 4000.0;  // join-stall watchdog period
  std::uint32_t join_max_restarts = 8;
  double leave_watchdog_ms = 2000.0; // leave-stall watchdog period
  std::uint32_t leave_max_retries = 4;
  std::uint32_t heal_rounds = 2;     // World::repair_all rounds per barrier
  std::uint32_t min_live = 4;        // leave/crash no-op below this floor

  // ---- misbehaving-node tier (chaos/adversary.h) ----
  // Parser-optional keys with these defaults, so every pre-adversary
  // artifact still parses (and an adversary-free script serializes to a
  // superset of the old form).
  //
  // defend != 0 turns on the defensive-hardening ProtocolOptions
  // (validate_repair_candidates, the reply janitor, suspect-aware gateway
  // rotation; see DESIGN.md §14) for every node in the run.
  std::uint32_t defend = 0;
  // kReplyDropper's swallowed inbound type mask; 0 means
  // AdversaryEngine::kDefaultDropMask.
  std::uint32_t adv_drop_mask = 0;
  // Which LatencyModel the runner builds: 0 = SyntheticLatency (uniform
  // i.i.d., the original), 1 = PlanetLatency (region-clustered
  // measured-RTT-style map, topology/latency.h).
  std::uint32_t latency_model = 0;

  // ---- equilibrium-churn tier (parser-optional keys, same compatibility
  // ---- contract as the adversary block above) ----
  // degrade != 0 turns on the graceful-degradation ProtocolOptions for
  // every node: jittered exponential backoff on watchdog join restarts and
  // gateway-side admission deferral under backlog (see core/options.h and
  // the engine's protocol_options mapping).
  std::uint32_t degrade = 0;
  // Steady-state backlog oracle: a probe observing more than this many
  // in-flight joins is an equilibrium failure. 0 = unchecked.
  std::uint32_t max_backlog = 0;
  // Period of the steady-state health probes scheduled across every rate
  // window (backlog sample + bound check + relaxed consistency audit over
  // the settled snapshot). 0 disables probing.
  double probe_every_ms = 0.0;

  // ---- sharded execution (parser-optional key, same compatibility
  // ---- contract) ----
  // Number of simulator lanes the run executes on (0 counts as 1). Every
  // run drives a ShardedNet under the epoch/barrier scheme
  // (sim/shard_driver.h); one lane runs its events in exactly the order a
  // single event queue would, so every fault and option works there. More
  // lanes partition the hosts across per-lane event queues; the digest is
  // invariant across lane counts, but such runs require drop = dup = 0 and
  // degrade = 0 (see shard_config_error).
  std::uint32_t shards = 1;
};

// Why `config` cannot run on its lanes, or "" when it can. `shards` is at
// most kMaxShardLanes, and more than one lane requires drop = dup = 0 and
// degrade = 0: a probabilistic fault stream draws one RNG in
// event-execution order and the degrade tier reads the overlay-wide join
// backlog mid-epoch, neither of which has one order across lanes.
// ChurnScript::parse rejects such a config and the engine refuses to run
// one.
std::string shard_config_error(const ChaosConfig& config);

struct ChurnScript {
  ChaosConfig config;
  std::vector<ChurnStep> steps;

  // Size of the join-ID pool the script needs: 1 + the largest id_index
  // over its join steps, and past the end of every rate window's join
  // allotment (0 when it has neither).
  std::uint32_t num_join_ids() const;

  // True when any step is a rate window (the script runs the open-loop
  // equilibrium regime somewhere). The engine folds the equilibrium
  // counters into the digest only for such scripts, so fail-stop digests
  // stay pinned.
  bool has_rate_steps() const;

  std::string serialize() const;
  // Parses serialize() output. On failure returns nullopt and, when `error`
  // is non-null, stores a one-line reason.
  static std::optional<ChurnScript> parse(const std::string& text,
                                          std::string* error = nullptr);
};

// A named step mix the sampler draws from.
struct ChurnProfile {
  const char* name;
  // Relative step-kind weights (joins, leaves, crashes, restarts,
  // partition windows, misbehave markings) in enum order.
  std::uint32_t w_join = 1;
  std::uint32_t w_leave = 0;
  std::uint32_t w_crash = 0;
  std::uint32_t w_restart = 0;
  std::uint32_t w_partition = 0;
  std::uint32_t w_misbehave = 0;
  double mean_gap_ms = 30.0;        // exponential inter-step gap
  double partition_ms = 1200.0;     // partition window length
  std::uint32_t barrier_every = 12; // oracle barrier after this many steps
  ChaosConfig config;
};

// Built-in profiles: "mixed" (all churn kinds, light loss), "partition"
// (partition-heavy), "adversary" (mixed churn plus misbehave markings with
// the defensive hardening on, planet latency), and "flashcrowd" (pure join
// flood onto a tiny seed overlay — steps=4·n_seed gives the m ≫ n regime —
// planet latency). Pointers stay valid for the program lifetime.
const std::vector<ChurnProfile>& profiles();
const ChurnProfile* find_profile(std::string_view name);

// Samples a script of `num_steps` churn steps (plus interleaved barriers)
// from (seed, profile). Identical inputs yield the identical script.
ChurnScript sample_script(std::uint64_t seed, const ChurnProfile& profile,
                          std::uint32_t num_steps);

// Shape of an open-loop equilibrium run: a linear rate ramp, a steady
// phase, an optional rate spike, and (after a spike) steady recovery
// windows, all back to back with no interior barriers. One final kBarrier
// closes the script — that is the drain where the strict oracles and the
// zero-leaked-state audit run; in between, only the periodic probes watch.
struct EquilibriumSpec {
  double rate_join = 10.0;           // steady-state joins per second
  double rate_leave = 5.0;           // steady-state leaves per second
  SimTime window_ms = 1000.0;        // length of each rate window
  std::uint32_t ramp_windows = 2;    // linear ramp up to the steady rates
  std::uint32_t steady_windows = 4;
  double spike_mult = 0.0;           // > 1: one kSpike window at this
                                     // multiple of the steady rates
  std::uint32_t recovery_windows = 2;  // steady windows after the spike
  ChaosConfig config;                // world; degrade / max_backlog /
                                     // probe_every_ms ride here
};

// Samples an equilibrium script from (seed, spec): world seeds derive from
// the run seed exactly like sample_script, every window gets its own
// arrival-stream seed, and join-ID bases are assigned cumulatively so each
// window owns a disjoint slice of the pool. When spec.config.probe_every_ms
// is 0 a default of window_ms / 4 is used, and when spec.config.max_backlog
// is 0 a generous runaway bound (8x the expected arrivals per window + 16)
// is installed — the steady-state oracles are the point of the regime.
ChurnScript sample_equilibrium_script(std::uint64_t seed,
                                      const EquilibriumSpec& spec);

}  // namespace hcube::chaos
