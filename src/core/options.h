// Protocol configuration knobs.
#pragma once

#include <cstdint>

namespace hcube {

// What a node puts into table-carrying messages (Section 6.2).
enum class SnapshotPolicy : std::uint8_t {
  // Baseline: every table-carrying message carries the full table.
  kFullTable,
  // JoinNotiMsg carries only levels noti_level .. |csuf(x, y)| (first §6.2
  // enhancement). Other table-carrying messages stay full.
  kPartialLevels,
  // kPartialLevels plus: JoinNotiMsg carries a filled-entry bit vector and
  // the JoinNotiRlyMsg table is pruned to entries the requester lacks below
  // its notification level (second §6.2 enhancement).
  kBitVector,
};

const char* to_string(SnapshotPolicy p);

struct ProtocolOptions {
  SnapshotPolicy snapshot_policy = SnapshotPolicy::kFullTable;

  // Redundant neighbors per entry (Section 2.1's "extra neighbors ... for
  // fault tolerant routing"). 0 = primary-only, as in the paper's Section 3
  // simplification. When > 0, nodes opportunistically remember up to this
  // many additional suffix-class members per entry; fault-tolerant routing
  // (route_fault_tolerant) and recovery use them as instant fallbacks.
  std::uint32_t backups_per_entry = 0;

  // Join-stall watchdog (robustness extension): a joining node that has not
  // become an S-node this many milliseconds after an attempt began aborts
  // the attempt and restarts it under a fresh generation tag (stale replies
  // from the dead attempt are rejected by their echoed generation). 0
  // disables the watchdog — appropriate when the transport is reliable, as
  // the paper assumes. Size it well above the reliable layer's worst-case
  // retransmission span; the watchdog is the recovery of last resort for
  // messages the transport gave up on.
  double join_watchdog_ms = 0.0;
  // Attempts abandoned before the watchdog stops restarting (so a join
  // through a permanently dead gateway cannot loop forever).
  std::uint32_t join_max_restarts = 8;

  // ---- Misbehaving-peer hardening (alive-but-wrong tier; see
  // ---- docs/PROTOCOL.md "failure model" and DESIGN.md §14). All three
  // ---- default off: the paper's fail-stop model never needs them, and the
  // ---- chaos digests of fail-stop schedules must not move.

  // Cross-validate repair candidates before installing them: a RepairRlyMsg
  // naming a candidate triggers a liveness probe (PingMsg) and the entry is
  // filled only when the candidate answers. Defends against stale-table
  // responders serving long-dead nodes as replacements; a failed validation
  // leaves the entry empty for the next repair/announce round.
  bool validate_repair_candidates = false;

  // Per-reply janitor for the notification phase: a peer that was sent a
  // JoinNotiMsg (or an SpeNotiMsg chain) and stays silent this long is
  // presumed unhelpful — it is recorded as a suspect, dropped from the
  // outstanding-reply set, and the join proceeds without it. Defends
  // against reply-droppers that would otherwise pin the joiner in
  // kNotifying until the coarse watchdog burns its whole restart budget.
  // 0 disables the janitor (the paper's reliable-delivery regime).
  double reply_timeout_ms = 0.0;

  // Watchdog gateway rotation skips peers already recorded as suspects
  // (unanswered notifications, silent copy sources) when an unsuspected
  // candidate exists. Off, rotation cycles all learned S-neighbors as
  // before.
  bool suspect_aware_rotation = false;

  // ---- Graceful join degradation (equilibrium-churn tier; see
  // ---- docs/PROTOCOL.md "churn regimes"). Both knobs default off: under
  // ---- episodic churn the immediate-restart watchdog is correct, and the
  // ---- chaos digests of existing schedules must not move.

  // Jittered exponential backoff on watchdog-driven join restarts: after
  // the k-th abort the next attempt begins base * 2^min(k-1, 6) * j
  // milliseconds later, with j drawn uniformly from [0.5, 1.5) out of the
  // overlay's seeded jitter stream (Overlay::backoff_jitter — never a
  // private RNG, so runs stay bit-reproducible). Under sustained overload
  // this de-synchronizes the restart herd instead of hammering gateways in
  // lockstep. 0 restarts immediately, as before.
  double join_backoff_base_ms = 0.0;

  // Seed of the per-overlay jitter stream. Only drawn from when
  // join_backoff_base_ms > 0, so default runs never touch it.
  std::uint64_t backoff_seed = 0x0b5eedbacc0ffULL;

  // Gateway-side admission control: when the environment-wide in-flight
  // join backlog (Overlay::join_backlog) exceeds this threshold, an S-node
  // receiving a CpRstMsg defers its CpRlyMsg by overload_defer_ms instead
  // of answering immediately — shedding copy-walk load until the backlog
  // drains, at the price of slower admissions. 0 disables the deferral.
  std::uint32_t overload_defer_threshold = 0;
  double overload_defer_ms = 50.0;

  // Leave-stall watchdog (robustness extension): a leaver still missing
  // LeaveRly acks this many milliseconds after notifying its reverse
  // neighbors re-sends the unanswered LeaveMsgs (idempotent on the
  // receiver), and after leave_max_retries re-sends presumes the silent
  // peers dead and departs unilaterally — sound under fail-stop, since the
  // repair protocol reclaims any pointer left at a peer that was merely
  // unreachable. 0 disables the watchdog (graceful leaves then assume every
  // notified reverse neighbor stays alive to ack, as before).
  double leave_watchdog_ms = 0.0;
  std::uint32_t leave_max_retries = 4;
};

}  // namespace hcube
