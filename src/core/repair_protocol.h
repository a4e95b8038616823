// Failure-recovery protocol (extension; the paper defers failure recovery
// alongside leaving, Section 7).
//
// Fail-stop model: a crashed node silently drops everything. Recovery is
// pull-based and round-oriented: start_repair() pings every stored neighbor
// and reverse neighbor; a neighbor that does not answer within
// ping_timeout_ms is presumed dead, its entry is vacated, and the node
// queries every other table neighbor sharing at least `level` suffix digits
// for a replacement (their (level, digit) entries cover the same suffix
// class). One round repairs every entry whose class has a live member known
// to the query set; clustered failures may need further rounds
// (World::repair_all drives them, alternating with the announce_table
// push phase). Not concurrent-safe with joins or leaves, matching the
// regime split the paper uses.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/leave_protocol.h"
#include "core/node_core.h"

namespace hcube {

// How long a repair probe waits for a PongMsg before presuming the probed
// neighbor dead, when start_repair / World::repair_all is driven with the
// default timeout. Callers that need another value (a lossy stack whose ARQ
// retransmission span exceeds it) pass their own.
inline constexpr SimTime kRepairPingTimeoutMs = 500.0;

class RepairProtocol {
 public:
  // Needs the leave module for one cross-protocol edge (mirroring
  // JoinProtocol's RvNghNotiMsg handling): an AnnounceMsg revealing a new
  // storer while this node is leaving must trigger a LeaveMsg to it.
  RepairProtocol(NodeCore& core, LeaveProtocol& leave)
      : core_(core), leave_(leave) {}

  // ping_timeout_ms <= 0 uses kRepairPingTimeoutMs.
  void start_repair(SimTime ping_timeout_ms);

  // Crash-recovery lifecycle: forgets every outstanding probe and repair
  // conversation (their timers become stale and ignore themselves).
  void reset() { round_.reset(); }
  // True while pings, repair queries or candidate validations are
  // outstanding.
  bool in_progress() const { return round_ != nullptr; }
  // Push phase of a repair round: sends AnnounceMsg(table) to every
  // neighbor and reverse neighbor so they can fill entries whose class
  // lost its only inbound pointer. Run after the ping phase quiesces.
  void announce_table();

  // ---- message handlers ----
  void on_pong(const NodeId& u);
  void on_repair_query(const NodeId& x, HostId x_host,
                       const RepairQueryMsg& m);
  void on_repair_rly(const NodeId& z, const RepairRlyMsg& m);
  void on_announce(const NodeId& x, const AnnounceMsg& m);

 private:
  // The outstanding conversations of a repair round: created by
  // start_repair, dropped as soon as nothing is outstanding (end_if_idle)
  // or the node restarts.
  struct Round {
    // A probed neighbor -> the generation of its outstanding probe (stale
    // timeouts compare generations). Insertion-ordered: start_repair
    // schedules every probe's timeout at the same instant, so this map's
    // order is the timeout firing order.
    FlatNodeMap<std::uint64_t> pending_pings;
    // A vacated entry (packed slot) -> the number of repair replies still
    // expected plus the node presumed dead (candidates naming it are
    // rejected). Keyed by slot, not NodeId, and never iterated, so a heap
    // hash map costs nothing deterministic here.
    struct Repair {
      std::size_t replies_expected;
      NodeId dead;
    };
    std::unordered_map<std::uint64_t, Repair> pending_repairs;
    // Misbehaving-peer hardening (ProtocolOptions::
    // validate_repair_candidates, DESIGN.md §14): candidates offered by
    // RepairRlyMsg awaiting their liveness probe before installation.
    // Keyed by candidate — a candidate covers exactly one of our slots,
    // (|csuf|, candidate[|csuf|]) — with the slot and probe generation.
    struct Validation {
      std::uint32_t level;
      std::uint32_t digit;
      std::uint64_t generation;
    };
    FlatNodeMap<Validation> pending_validations;
    // The round's ping timeout (the last start_repair's argument).
    SimTime timeout_ms = kRepairPingTimeoutMs;
  };

  void on_ping_timeout(const NodeId& u, std::uint64_t generation);
  void begin_entry_repair(std::uint32_t level, std::uint32_t digit,
                          const NodeId& dead);
  void on_validation_timeout(const NodeId& candidate,
                             std::uint64_t generation);
  void end_if_idle();

  NodeCore& core_;
  LeaveProtocol& leave_;
  std::unique_ptr<Round> round_;
  std::uint64_t ping_generation_ = 0;
};

}  // namespace hcube
