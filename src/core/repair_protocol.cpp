// Failure-recovery protocol (extension; the paper defers failure recovery
// alongside leaving, Section 7): the repair handlers of Node (core/node.h).
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
#include <algorithm>
#include <vector>

#include "core/node.h"
#include "core/overlay.h"
#include "util/check.h"

namespace hcube {

void Node::start_repair(SimTime ping_timeout_ms) {
  HCUBE_CHECK_MSG(status_ == NodeStatus::kInSystem,
                  "repair runs on settled S-nodes");
  if (ping_timeout_ms <= 0.0) ping_timeout_ms = kRepairPingTimeoutMs;
  if (!repair_) repair_ = std::make_unique<RepairRound>();
  repair_->timeout_ms = ping_timeout_ms;
  ++ping_generation_;
  const std::uint64_t generation = ping_generation_;
  // Probe both stored neighbors (their death leaves a hole in our table)
  // and reverse neighbors (their death leaves a stale registration that a
  // later leave would wait on forever).
  NodeIdSet probe_set;
  table_.for_each_filled(
      [&](std::uint32_t, std::uint32_t, const NodeId& u, NeighborState) {
        if (u != id()) probe_set.insert(u);
      });
  for (const NodeId& v : table_.reverse_neighbors()) {
    probe_set.insert(v);
  }
  for (const NodeId& u : probe_set) {
    repair_->pending_pings.put(u, generation);
    send(u, PingMsg{});
    overlay_.schedule(ping_timeout_ms, [this, u, generation] {
      on_ping_timeout(u, generation);
    });
  }
  end_repair_if_idle();
}

void Node::end_repair_if_idle() {
  if (repair_ && repair_->pending_pings.empty() &&
      repair_->pending_repairs.empty() && repair_->pending_validations.empty())
    repair_.reset();
}

void Node::on_ping_timeout(const NodeId& u, std::uint64_t generation) {
  if (!repair_) return;
  const std::uint64_t* pending = repair_->pending_pings.find(u);
  if (pending == nullptr || *pending != generation)
    return;  // answered, or a newer probe superseded this one
  repair_->pending_pings.erase(u);
  // u is presumed dead. It occupies exactly one entry of our table:
  // (k, u[k]) with k = |csuf|.
  table_.remove_reverse_neighbor(u);
  const auto k = static_cast<std::uint32_t>(id().csuf_len(u));
  const Digit jd = u.digit(k);
  table_.purge_backup(k, jd, u);
  if (table_.holds(k, jd, u)) begin_entry_repair(k, jd, u);
  end_repair_if_idle();
}

void Node::begin_entry_repair(std::uint32_t level, std::uint32_t digit,
                              const NodeId& dead) {
  table_.clear(level, digit);
  table_.purge_backup(level, digit, dead);
  // A remembered redundant neighbor is the fastest repair — promote it and
  // probe it immediately (backups are not reverse-tracked, so it may be
  // dead itself; the probe's timeout re-enters this repair if so).
  const NodeId promoted = table_.take_first_backup(level, digit);
  if (promoted.is_valid()) {
    fill_if_empty(level, digit, promoted, NeighborState::kS);
    const std::uint64_t generation = ++ping_generation_;
    repair_->pending_pings.put(promoted, generation);
    send(promoted, PingMsg{});
    overlay_.schedule(repair_->timeout_ms, [this, promoted, generation] {
      on_ping_timeout(promoted, generation);
    });
    return;
  }
  // Query every other table neighbor sharing >= level suffix digits: their
  // (level, digit) entries cover the same suffix class as ours. Each peer
  // once, in level-major first-appearance order.
  std::vector<NodeId> peers;
  table_.for_each_filled(
      [&](std::uint32_t, std::uint32_t, const NodeId& z, NeighborState) {
        if (z == id() || z == dead || id().csuf_len(z) < level)
          return;
        if (std::find(peers.begin(), peers.end(), z) == peers.end())
          peers.push_back(z);
      });
  if (peers.empty()) return;  // nobody to ask; entry stays empty
  const std::uint64_t key =
      static_cast<std::uint64_t>(level) << 32 | digit;
  repair_->pending_repairs[key] = RepairRound::Repair{peers.size(), dead};
  for (const NodeId& z : peers) {
    send(z, RepairQueryMsg{static_cast<std::uint8_t>(level),
                                 static_cast<std::uint8_t>(digit)});
  }
}

void Node::on_pong(const NodeId& u) {
  if (!repair_) return;
  repair_->pending_pings.erase(u);
  // A validated repair candidate answered its probe: it is alive, install
  // it if the slot is still vacant (another reply round or an AnnounceMsg
  // may have filled it meanwhile).
  const RepairRound::Validation* v = repair_->pending_validations.find(u);
  if (v != nullptr) {
    if (table_.is_empty(v->level, v->digit))
      fill_if_empty(v->level, v->digit, u, NeighborState::kS);
    repair_->pending_validations.erase(u);
  }
  end_repair_if_idle();
}

void Node::on_validation_timeout(const NodeId& candidate,
                                 std::uint64_t generation) {
  if (!repair_) return;
  const RepairRound::Validation* v =
      repair_->pending_validations.find(candidate);
  if (v == nullptr || v->generation != generation) return;
  // The offered candidate never answered: presumably as dead as the node
  // it was meant to replace (a stale-table responder serving from a frozen
  // snapshot). Leave the entry empty — the next repair round or a
  // neighbor's AnnounceMsg fills it from live state.
  repair_->pending_validations.erase(candidate);
  end_repair_if_idle();
}

void Node::announce_table() {
  HCUBE_CHECK_MSG(status_ == NodeStatus::kInSystem,
                  "announce runs on settled S-nodes");
  NodeIdSet targets;
  table_.for_each_filled(
      [&](std::uint32_t, std::uint32_t, const NodeId& u, NeighborState) {
        if (u != id()) targets.insert(u);
      });
  for (const NodeId& v : table_.reverse_neighbors()) {
    targets.insert(v);
  }
  const TableSnapshot snap = table_.snapshot_full();
  for (const NodeId& u : targets) send(u, AnnounceMsg{snap});
}

void Node::on_announce(const NodeId& x, const AnnounceMsg& m) {
  bool sender_stores_us = false;
  for (const SnapshotEntry& e : m.table.entries) {
    if (e.node == id()) {
      sender_stores_us = true;
      continue;
    }
    const auto k = static_cast<std::uint32_t>(id().csuf_len(e.node));
    fill_if_empty(k, e.node.digit(k), e.node, e.state);
  }
  // AnnounceMsg carries the sender's full table, so it is also an exact
  // statement of whether x stores us — reconcile our reverse-neighbor
  // registration in both directions. This is what re-links a crash-
  // restarted node with its pre-crash storers (their announcements name
  // it) and what unregisters a peer that vacated our entry while a
  // partition made us look dead to it.
  if (sender_stores_us) {
    table_.add_reverse_neighbor(x);
    if (status_ == NodeStatus::kLeaving && !leave_notified(x)) {
      // Same cross-protocol edge as RvNghNotiMsg during a leave: a storer
      // we did not know about must be told to repair before we depart.
      send_leave_to(x);
    }
  } else {
    table_.remove_reverse_neighbor(x);
  }
}

void Node::on_repair_query(const NodeId& x, HostId x_host,
                           const RepairQueryMsg& m) {
  RepairRlyMsg reply;
  reply.level = m.level;
  reply.digit = m.digit;
  // Only meaningful if we share at least `level` digits with the asker —
  // then our (level, digit) entry covers the asker's class too.
  if (id().csuf_len(x) >= m.level) {
    const NodeId* entry = table_.neighbor(m.level, m.digit);
    if (entry != nullptr) reply.candidate = *entry;
  }
  send(x, x_host, reply);
}

void Node::on_repair_rly(const RepairRlyMsg& m) {
  if (!repair_) return;
  const std::uint64_t key =
      static_cast<std::uint64_t>(m.level) << 32 | m.digit;
  auto it = repair_->pending_repairs.find(key);
  if (it == repair_->pending_repairs.end()) return;  // already repaired / stale
  HCUBE_CHECK(it->second.replies_expected > 0);
  --it->second.replies_expected;
  const bool exhausted = (it->second.replies_expected == 0);
  if (m.candidate.is_valid() && m.candidate != id() &&
      m.candidate != it->second.dead &&
      table_.is_empty(m.level, m.digit)) {
    if (!overlay_.options().validate_repair_candidates) {
      fill_if_empty(m.level, m.digit, m.candidate, NeighborState::kS);
      repair_->pending_repairs.erase(it);
      end_repair_if_idle();
      return;
    }
    // Hardened path: probe before installing — the replier may be serving
    // from a stale snapshot and its candidate long dead. The repair
    // conversation stays open (decremented, not erased) so replies naming
    // other candidates can race this validation; whichever candidate pongs
    // first with the slot still empty wins.
    if (!repair_->pending_validations.contains(m.candidate)) {
      const std::uint64_t generation = ++ping_generation_;
      repair_->pending_validations.put(
          m.candidate, RepairRound::Validation{m.level, m.digit, generation});
      send(m.candidate, PingMsg{});
      overlay_.schedule(
          repair_->timeout_ms, [this, c = m.candidate, generation] {
            on_validation_timeout(c, generation);
          });
    }
  }
  if (exhausted) repair_->pending_repairs.erase(it);
  end_repair_if_idle();
}

}  // namespace hcube
