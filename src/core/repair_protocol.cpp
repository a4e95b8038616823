#include "core/repair_protocol.h"

#include <algorithm>
#include <vector>

#include "core/overlay.h"
#include "util/check.h"

namespace hcube {

void RepairProtocol::start_repair(SimTime ping_timeout_ms) {
  HCUBE_CHECK_MSG(core_.status == NodeStatus::kInSystem,
                  "repair runs on settled S-nodes");
  if (ping_timeout_ms <= 0.0) ping_timeout_ms = kRepairPingTimeoutMs;
  if (!round_) round_ = std::make_unique<Round>();
  round_->timeout_ms = ping_timeout_ms;
  ++ping_generation_;
  const std::uint64_t generation = ping_generation_;
  // Probe both stored neighbors (their death leaves a hole in our table)
  // and reverse neighbors (their death leaves a stale registration that a
  // later leave would wait on forever).
  NodeIdSet probe_set;
  core_.table.for_each_filled(
      [&](std::uint32_t, std::uint32_t, const NodeId& u, NeighborState) {
        if (u != core_.id()) probe_set.insert(u);
      });
  for (const NodeId& v : core_.table.reverse_neighbors()) {
    probe_set.insert(v);
  }
  for (const NodeId& u : probe_set) {
    round_->pending_pings.put(u, generation);
    core_.send(u, PingMsg{});
    core_.overlay.schedule(ping_timeout_ms, [this, u, generation] {
      on_ping_timeout(u, generation);
    });
  }
  end_if_idle();
}

void RepairProtocol::end_if_idle() {
  if (round_ && round_->pending_pings.empty() &&
      round_->pending_repairs.empty() && round_->pending_validations.empty())
    round_.reset();
}

void RepairProtocol::on_ping_timeout(const NodeId& u,
                                     std::uint64_t generation) {
  if (!round_) return;
  const std::uint64_t* pending = round_->pending_pings.find(u);
  if (pending == nullptr || *pending != generation)
    return;  // answered, or a newer probe superseded this one
  round_->pending_pings.erase(u);
  // u is presumed dead. It occupies exactly one entry of our table:
  // (k, u[k]) with k = |csuf|.
  core_.table.remove_reverse_neighbor(u);
  const auto k = static_cast<std::uint32_t>(core_.id().csuf_len(u));
  const Digit jd = u.digit(k);
  core_.table.purge_backup(k, jd, u);
  if (core_.table.holds(k, jd, u)) begin_entry_repair(k, jd, u);
  end_if_idle();
}

void RepairProtocol::begin_entry_repair(std::uint32_t level,
                                        std::uint32_t digit,
                                        const NodeId& dead) {
  core_.table.clear(level, digit);
  core_.table.purge_backup(level, digit, dead);
  // A remembered redundant neighbor is the fastest repair — promote it and
  // probe it immediately (backups are not reverse-tracked, so it may be
  // dead itself; the probe's timeout re-enters this repair if so).
  const NodeId promoted = core_.table.take_first_backup(level, digit);
  if (promoted.is_valid()) {
    core_.fill_if_empty(level, digit, promoted, NeighborState::kS);
    const std::uint64_t generation = ++ping_generation_;
    round_->pending_pings.put(promoted, generation);
    core_.send(promoted, PingMsg{});
    core_.overlay.schedule(round_->timeout_ms, [this, promoted, generation] {
      on_ping_timeout(promoted, generation);
    });
    return;
  }
  // Query every other table neighbor sharing >= level suffix digits: their
  // (level, digit) entries cover the same suffix class as ours. Each peer
  // once, in level-major first-appearance order.
  std::vector<NodeId> peers;
  core_.table.for_each_filled(
      [&](std::uint32_t, std::uint32_t, const NodeId& z, NeighborState) {
        if (z == core_.id() || z == dead || core_.id().csuf_len(z) < level)
          return;
        if (std::find(peers.begin(), peers.end(), z) == peers.end())
          peers.push_back(z);
      });
  if (peers.empty()) return;  // nobody to ask; entry stays empty
  const std::uint64_t key =
      static_cast<std::uint64_t>(level) << 32 | digit;
  round_->pending_repairs[key] = Round::Repair{peers.size(), dead};
  for (const NodeId& z : peers) {
    core_.send(z, RepairQueryMsg{static_cast<std::uint8_t>(level),
                                 static_cast<std::uint8_t>(digit)});
  }
}

void RepairProtocol::on_pong(const NodeId& u) {
  if (!round_) return;
  round_->pending_pings.erase(u);
  // A validated repair candidate answered its probe: it is alive, install
  // it if the slot is still vacant (another reply round or an AnnounceMsg
  // may have filled it meanwhile).
  const Round::Validation* v = round_->pending_validations.find(u);
  if (v != nullptr) {
    if (core_.table.is_empty(v->level, v->digit))
      core_.fill_if_empty(v->level, v->digit, u, NeighborState::kS);
    round_->pending_validations.erase(u);
  }
  end_if_idle();
}

void RepairProtocol::on_validation_timeout(const NodeId& candidate,
                                           std::uint64_t generation) {
  if (!round_) return;
  const Round::Validation* v = round_->pending_validations.find(candidate);
  if (v == nullptr || v->generation != generation) return;
  // The offered candidate never answered: presumably as dead as the node
  // it was meant to replace (a stale-table responder serving from a frozen
  // snapshot). Leave the entry empty — the next repair round or a
  // neighbor's AnnounceMsg fills it from live state.
  round_->pending_validations.erase(candidate);
  end_if_idle();
}

void RepairProtocol::announce_table() {
  HCUBE_CHECK_MSG(core_.status == NodeStatus::kInSystem,
                  "announce runs on settled S-nodes");
  NodeIdSet targets;
  core_.table.for_each_filled(
      [&](std::uint32_t, std::uint32_t, const NodeId& u, NeighborState) {
        if (u != core_.id()) targets.insert(u);
      });
  for (const NodeId& v : core_.table.reverse_neighbors()) {
    targets.insert(v);
  }
  const TableSnapshot snap = core_.table.snapshot_full();
  for (const NodeId& u : targets) core_.send(u, AnnounceMsg{snap});
}

void RepairProtocol::on_announce(const NodeId& x, const AnnounceMsg& m) {
  bool sender_stores_us = false;
  for (const SnapshotEntry& e : m.table.entries) {
    if (e.node == core_.id()) {
      sender_stores_us = true;
      continue;
    }
    const auto k = static_cast<std::uint32_t>(core_.id().csuf_len(e.node));
    core_.fill_if_empty(k, e.node.digit(k), e.node, e.state);
  }
  // AnnounceMsg carries the sender's full table, so it is also an exact
  // statement of whether x stores us — reconcile our reverse-neighbor
  // registration in both directions. This is what re-links a crash-
  // restarted node with its pre-crash storers (their announcements name
  // it) and what unregisters a peer that vacated our entry while a
  // partition made us look dead to it.
  if (sender_stores_us) {
    core_.table.add_reverse_neighbor(x);
    if (core_.status == NodeStatus::kLeaving && !leave_.has_notified(x)) {
      // Same cross-protocol edge as RvNghNotiMsg during a leave: a storer
      // we did not know about must be told to repair before we depart.
      leave_.send_leave_to(x);
    }
  } else {
    core_.table.remove_reverse_neighbor(x);
  }
}

void RepairProtocol::on_repair_query(const NodeId& x, HostId x_host,
                                     const RepairQueryMsg& m) {
  RepairRlyMsg reply;
  reply.level = m.level;
  reply.digit = m.digit;
  // Only meaningful if we share at least `level` digits with the asker —
  // then our (level, digit) entry covers the asker's class too.
  if (core_.id().csuf_len(x) >= m.level) {
    const NodeId* entry = core_.table.neighbor(m.level, m.digit);
    if (entry != nullptr) reply.candidate = *entry;
  }
  core_.send(x, x_host, reply);
}

void RepairProtocol::on_repair_rly(const NodeId& z, const RepairRlyMsg& m) {
  (void)z;
  if (!round_) return;
  const std::uint64_t key =
      static_cast<std::uint64_t>(m.level) << 32 | m.digit;
  auto it = round_->pending_repairs.find(key);
  if (it == round_->pending_repairs.end()) return;  // already repaired / stale
  HCUBE_CHECK(it->second.replies_expected > 0);
  --it->second.replies_expected;
  const bool exhausted = (it->second.replies_expected == 0);
  if (m.candidate.is_valid() && m.candidate != core_.id() &&
      m.candidate != it->second.dead &&
      core_.table.is_empty(m.level, m.digit)) {
    if (!core_.overlay.options().validate_repair_candidates) {
      core_.fill_if_empty(m.level, m.digit, m.candidate, NeighborState::kS);
      round_->pending_repairs.erase(it);
      end_if_idle();
      return;
    }
    // Hardened path: probe before installing — the replier may be serving
    // from a stale snapshot and its candidate long dead. The repair
    // conversation stays open (decremented, not erased) so replies naming
    // other candidates can race this validation; whichever candidate pongs
    // first with the slot still empty wins.
    if (!round_->pending_validations.contains(m.candidate)) {
      const std::uint64_t generation = ++ping_generation_;
      round_->pending_validations.put(
          m.candidate, Round::Validation{m.level, m.digit, generation});
      core_.send(m.candidate, PingMsg{});
      core_.overlay.schedule(
          round_->timeout_ms, [this, c = m.candidate, generation] {
            on_validation_timeout(c, generation);
          });
    }
  }
  if (exhausted) round_->pending_repairs.erase(it);
  end_if_idle();
}

}  // namespace hcube
