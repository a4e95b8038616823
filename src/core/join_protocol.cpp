#include "core/join_protocol.h"

#include <algorithm>

#include "core/overlay.h"
#include "proto/conformance.h"
#include "util/check.h"

namespace hcube {

// The handlers below lean on the conformance registry's contracts; pin the
// assumptions at compile time so an edit to the registry that would break
// the join protocol fails the build here, next to the code it breaks.
//
// reject_stale_reply() only works on messages that echo the request
// generation — every reply type this module consumes must be declared so.
static_assert(conformance_of(MessageType::kCpRly).echoes_gen &&
                  conformance_of(MessageType::kJoinWaitRly).echoes_gen &&
                  conformance_of(MessageType::kJoinNotiRly).echoes_gen &&
                  conformance_of(MessageType::kSpeNotiRly).echoes_gen,
              "join replies must echo the request generation");
// SpeNotiMsg is forwarded while handling a message of the announced attempt
// and must carry that attempt's generation down the chain (Figure 11).
static_assert(conformance_of(MessageType::kSpeNoti).echoes_gen,
              "SpeNotiMsg must propagate the originator's generation");
// The three requests this module sends each prescribe the reply type the
// corresponding on_* handler consumes.
static_assert(conformance_of(MessageType::kCpRst).reply == MessageType::kCpRly &&
                  conformance_of(MessageType::kJoinWait).reply ==
                      MessageType::kJoinWaitRly &&
                  conformance_of(MessageType::kJoinNoti).reply ==
                      MessageType::kJoinNotiRly,
              "join request/reply pairing must match the registry");
// A joining node can be driven back to kCopying by the watchdog while peers
// still talk to it: every join-phase type must stay legal there.
static_assert(conformance_allows(NodeStatus::kCopying, MessageType::kCpRly) &&
                  conformance_allows(NodeStatus::kCopying,
                                     MessageType::kJoinWaitRly) &&
                  conformance_allows(NodeStatus::kCopying,
                                     MessageType::kJoinNotiRly),
              "stale replies must remain deliverable after a watchdog restart");

// ---------------------------------------------------------------------------
// Figure 5: status copying

void JoinProtocol::start_join(const NodeId& g0) {
  conv_ = std::make_unique<Conversation>();
  conv_->gateway = g0;
  // Fresh node: 0 -> 1. Crash-restarted node: the counter survived the
  // crash (reset_for_restart keeps it) and climbs past every pre-crash
  // attempt, so stale replies to the old incarnation are rejected.
  ++core_.attempt_gen;
  begin_attempt();
  arm_watchdog();
}

void JoinProtocol::begin_attempt() {
  core_.set_status(NodeStatus::kCopying);
  Conversation& c = conv();
  c.copy_level = 0;
  c.copy_from = c.gateway;
  core_.send(c.gateway, CpRstMsg{});
}

void JoinProtocol::arm_watchdog() {
  const double delay_ms = core_.overlay.options().join_watchdog_ms;
  if (delay_ms <= 0.0) return;
  const std::uint32_t gen = core_.attempt_gen;
  core_.overlay.schedule(delay_ms, [this, gen] { on_watchdog(gen); });
}

void JoinProtocol::on_watchdog(std::uint32_t gen) {
  // Only the watchdog armed for the current attempt may restart it, and
  // only while the join is actually stuck mid-flight.
  if (gen != core_.attempt_gen) return;
  if (core_.status != NodeStatus::kCopying &&
      core_.status != NodeStatus::kWaiting &&
      core_.status != NodeStatus::kNotifying) {
    return;
  }
  const ProtocolOptions& opt = core_.overlay.options();
  if (core_.stats.watchdog_restarts >= opt.join_max_restarts) return;
  ++core_.stats.watchdog_restarts;
  ++core_.attempt_gen;
  Conversation& c = conv();
  // Every peer whose reply the aborted attempt was still waiting on stayed
  // silent for a whole watchdog period: record them as suspects before the
  // queues are wiped, copy source included (a mid-walk stall means the
  // current CpRstMsg target never answered). Counting is unconditional —
  // it is pure bookkeeping — but only suspect_aware_rotation acts on it.
  for (const NodeId& p : c.q_replies) note_suspect(p);
  for (const NodeId& p : c.q_spe_replies) note_suspect(p);
  if (core_.status == NodeStatus::kCopying && c.copy_from.is_valid())
    note_suspect(c.copy_from);
  // A restart through the same gateway cannot help if the gateway itself
  // crashed mid-join; rotate deterministically through the S-state
  // neighbors the aborted attempts already learned (falling back to the
  // original gateway when none are known).
  rotate_gateway();
  // Forget the aborted attempt's conversation state. The table keeps what
  // was already learned (filled entries and reverse neighbors reflect real
  // remote state), and deferred JoinWaitMsg senders still get their replies
  // when we eventually switch.
  c.q_replies.clear();
  c.q_notified.clear();
  c.q_spe_replies.clear();
  c.q_spe_notified.clear();
  // Graceful degradation (ProtocolOptions::join_backoff_base_ms): wait out
  // a jittered exponential backoff before the next attempt, so a restart
  // herd under sustained overload de-synchronizes instead of re-hammering
  // the gateways in lockstep. The wait belongs to the generation bumped
  // above: a crash, restart, or stale-watchdog race during the wait bumps
  // attempt_gen again and the delayed closure becomes a no-op. No watchdog
  // runs during the wait — backoff time is not attempt time.
  if (opt.join_backoff_base_ms > 0.0) {
    const std::uint32_t k =
        std::min(core_.stats.watchdog_restarts > 0
                     ? core_.stats.watchdog_restarts - 1
                     : 0u,
                 6u);
    const double delay_ms = opt.join_backoff_base_ms *
                            static_cast<double>(std::uint32_t{1} << k) *
                            core_.overlay.backoff_jitter();
    ++core_.overlay.lane_join_counters().backoff_waits;
    const std::uint32_t wait_gen = core_.attempt_gen;
    core_.overlay.schedule(delay_ms, [this, wait_gen] {
      if (wait_gen != core_.attempt_gen) return;
      if (core_.status != NodeStatus::kCopying &&
          core_.status != NodeStatus::kWaiting &&
          core_.status != NodeStatus::kNotifying) {
        return;
      }
      begin_attempt();
      arm_watchdog();
    });
    return;
  }
  begin_attempt();
  arm_watchdog();
}

void JoinProtocol::rotate_gateway() {
  // Candidates: every distinct S-state table neighbor plus the original
  // gateway, cycled by restart count — consecutive restarts try different
  // entry points until one answers. Table iteration order is (level,
  // digit), so the choice is deterministic.
  Conversation& c = conv();
  std::vector<NodeId> candidates;
  core_.table.for_each_filled([&](std::uint32_t, std::uint32_t,
                                  const NodeId& n, NeighborState state) {
    if (state != NeighborState::kS || n == core_.id() || n == c.gateway) return;
    for (const NodeId& known : candidates)
      if (known == n) return;
    candidates.push_back(n);
  });
  if (candidates.empty()) return;
  if (core_.overlay.options().suspect_aware_rotation) {
    // Skip peers already recorded silent, when anyone else is available —
    // rotating back onto a reply-dropper just burns another restart.
    std::vector<NodeId> trusted;
    for (const NodeId& n : candidates)
      if (!c.suspects.contains(n)) trusted.push_back(n);
    if (!trusted.empty()) {
      if (!c.suspects.contains(c.gateway)) trusted.push_back(c.gateway);
      c.gateway = trusted[core_.stats.watchdog_restarts % trusted.size()];
      return;
    }
  }
  candidates.push_back(c.gateway);
  c.gateway = candidates[core_.stats.watchdog_restarts % candidates.size()];
}

void JoinProtocol::note_suspect(const NodeId& peer) {
  ++core_.overlay.lane_join_counters().suspected_peers;
  conv().suspects.insert(peer);
}

void JoinProtocol::arm_reply_janitor(const NodeId& peer, bool spe) {
  const double delay_ms = core_.overlay.options().reply_timeout_ms;
  if (delay_ms <= 0.0) return;
  const std::uint32_t gen = core_.attempt_gen;
  core_.overlay.schedule(delay_ms, [this, peer, gen, spe] {
    on_reply_janitor(peer, gen, spe);
  });
}

// The per-reply janitor: a notified peer still unanswered when its timer
// fires is presumed unhelpful (reply-dropper, or dead in a way the ARQ
// layer has not yet given up on). Evict it so the join can settle on the
// replies it did get; a genuinely slow reply arriving later is still
// processed (reverse-neighbor registration, table merge) — only the
// blocking dependency is severed. Scoped to the notification phase: a
// silent JoinWaitMsg target is a structural dependency (Figure 6 decides
// our notification level) that only the coarse watchdog may abandon.
void JoinProtocol::on_reply_janitor(const NodeId& peer, std::uint32_t gen,
                                    bool spe) {
  if (gen != core_.attempt_gen) return;
  if (core_.status != NodeStatus::kNotifying) return;
  NodeIdSet& q = spe ? conv().q_spe_replies : conv().q_replies;
  if (!q.contains(peer)) return;
  note_suspect(peer);
  q.erase(peer);
  maybe_switch_to_s_node();
}

bool JoinProtocol::reject_stale_reply() {
  if (core_.handling_gen == core_.attempt_gen) return false;
  ++core_.overlay.lane_join_counters().stale_rejected;
  return true;
}

void JoinProtocol::on_cp_rly(const NodeId& g, const CpRlyMsg& msg) {
  if (reject_stale_reply()) return;
  HCUBE_CHECK(core_.status == NodeStatus::kCopying);
  Conversation& c = conv();
  HCUBE_CHECK(g == c.copy_from);

  // Copy level-i neighbors of g into level-i of our table. On a fresh join
  // every entry at this level is provably empty (copy_entry checks); after
  // a watchdog restart the walk revisits territory the aborted attempt
  // already copied, so only fill gaps. g's table may also hold *us* from
  // the aborted attempt — never copy ourselves.
  for (const SnapshotEntry& e : msg.table.entries) {
    if (e.level != c.copy_level) continue;
    if (e.node == core_.id()) continue;
    if (core_.attempt_gen > 1)
      core_.fill_if_empty(e.level, e.digit, e.node, e.state);
    else
      core_.copy_entry(e.level, e.digit, e.node, e.state);
  }

  // p = g; g = N_p(i, x[i]); s = N_p(i, x[i]).state; i++.
  const SnapshotEntry* next = nullptr;
  for (const SnapshotEntry& e : msg.table.entries) {
    if (e.level == c.copy_level && e.digit == core_.id().digit(c.copy_level)) {
      next = &e;
      break;
    }
  }
  const NodeId prev = c.copy_from;
  ++c.copy_level;

  if (next == nullptr) {
    // No node shares the rightmost (i+1) digits with us: wait on p.
    finish_copying_and_wait(prev);
    return;
  }
  if (next->node == core_.id()) {
    // Only possible after a restart: p stored us during the aborted
    // attempt, so the walk ran into ourselves. p is then the closest node
    // sharing our suffix that is not us — wait on it.
    HCUBE_CHECK_MSG(core_.attempt_gen > 1, "joining node found in a table");
    finish_copying_and_wait(prev);
    return;
  }
  if (next->state == NeighborState::kS) {
    HCUBE_CHECK_MSG(c.copy_level < core_.params().num_digits,
                    "copied all levels; duplicate ID in network?");
    c.copy_from = next->node;
    core_.send(c.copy_from, CpRstMsg{});
  } else {
    // g_{k+1} exists but is still a T-node: wait on it.
    finish_copying_and_wait(next->node);
  }
}

void JoinProtocol::finish_copying_and_wait(const NodeId& target) {
  // x adds itself into its table.
  for (std::uint32_t i = 0; i < core_.params().num_digits; ++i)
    core_.table.set(i, core_.id().digit(i), core_.id(), NeighborState::kT,
                    core_.self_host);
  core_.set_status(NodeStatus::kWaiting);
  core_.send(target, JoinWaitMsg{});
  conv().q_notified.insert(target);
  conv().q_replies.insert(target);
}

// ---------------------------------------------------------------------------
// Figure 6: receiving JoinWaitMsg

void JoinProtocol::on_join_wait(const NodeId& x, HostId x_host) {
  if (core_.status != NodeStatus::kInSystem) {
    // Defer; remember the request's generation so the eventual reply (sent
    // from switch_to_s_node, outside this handler) still echoes it. A
    // repeated JoinWaitMsg from a restarted attempt overwrites the tag. A
    // leaving node defers too, and never answers.
    conv().q_join_waiters.put(x, core_.handling_gen);
    return;
  }
  const auto k = static_cast<std::uint32_t>(core_.id().csuf_len(x));
  const Digit jd = x.digit(k);
  const NodeId* cur = core_.table.neighbor(k, jd);
  if (cur != nullptr && *cur != x) {
    const std::uint32_t max_backups = core_.overlay.options().backups_per_entry;
    if (max_backups > 0) core_.table.offer_backup(k, jd, x, max_backups);
    core_.send(x, x_host,
               JoinWaitRlyMsg{false, *cur, core_.table.snapshot_full()});
  } else {
    if (cur == nullptr)
      core_.table.set(k, jd, x, NeighborState::kT, x_host);
    // We now store x, so we are a reverse neighbor of x; x learns this from
    // the positive reply (Figure 7 adds us to R_x).
    core_.send(x, x_host,
               JoinWaitRlyMsg{true, x, core_.table.snapshot_full()});
  }
}

// ---------------------------------------------------------------------------
// Figure 7: receiving JoinWaitRlyMsg

void JoinProtocol::on_join_wait_rly(const NodeId& y,
                                    const JoinWaitRlyMsg& m) {
  const auto k = static_cast<std::uint32_t>(core_.id().csuf_len(y));
  // The reply proves y is an S-node (true whatever generation it carries).
  if (core_.table.holds(k, y.digit(k), y))
    core_.table.set_state(k, y.digit(k), NeighborState::kS);
  if (reject_stale_reply()) {
    // A stale *positive* still means y stored us: y must be in R_x so our
    // InSysNotiMsg reaches it when the current attempt completes.
    if (m.positive)
      core_.table.add_reverse_neighbor(y);
    return;
  }
  if (conv_) conv_->q_replies.erase(y);

  if (m.positive) {
    HCUBE_CHECK(core_.status == NodeStatus::kWaiting);
    core_.set_status(NodeStatus::kNotifying);
    conv().noti_level = k;
    core_.stats.noti_level = k;
    core_.table.add_reverse_neighbor(y);
  } else {
    HCUBE_CHECK_MSG(m.u != core_.id(),
                    "negative JoinWaitRly naming the joiner");
    core_.send(m.u, JoinWaitMsg{});
    conv().q_notified.insert(m.u);
    conv().q_replies.insert(m.u);
  }
  check_ngh_table(m.table);
  maybe_switch_to_s_node();
}

// ---------------------------------------------------------------------------
// Figure 8: Check_Ngh_Table

void JoinProtocol::check_ngh_table(const TableSnapshot& snap) {
  for (const SnapshotEntry& e : snap.entries) {
    if (e.node == core_.id()) continue;
    const auto k = static_cast<std::uint32_t>(core_.id().csuf_len(e.node));
    const Digit jd = e.node.digit(k);
    core_.fill_if_empty(k, jd, e.node, e.state);
    if (core_.status == NodeStatus::kNotifying && k >= conv().noti_level &&
        !conv().q_notified.contains(e.node)) {
      send_join_noti(e.node);
      conv().q_notified.insert(e.node);
      conv().q_replies.insert(e.node);
      arm_reply_janitor(e.node, /*spe=*/false);
    }
  }
}

void JoinProtocol::send_join_noti(const NodeId& target) {
  const std::uint32_t noti_level = conv().noti_level;
  const SnapshotPolicy policy = core_.overlay.options().snapshot_policy;
  JoinNotiMsg msg;
  msg.sender_noti_level = static_cast<std::uint8_t>(noti_level);
  switch (policy) {
    case SnapshotPolicy::kFullTable:
      msg.table = core_.table.snapshot_full();
      break;
    case SnapshotPolicy::kPartialLevels:
    case SnapshotPolicy::kBitVector: {
      // §6.2: levels noti_level .. |csuf(x, y)| suffice.
      const auto k = static_cast<std::uint32_t>(core_.id().csuf_len(target));
      msg.table = core_.table.snapshot(std::min(noti_level, k), k);
      if (policy == SnapshotPolicy::kBitVector)
        msg.filled = core_.table.filled_bitvec();
      break;
    }
  }
  core_.send(target, std::move(msg));
}

// ---------------------------------------------------------------------------
// Figure 9: receiving JoinNotiMsg

JoinNotiRlyMsg JoinProtocol::build_join_noti_rly(
    bool positive, bool flag, const JoinNotiMsg& request) const {
  JoinNotiRlyMsg reply;
  reply.positive = positive;
  reply.flag = flag;
  if (core_.overlay.options().snapshot_policy == SnapshotPolicy::kBitVector &&
      request.filled.has_value()) {
    // §6.2: below the requester's notification level include only entries
    // it lacks; at and above it include everything (the requester must
    // discover nodes to notify there even where its entries are filled).
    const BitVec& filled = *request.filled;
    core_.table.for_each_filled([&](std::uint32_t i, std::uint32_t j,
                                    const NodeId& node, NeighborState state) {
      const std::size_t bit =
          static_cast<std::size_t>(i) * core_.params().base + j;
      if (i >= request.sender_noti_level ||
          bit >= filled.size() || !filled.get(bit)) {
        reply.table.add(static_cast<std::uint8_t>(i),
                        static_cast<std::uint8_t>(j), node, state);
      }
    });
  } else {
    reply.table = core_.table.snapshot_full();
  }
  return reply;
}

void JoinProtocol::on_join_noti(const NodeId& x, HostId x_host,
                                const JoinNotiMsg& m) {
  const auto k = static_cast<std::uint32_t>(core_.id().csuf_len(x));
  const Digit jd = x.digit(k);
  bool flag = false;
  core_.fill_if_empty(k, jd, x, NeighborState::kT);
  // Does x's table (as sent) hold us at (k, y[k])? If not and we are an
  // S-node, set the flag so x announces us to the occupant (Figure 10).
  const Digit our_digit = core_.id().digit(k);
  bool x_has_us = false;
  for (const SnapshotEntry& e : m.table.entries) {
    if (e.level == k && e.digit == our_digit && e.node == core_.id()) {
      x_has_us = true;
      break;
    }
  }
  if (!x_has_us && core_.status == NodeStatus::kInSystem) flag = true;

  const bool positive = core_.table.holds(k, jd, x);
  core_.send(x, x_host, build_join_noti_rly(positive, flag, m));
  check_ngh_table(m.table);
}

// ---------------------------------------------------------------------------
// Figure 10: receiving JoinNotiRlyMsg

void JoinProtocol::on_join_noti_rly(const NodeId& y,
                                    const JoinNotiRlyMsg& m) {
  const auto k = static_cast<std::uint32_t>(core_.id().csuf_len(y));
  if (reject_stale_reply()) {
    // As in Figure 7: a stale positive proves y stored us — keep it in R_x.
    if (m.positive)
      core_.table.add_reverse_neighbor(y);
    return;
  }
  // After a janitor eviction the reply can land once we settled and the
  // conversation is gone; it is then absorbed like any late reply.
  if (conv_) conv_->q_replies.erase(y);
  if (m.positive) core_.table.add_reverse_neighbor(y);
  // The kNotifying guard matters once the reply janitor exists: a reply
  // from an evicted peer can land after we already switched to S-node, and
  // opening a new SpeNoti conversation then would leak outstanding-reply
  // state forever (nothing drains Q_sr after the switch).
  if (core_.status == NodeStatus::kNotifying && m.flag &&
      k > conv().noti_level && !conv().q_spe_notified.contains(y)) {
    const NodeId* u1 = core_.table.neighbor(k, y.digit(k));
    HCUBE_CHECK_MSG(u1 != nullptr && *u1 != y,
                    "flagged entry must hold a competitor node");
    core_.send(*u1, core_.entry_host(k, y.digit(k)), SpeNotiMsg{core_.id(), y});
    conv().q_spe_notified.insert(y);
    conv().q_spe_replies.insert(y);
    arm_reply_janitor(y, /*spe=*/true);
  }
  check_ngh_table(m.table);
  maybe_switch_to_s_node();
}

// ---------------------------------------------------------------------------
// Figure 11: receiving SpeNotiMsg

void JoinProtocol::on_spe_noti(const SpeNotiMsg& m) {
  HCUBE_CHECK(m.y != core_.id());  // the forwarding chain never reaches y
  const auto k = static_cast<std::uint32_t>(core_.id().csuf_len(m.y));
  const Digit jd = m.y.digit(k);
  core_.fill_if_empty(k, jd, m.y, NeighborState::kS);
  if (!core_.table.holds(k, jd, m.y)) {
    core_.send(*core_.table.neighbor(k, jd), core_.entry_host(k, jd),
               SpeNotiMsg{m.x, m.y});
  } else {
    core_.send(m.x, SpeNotiRlyMsg{m.x, m.y});
  }
}

// ---------------------------------------------------------------------------
// Figure 12: receiving SpeNotiRlyMsg

void JoinProtocol::on_spe_noti_rly(const SpeNotiRlyMsg& m) {
  if (reject_stale_reply()) return;
  if (conv_) conv_->q_spe_replies.erase(m.y);
  maybe_switch_to_s_node();
}

// ---------------------------------------------------------------------------
// Figure 13: Switch_To_S_Node

void JoinProtocol::maybe_switch_to_s_node() {
  if (core_.status == NodeStatus::kNotifying && conv().q_replies.empty() &&
      conv().q_spe_replies.empty()) {
    switch_to_s_node();
  }
}

void JoinProtocol::switch_to_s_node() {
  HCUBE_CHECK(core_.status == NodeStatus::kNotifying);
  core_.set_status(NodeStatus::kInSystem);
  core_.stats.t_end = core_.overlay.now();
  for (std::uint32_t i = 0; i < core_.params().num_digits; ++i)
    core_.table.set_state(i, core_.id().digit(i), NeighborState::kS);
  for (const NodeId& v : core_.table.reverse_neighbors()) {
    core_.send(v, InSysNotiMsg{});
  }
  // Answer the deferred JoinWaitMsg senders, echoing each request's own
  // generation (we are outside its handler, so the automatic stamp would
  // be wrong). The join is over: its conversation goes with the drain.
  const std::unique_ptr<Conversation> done = std::move(conv_);
  for (const auto& [u, wgen] : done->q_join_waiters) {
    const auto k = static_cast<std::uint32_t>(core_.id().csuf_len(u));
    const Digit jd = u.digit(k);
    const NodeId* cur = core_.table.neighbor(k, jd);
    if (cur == nullptr) {
      const HostId host = core_.overlay.host_of(u);
      core_.table.set(k, jd, u, NeighborState::kT, host);
      core_.send_with_gen(
          u, host, JoinWaitRlyMsg{true, u, core_.table.snapshot_full()}, wgen);
    } else if (*cur == u) {
      // Deviation from Figure 13 (see header comment): already storing u is
      // a positive outcome, as in Figure 6.
      core_.send_with_gen(
          u, core_.entry_host(k, jd),
          JoinWaitRlyMsg{true, u, core_.table.snapshot_full()}, wgen);
    } else {
      const std::uint32_t max_backups =
          core_.overlay.options().backups_per_entry;
      if (max_backups > 0) core_.table.offer_backup(k, jd, u, max_backups);
      core_.send_with_gen(
          u, kNoHost,
          JoinWaitRlyMsg{false, *cur, core_.table.snapshot_full()}, wgen);
    }
  }
}

// ---------------------------------------------------------------------------
// Figure 14 and reverse-neighbor bookkeeping

void JoinProtocol::on_in_sys_noti(const NodeId& x) {
  const auto k = static_cast<std::uint32_t>(core_.id().csuf_len(x));
  if (core_.table.holds(k, x.digit(k), x))
    core_.table.set_state(k, x.digit(k), NeighborState::kS);
}

void JoinProtocol::on_rv_ngh_noti(const NodeId& x, HostId x_host,
                                  const RvNghNotiMsg& m) {
  core_.table.add_reverse_neighbor(x);
  if (core_.status == NodeStatus::kLeaving) {
    // x started storing us while we are leaving (e.g. another node handed
    // us out as a leave-repair replacement). Tell it to repair too, so our
    // departure does not strand a dangling pointer.
    if (!leave_.has_notified(x)) leave_.send_leave_to(x);
    return;
  }
  const bool am_s = (core_.status == NodeStatus::kInSystem);
  const bool recorded_s = (m.recorded_state == NeighborState::kS);
  if (recorded_s != am_s) {
    core_.send(x, x_host,
               RvNghNotiRlyMsg{am_s ? NeighborState::kS : NeighborState::kT});
  }
}

void JoinProtocol::on_rv_ngh_noti_rly(const NodeId& y,
                                      const RvNghNotiRlyMsg& m) {
  const auto k = static_cast<std::uint32_t>(core_.id().csuf_len(y));
  if (core_.table.holds(k, y.digit(k), y))
    core_.table.set_state(k, y.digit(k), m.actual_state);
}

}  // namespace hcube
