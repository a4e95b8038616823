// The join-protocol state machine of Section 4 (Figures 5 through 14): the
// join handlers of Node (core/node.h).
//
// The pseudo-code in the paper reads neighbor tables of remote nodes
// directly; here every remote read is an explicit message exchange over the
// simulated network (CpRstMsg/CpRlyMsg for the copying loop of Figure 5).
// The RvNghNotiMsg bookkeeping that the paper's figures elide "for clarity
// of presentation" is implemented in full: whenever a node fills a non-self
// neighbor into an entry it notifies that neighbor, so reverse-neighbor sets
// are complete and InSysNotiMsg (Figure 13) reaches every node that stored a
// joiner while it was still a T-node.
//
// Documented deviation: in Switch_To_S_Node (Figure 13) the paper replies
// negative when N_x(k, u[k]) is non-null, even if the entry already holds u
// itself; a negative reply naming u would make u send a JoinWaitMsg to
// itself. We treat "entry already holds u" as positive, mirroring the
// receiving-side logic of Figure 6 (whose negative branch explicitly
// excludes N_y(k, x[k]) == x).
//
// Robustness extension (the paper assumes reliable delivery): a join-stall
// watchdog. Each join attempt carries a generation tag (Node::attempt_gen_,
// echoed by replies); if the node is still not an S-node join_watchdog_ms
// after an attempt began — e.g. the reliable transport exhausted its retry
// budget on some message — the watchdog aborts the attempt, bumps the
// generation and restarts the copy walk from the original gateway. Replies
// tagged with an aborted attempt's generation are rejected (except that a
// stale *positive* reply still registers the replier as a reverse neighbor:
// the peer really did store us, and must get our InSysNotiMsg when we
// eventually switch). Restarted copying tolerates the leftovers of the
// aborted attempt: entries already filled are kept (fill_if_empty instead
// of the fresh-join empty-entry invariant) and a copy walk that runs into
// ourselves — a peer stored us during the aborted attempt — ends by waiting
// on that peer.
#include <algorithm>

#include "core/node.h"

#include "core/overlay.h"
#include "proto/conformance.h"
#include "util/check.h"

namespace hcube {

// The handlers below lean on the conformance registry's contracts; pin the
// assumptions at compile time so an edit to the registry that would break
// the join protocol fails the build here, next to the code it breaks.
//
// reject_stale_reply() only works on messages that echo the request
// generation — every reply type these handlers consume must be declared so.
static_assert(conformance_of(MessageType::kCpRly).echoes_gen &&
                  conformance_of(MessageType::kJoinWaitRly).echoes_gen &&
                  conformance_of(MessageType::kJoinNotiRly).echoes_gen &&
                  conformance_of(MessageType::kSpeNotiRly).echoes_gen,
              "join replies must echo the request generation");
// SpeNotiMsg is forwarded while handling a message of the announced attempt
// and must carry that attempt's generation down the chain (Figure 11).
static_assert(conformance_of(MessageType::kSpeNoti).echoes_gen,
              "SpeNotiMsg must propagate the originator's generation");
// The three join requests each prescribe the reply type the
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

void Node::start_join(const NodeId& g0) {
  HCUBE_CHECK_MSG(!started_, "node already started");
  HCUBE_CHECK_MSG(g0 != id(), "cannot join via self");
  started_ = true;
  stats_.t_begin = overlay_.now();
  join_ = std::make_unique<JoinConversation>();
  join_->gateway = g0;
  // Bumped, never reset. Fresh node: 0 -> 1. Crash-restarted node: the
  // counter survived the crash (restart keeps it) and climbs past every
  // pre-crash attempt, so stale replies to the old incarnation are
  // rejected.
  ++attempt_gen_;
  begin_attempt();
  arm_join_watchdog();
}

void Node::begin_attempt() {
  set_status(NodeStatus::kCopying);
  JoinConversation& c = join_conv();
  c.copy_level = 0;
  c.copy_from = c.gateway;
  send(c.gateway, CpRstMsg{});
}

void Node::arm_join_watchdog() {
  const double delay_ms = overlay_.options().join_watchdog_ms;
  if (delay_ms <= 0.0) return;
  const std::uint32_t gen = attempt_gen_;
  overlay_.schedule(delay_ms, [this, gen] { on_join_watchdog(gen); });
}

void Node::on_join_watchdog(std::uint32_t gen) {
  // Only the watchdog armed for the current attempt may restart it, and
  // only while the join is actually stuck mid-flight.
  if (gen != attempt_gen_ || !is_joining(status_)) return;
  const ProtocolOptions& opt = overlay_.options();
  if (stats_.watchdog_restarts >= opt.join_max_restarts) return;
  ++stats_.watchdog_restarts;
  ++attempt_gen_;
  JoinConversation& c = join_conv();
  // Every peer whose reply the aborted attempt was still waiting on stayed
  // silent for a whole watchdog period: record them as suspects before the
  // queues are wiped, copy source included (a mid-walk stall means the
  // current CpRstMsg target never answered). Counting is unconditional —
  // it is pure bookkeeping — but only suspect_aware_rotation acts on it.
  for (const NodeId& p : c.q_replies) note_suspect(p);
  for (const NodeId& p : c.q_spe_replies) note_suspect(p);
  if (status_ == NodeStatus::kCopying && c.copy_from.is_valid())
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
    const std::uint32_t k = std::min(
        stats_.watchdog_restarts > 0 ? stats_.watchdog_restarts - 1 : 0u, 6u);
    const double delay_ms = opt.join_backoff_base_ms *
                            static_cast<double>(std::uint32_t{1} << k) *
                            overlay_.backoff_jitter();
    ++overlay_.lane_join_counters().backoff_waits;
    const std::uint32_t wait_gen = attempt_gen_;
    overlay_.schedule(delay_ms, [this, wait_gen] {
      if (wait_gen != attempt_gen_ || !is_joining(status_)) return;
      begin_attempt();
      arm_join_watchdog();
    });
    return;
  }
  begin_attempt();
  arm_join_watchdog();
}

void Node::rotate_gateway() {
  // Candidates: every distinct S-state table neighbor plus the original
  // gateway, cycled by restart count — consecutive restarts try different
  // entry points until one answers. Table iteration order is (level,
  // digit), so the choice is deterministic.
  JoinConversation& c = join_conv();
  std::vector<NodeId> candidates;
  table_.for_each_filled([&](std::uint32_t, std::uint32_t, const NodeId& n,
                             NeighborState state) {
    if (state != NeighborState::kS || n == id() || n == c.gateway) return;
    for (const NodeId& known : candidates)
      if (known == n) return;
    candidates.push_back(n);
  });
  if (candidates.empty()) return;
  if (overlay_.options().suspect_aware_rotation) {
    // Skip peers already recorded silent, when anyone else is available —
    // rotating back onto a reply-dropper just burns another restart.
    std::vector<NodeId> trusted;
    for (const NodeId& n : candidates)
      if (!c.suspects.contains(n)) trusted.push_back(n);
    if (!trusted.empty()) {
      if (!c.suspects.contains(c.gateway)) trusted.push_back(c.gateway);
      c.gateway = trusted[stats_.watchdog_restarts % trusted.size()];
      return;
    }
  }
  candidates.push_back(c.gateway);
  c.gateway = candidates[stats_.watchdog_restarts % candidates.size()];
}

void Node::note_suspect(const NodeId& peer) {
  ++overlay_.lane_join_counters().suspected_peers;
  join_conv().suspects.insert(peer);
}

void Node::arm_reply_janitor(const NodeId& peer, bool spe) {
  const double delay_ms = overlay_.options().reply_timeout_ms;
  if (delay_ms <= 0.0) return;
  const std::uint32_t gen = attempt_gen_;
  overlay_.schedule(delay_ms, [this, peer, gen, spe] {
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
void Node::on_reply_janitor(const NodeId& peer, std::uint32_t gen, bool spe) {
  if (gen != attempt_gen_) return;
  if (status_ != NodeStatus::kNotifying) return;
  NodeIdSet& q = spe ? join_conv().q_spe_replies : join_conv().q_replies;
  if (!q.contains(peer)) return;
  note_suspect(peer);
  q.erase(peer);
  maybe_switch_to_s_node();
}

bool Node::reject_stale_reply() {
  if (handling_gen_ == attempt_gen_) return false;
  ++overlay_.lane_join_counters().stale_rejected;
  return true;
}

void Node::on_cp_rly(const NodeId& g, const CpRlyMsg& msg) {
  if (reject_stale_reply()) return;
  HCUBE_CHECK(status_ == NodeStatus::kCopying);
  JoinConversation& c = join_conv();
  HCUBE_CHECK(g == c.copy_from);

  // Copy level-i neighbors of g into level-i of our table. On a fresh join
  // every entry at this level is provably empty (copy_entry checks); after
  // a watchdog restart the walk revisits territory the aborted attempt
  // already copied, so only fill gaps. g's table may also hold *us* from
  // the aborted attempt — never copy ourselves.
  for (const SnapshotEntry& e : msg.table.entries) {
    if (e.level != c.copy_level) continue;
    if (e.node == id()) continue;
    if (attempt_gen_ > 1)
      fill_if_empty(e.level, e.digit, e.node, e.state);
    else
      copy_entry(e.level, e.digit, e.node, e.state);
  }

  // p = g; g = N_p(i, x[i]); s = N_p(i, x[i]).state; i++.
  const SnapshotEntry* next = nullptr;
  for (const SnapshotEntry& e : msg.table.entries) {
    if (e.level == c.copy_level && e.digit == id().digit(c.copy_level)) {
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
  if (next->node == id()) {
    // Only possible after a restart: p stored us during the aborted
    // attempt, so the walk ran into ourselves. p is then the closest node
    // sharing our suffix that is not us — wait on it.
    HCUBE_CHECK_MSG(attempt_gen_ > 1, "joining node found in a table");
    finish_copying_and_wait(prev);
    return;
  }
  if (next->state == NeighborState::kS) {
    HCUBE_CHECK_MSG(c.copy_level < params().num_digits,
                    "copied all levels; duplicate ID in network?");
    c.copy_from = next->node;
    send(c.copy_from, CpRstMsg{});
  } else {
    // g_{k+1} exists but is still a T-node: wait on it.
    finish_copying_and_wait(next->node);
  }
}

void Node::finish_copying_and_wait(const NodeId& target) {
  // x adds itself into its table.
  for (std::uint32_t i = 0; i < params().num_digits; ++i)
    table_.set(i, id().digit(i), id(), NeighborState::kT, self_host_);
  set_status(NodeStatus::kWaiting);
  send(target, JoinWaitMsg{});
  join_conv().q_notified.insert(target);
  join_conv().q_replies.insert(target);
}

// ---------------------------------------------------------------------------
// Figure 6: receiving JoinWaitMsg

void Node::on_join_wait(const NodeId& x, HostId x_host) {
  if (status_ != NodeStatus::kInSystem) {
    // Defer; remember the request's generation so the eventual reply (sent
    // from switch_to_s_node, outside this handler) still echoes it. A
    // repeated JoinWaitMsg from a restarted attempt overwrites the tag. A
    // leaving node defers too, and never answers.
    join_conv().q_join_waiters.put(x, handling_gen_);
    return;
  }
  const auto k = static_cast<std::uint32_t>(id().csuf_len(x));
  const Digit jd = x.digit(k);
  const NodeId* cur = table_.neighbor(k, jd);
  if (cur != nullptr && *cur != x) {
    const std::uint32_t max_backups = overlay_.options().backups_per_entry;
    if (max_backups > 0) table_.offer_backup(k, jd, x, max_backups);
    send(x, x_host, JoinWaitRlyMsg{false, *cur, table_.snapshot_full()});
  } else {
    if (cur == nullptr)
      table_.set(k, jd, x, NeighborState::kT, x_host);
    // We now store x, so we are a reverse neighbor of x; x learns this from
    // the positive reply (Figure 7 adds us to R_x).
    send(x, x_host, JoinWaitRlyMsg{true, x, table_.snapshot_full()});
  }
}

// ---------------------------------------------------------------------------
// Figure 7: receiving JoinWaitRlyMsg

void Node::on_join_wait_rly(const NodeId& y, const JoinWaitRlyMsg& m) {
  const auto k = static_cast<std::uint32_t>(id().csuf_len(y));
  // The reply proves y is an S-node (true whatever generation it carries).
  if (table_.holds(k, y.digit(k), y))
    table_.set_state(k, y.digit(k), NeighborState::kS);
  if (reject_stale_reply()) {
    // A stale *positive* still means y stored us: y must be in R_x so our
    // InSysNotiMsg reaches it when the current attempt completes.
    if (m.positive)
      table_.add_reverse_neighbor(y);
    return;
  }
  if (join_) join_->q_replies.erase(y);

  if (m.positive) {
    HCUBE_CHECK(status_ == NodeStatus::kWaiting);
    set_status(NodeStatus::kNotifying);
    stats_.noti_level = k;
    table_.add_reverse_neighbor(y);
  } else {
    HCUBE_CHECK_MSG(m.u != id(),
                    "negative JoinWaitRly naming the joiner");
    send(m.u, JoinWaitMsg{});
    join_conv().q_notified.insert(m.u);
    join_conv().q_replies.insert(m.u);
  }
  check_ngh_table(m.table);
  maybe_switch_to_s_node();
}

// ---------------------------------------------------------------------------
// Figure 8: Check_Ngh_Table

void Node::check_ngh_table(const TableSnapshot& snap) {
  for (const SnapshotEntry& e : snap.entries) {
    if (e.node == id()) continue;
    const auto k = static_cast<std::uint32_t>(id().csuf_len(e.node));
    const Digit jd = e.node.digit(k);
    fill_if_empty(k, jd, e.node, e.state);
    if (status_ == NodeStatus::kNotifying && k >= stats_.noti_level &&
        !join_conv().q_notified.contains(e.node)) {
      send_join_noti(e.node);
      join_conv().q_notified.insert(e.node);
      join_conv().q_replies.insert(e.node);
      arm_reply_janitor(e.node, /*spe=*/false);
    }
  }
}

void Node::send_join_noti(const NodeId& target) {
  const std::uint32_t noti_level = stats_.noti_level;
  const SnapshotPolicy policy = overlay_.options().snapshot_policy;
  JoinNotiMsg msg;
  msg.sender_noti_level = static_cast<std::uint8_t>(noti_level);
  switch (policy) {
    case SnapshotPolicy::kFullTable:
      msg.table = table_.snapshot_full();
      break;
    case SnapshotPolicy::kPartialLevels:
    case SnapshotPolicy::kBitVector: {
      // §6.2: levels noti_level .. |csuf(x, y)| suffice.
      const auto k = static_cast<std::uint32_t>(id().csuf_len(target));
      msg.table = table_.snapshot(std::min(noti_level, k), k);
      if (policy == SnapshotPolicy::kBitVector)
        msg.filled = table_.filled_bitvec();
      break;
    }
  }
  send(target, std::move(msg));
}

// ---------------------------------------------------------------------------
// Figure 9: receiving JoinNotiMsg

JoinNotiRlyMsg Node::build_join_noti_rly(bool positive, bool flag,
                                         const JoinNotiMsg& request) const {
  JoinNotiRlyMsg reply;
  reply.positive = positive;
  reply.flag = flag;
  if (overlay_.options().snapshot_policy == SnapshotPolicy::kBitVector &&
      request.filled.has_value()) {
    // §6.2: below the requester's notification level include only entries
    // it lacks; at and above it include everything (the requester must
    // discover nodes to notify there even where its entries are filled).
    const BitVec& filled = *request.filled;
    table_.for_each_filled([&](std::uint32_t i, std::uint32_t j,
                               const NodeId& node, NeighborState state) {
      const std::size_t bit =
          static_cast<std::size_t>(i) * params().base + j;
      if (i >= request.sender_noti_level ||
          bit >= filled.size() || !filled.get(bit)) {
        reply.table.add(static_cast<std::uint8_t>(i),
                        static_cast<std::uint8_t>(j), node, state);
      }
    });
  } else {
    reply.table = table_.snapshot_full();
  }
  return reply;
}

void Node::on_join_noti(const NodeId& x, HostId x_host, const JoinNotiMsg& m) {
  const auto k = static_cast<std::uint32_t>(id().csuf_len(x));
  const Digit jd = x.digit(k);
  bool flag = false;
  fill_if_empty(k, jd, x, NeighborState::kT);
  // Does x's table (as sent) hold us at (k, y[k])? If not and we are an
  // S-node, set the flag so x announces us to the occupant (Figure 10).
  const Digit our_digit = id().digit(k);
  bool x_has_us = false;
  for (const SnapshotEntry& e : m.table.entries) {
    if (e.level == k && e.digit == our_digit && e.node == id()) {
      x_has_us = true;
      break;
    }
  }
  if (!x_has_us && status_ == NodeStatus::kInSystem) flag = true;

  const bool positive = table_.holds(k, jd, x);
  send(x, x_host, build_join_noti_rly(positive, flag, m));
  check_ngh_table(m.table);
}

// ---------------------------------------------------------------------------
// Figure 10: receiving JoinNotiRlyMsg

void Node::on_join_noti_rly(const NodeId& y, const JoinNotiRlyMsg& m) {
  const auto k = static_cast<std::uint32_t>(id().csuf_len(y));
  if (reject_stale_reply()) {
    // As in Figure 7: a stale positive proves y stored us — keep it in R_x.
    if (m.positive)
      table_.add_reverse_neighbor(y);
    return;
  }
  // After a janitor eviction the reply can land once we settled and the
  // conversation is gone; it is then absorbed like any late reply.
  if (join_) join_->q_replies.erase(y);
  if (m.positive) table_.add_reverse_neighbor(y);
  // The kNotifying guard matters once the reply janitor exists: a reply
  // from an evicted peer can land after we already switched to S-node, and
  // opening a new SpeNoti conversation then would leak outstanding-reply
  // state forever (nothing drains Q_sr after the switch).
  if (status_ == NodeStatus::kNotifying && m.flag &&
      k > stats_.noti_level && !join_conv().q_spe_notified.contains(y)) {
    const NodeId* u1 = table_.neighbor(k, y.digit(k));
    HCUBE_CHECK_MSG(u1 != nullptr && *u1 != y,
                    "flagged entry must hold a competitor node");
    send(*u1, entry_host(k, y.digit(k)), SpeNotiMsg{id(), y});
    join_conv().q_spe_notified.insert(y);
    join_conv().q_spe_replies.insert(y);
    arm_reply_janitor(y, /*spe=*/true);
  }
  check_ngh_table(m.table);
  maybe_switch_to_s_node();
}

// ---------------------------------------------------------------------------
// Figure 11: receiving SpeNotiMsg

void Node::on_spe_noti(const SpeNotiMsg& m) {
  HCUBE_CHECK(m.y != id());  // the forwarding chain never reaches y
  const auto k = static_cast<std::uint32_t>(id().csuf_len(m.y));
  const Digit jd = m.y.digit(k);
  fill_if_empty(k, jd, m.y, NeighborState::kS);
  if (!table_.holds(k, jd, m.y)) {
    send(*table_.neighbor(k, jd), entry_host(k, jd), SpeNotiMsg{m.x, m.y});
  } else {
    send(m.x, SpeNotiRlyMsg{m.x, m.y});
  }
}

// ---------------------------------------------------------------------------
// Figure 12: receiving SpeNotiRlyMsg

void Node::on_spe_noti_rly(const SpeNotiRlyMsg& m) {
  if (reject_stale_reply()) return;
  if (join_) join_->q_spe_replies.erase(m.y);
  maybe_switch_to_s_node();
}

// ---------------------------------------------------------------------------
// Figure 13: Switch_To_S_Node

void Node::maybe_switch_to_s_node() {
  if (status_ == NodeStatus::kNotifying && join_conv().q_replies.empty() &&
      join_conv().q_spe_replies.empty()) {
    switch_to_s_node();
  }
}

void Node::switch_to_s_node() {
  HCUBE_CHECK(status_ == NodeStatus::kNotifying);
  set_status(NodeStatus::kInSystem);
  stats_.t_end = overlay_.now();
  for (std::uint32_t i = 0; i < params().num_digits; ++i)
    table_.set_state(i, id().digit(i), NeighborState::kS);
  for (const NodeId& v : table_.reverse_neighbors()) {
    send(v, InSysNotiMsg{});
  }
  // Answer the deferred JoinWaitMsg senders, echoing each request's own
  // generation (we are outside its handler, so the automatic stamp would
  // be wrong). The join is over: its conversation goes with the drain.
  const std::unique_ptr<JoinConversation> done = std::move(join_);
  for (const auto& [u, wgen] : done->q_join_waiters) {
    const auto k = static_cast<std::uint32_t>(id().csuf_len(u));
    const Digit jd = u.digit(k);
    const NodeId* cur = table_.neighbor(k, jd);
    if (cur == nullptr) {
      const HostId host = overlay_.host_of(u);
      table_.set(k, jd, u, NeighborState::kT, host);
      send_with_gen(
          u, host, JoinWaitRlyMsg{true, u, table_.snapshot_full()}, wgen);
    } else if (*cur == u) {
      // Deviation from Figure 13 (see the top of this file): already
      // storing u is a positive outcome, as in Figure 6.
      send_with_gen(
          u, entry_host(k, jd),
          JoinWaitRlyMsg{true, u, table_.snapshot_full()}, wgen);
    } else {
      const std::uint32_t max_backups =
          overlay_.options().backups_per_entry;
      if (max_backups > 0) table_.offer_backup(k, jd, u, max_backups);
      send_with_gen(
          u, kNoHost,
          JoinWaitRlyMsg{false, *cur, table_.snapshot_full()}, wgen);
    }
  }
}

// ---------------------------------------------------------------------------
// Figure 14 and reverse-neighbor bookkeeping

void Node::on_in_sys_noti(const NodeId& x) {
  const auto k = static_cast<std::uint32_t>(id().csuf_len(x));
  if (table_.holds(k, x.digit(k), x))
    table_.set_state(k, x.digit(k), NeighborState::kS);
}

void Node::on_rv_ngh_noti(const NodeId& x, HostId x_host,
                          const RvNghNotiMsg& m) {
  table_.add_reverse_neighbor(x);
  if (status_ == NodeStatus::kLeaving) {
    // x started storing us while we are leaving (e.g. another node handed
    // us out as a leave-repair replacement). Tell it to repair too, so our
    // departure does not strand a dangling pointer.
    if (!leave_notified(x)) send_leave_to(x);
    return;
  }
  const bool am_s = (status_ == NodeStatus::kInSystem);
  const bool recorded_s = (m.recorded_state == NeighborState::kS);
  if (recorded_s != am_s) {
    send(x, x_host,
         RvNghNotiRlyMsg{am_s ? NeighborState::kS : NeighborState::kT});
  }
}

void Node::on_rv_ngh_noti_rly(const NodeId& y, const RvNghNotiRlyMsg& m) {
  const auto k = static_cast<std::uint32_t>(id().csuf_len(y));
  if (table_.holds(k, y.digit(k), y))
    table_.set_state(k, y.digit(k), m.actual_state);
}

}  // namespace hcube
