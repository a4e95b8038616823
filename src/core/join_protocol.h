// The join-protocol state machine of Section 4 (Figures 5 through 14).
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
// watchdog. Each join attempt carries a generation tag (NodeCore::
// attempt_gen, echoed by replies); if the node is still not an S-node
// join_watchdog_ms after an attempt began — e.g. the reliable transport
// exhausted its retry budget on some message — the watchdog aborts the
// attempt, bumps the generation and restarts the copy walk from the
// original gateway. Replies tagged with an aborted attempt's generation are
// rejected (except that a stale *positive* reply still registers the
// replier as a reverse neighbor: the peer really did store us, and must
// get our InSysNotiMsg when we eventually switch). Restarted copying
// tolerates the leftovers of the aborted attempt: entries already filled
// are kept (fill_if_empty instead of the fresh-join empty-entry invariant)
// and a copy walk that runs into ourselves — a peer stored us during the
// aborted attempt — ends by waiting on that peer.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "core/leave_protocol.h"
#include "core/node_core.h"

namespace hcube {

class JoinProtocol {
 public:
  // Needs the leave module for one cross-protocol edge: a RvNghNotiMsg
  // arriving while this node is leaving must trigger a LeaveMsg to the new
  // reverse neighbor (otherwise our departure strands a dangling pointer).
  JoinProtocol(NodeCore& core, LeaveProtocol& leave)
      : core_(core), leave_(leave) {}

  // Figure 5: begin joining via gateway g0 (assumed to be an S-node of V).
  // Bumps the attempt generation rather than resetting it, so a node
  // rejoining after a crash (Node::restart) starts beyond every pre-crash
  // attempt and its generation filter rejects stale in-flight replies.
  void start_join(const NodeId& g0);

  // Crash-recovery lifecycle: forgets every conversation of the previous
  // incarnation. The attempt generation is NodeCore state and survives.
  void reset() { conv_.reset(); }

  // The notification start level is published to JoinStats::noti_level
  // (the registry's one source of truth); read it via Node::noti_level().

  // True when no conversation state is outstanding: no reply awaited, no
  // deferred JoinWaitMsg sender unanswered. The chaos oracles assert this
  // on every in-system node at quiescence — leaked entries there are
  // replies that will never come or waiters never answered. (Q_n / Q_sn
  // are deliberately NOT included: they are the paper's permanent dedup
  // memory of who was already notified.)
  bool idle() const {
    return conv_ == nullptr ||
           (conv_->q_replies.empty() && conv_->q_join_waiters.empty() &&
            conv_->q_spe_replies.empty());
  }

  // ---- message handlers ----
  void on_cp_rly(const NodeId& g, const CpRlyMsg& msg);   // copying loop body
  void on_join_wait(const NodeId& x, HostId x_host);      // Figure 6
  void on_join_wait_rly(const NodeId& y, const JoinWaitRlyMsg& m);  // Fig. 7
  void on_join_noti(const NodeId& x, HostId x_host,
                    const JoinNotiMsg& m);                // Figure 9
  void on_join_noti_rly(const NodeId& y, const JoinNotiRlyMsg& m);  // Fig. 10
  void on_spe_noti(const SpeNotiMsg& m);                  // Figure 11
  void on_spe_noti_rly(const SpeNotiRlyMsg& m);           // Figure 12
  void on_in_sys_noti(const NodeId& x);                   // Figure 14
  void on_rv_ngh_noti(const NodeId& x, HostId x_host, const RvNghNotiMsg& m);
  void on_rv_ngh_noti_rly(const NodeId& y, const RvNghNotiRlyMsg& m);

  // The current join's silent-past-deadline peers (see
  // Conversation::suspects; empty once the node settled). The chaos
  // engine's quarantine oracle reads this to attribute an abandoned join: a
  // joiner whose suspects include a genuinely crashed node can abandon
  // without any misbehaving peer's help.
  std::span<const NodeId> suspects() const {
    return conv_ ? conv_->suspects.items() : std::span<const NodeId>{};
  }

 private:
  // The state of one join (Figure 3's variables plus the copy cursor):
  // created by start_join, dropped when the node switches to S-node or
  // restarts. A node that is not joining holds none — except a leaving
  // node that defers a JoinWaitMsg, which opens one for Q_j alone.
  struct Conversation {
    std::uint32_t noti_level = 0;
    // Copying-phase cursor (Figure 5's i and g) and the original gateway
    // the watchdog restarts from.
    std::uint32_t copy_level = 0;
    NodeId copy_from;
    NodeId gateway;
    NodeIdSet q_replies;   // Q_r: nodes we await replies from
    NodeIdSet q_notified;  // Q_n: nodes we sent notifications to
    // Q_j: deferred JoinWaitMsg senders, each with the generation its
    // request carried (the eventual reply must echo it). Insertion-ordered:
    // the switch_to_s_node drain answers waiters in arrival order.
    FlatNodeMap<std::uint32_t> q_join_waiters;
    NodeIdSet q_spe_replies;   // Q_sr: SpeNoti replies outstanding (key: y)
    NodeIdSet q_spe_notified;  // Q_sn: nodes announced via SpeNotiMsg
    // Peers recorded silent-past-deadline (reply-janitor expiry, or left
    // in an outstanding-reply set when the watchdog aborted an attempt).
    // Persists across watchdog restarts — that persistence is what lets
    // suspect-aware rotation route the next attempt around them. The
    // overlay-wide count of recordings exports as "join.suspected_peers"
    // (Overlay::JoinCounters).
    NodeIdSet suspects;
  };

  // The join's conversation, opened on first use (see Conversation).
  Conversation& conv() {
    if (!conv_) conv_ = std::make_unique<Conversation>();
    return *conv_;
  }

  void begin_attempt();                                   // (re)start Figure 5
  void arm_watchdog();
  void on_watchdog(std::uint32_t gen);
  void rotate_gateway();                                  // see on_watchdog
  // Misbehaving-peer hardening (ProtocolOptions::reply_timeout_ms /
  // suspect_aware_rotation; DESIGN.md §14). note_suspect records a peer
  // that stayed silent past a deadline; the janitor is a per-notification
  // timer that evicts such a peer from the outstanding-reply set so a
  // reply-dropper cannot pin the join in kNotifying.
  void note_suspect(const NodeId& peer);
  void arm_reply_janitor(const NodeId& peer, bool spe);
  void on_reply_janitor(const NodeId& peer, std::uint32_t gen, bool spe);
  // True (and counted) when the message being handled carries the
  // generation of an aborted attempt.
  bool reject_stale_reply();
  void finish_copying_and_wait(const NodeId& target);     // tail of Figure 5
  void check_ngh_table(const TableSnapshot& snap);        // Figure 8
  void send_join_noti(const NodeId& target);
  JoinNotiRlyMsg build_join_noti_rly(bool positive, bool flag,
                                     const JoinNotiMsg& request) const;
  void maybe_switch_to_s_node();
  void switch_to_s_node();                                // Figure 13

  NodeCore& core_;
  LeaveProtocol& leave_;
  std::unique_ptr<Conversation> conv_;
};

}  // namespace hcube
