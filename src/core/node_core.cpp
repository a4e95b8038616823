#include "core/node_core.h"

#include "core/overlay.h"
#include "util/check.h"

namespace hcube {

const char* to_string(SnapshotPolicy p) {
  switch (p) {
    case SnapshotPolicy::kFullTable: return "full-table";
    case SnapshotPolicy::kPartialLevels: return "partial-levels";
    case SnapshotPolicy::kBitVector: return "bit-vector";
  }
  return "?";
}

NodeCore::NodeCore(NodeId id, const IdParams& params, Overlay& overlay_arg,
                   Arena* arena)
    : overlay(overlay_arg), table(params, id, arena) {}

void NodeCore::set_status(NodeStatus next) {
  const NodeStatus prev = status;
  status = next;
  overlay.note_status_change(id(), prev, next, attempt_gen);
}

void NodeCore::reset_for_restart() {
  // In-place wipe: the table's column storage (possibly arena memory that
  // is never returned) is reused by the new incarnation.
  table.reset();
  // Direct write, not set_status: the kCrashed -> kCopying flip is part of
  // reviving the core, not a protocol transition. The span tracer sees the
  // new incarnation when the rejoin's begin_attempt() reports kCopying.
  status = NodeStatus::kCopying;
  started = false;
  handling_gen = 0;
  stats.t_end = -1.0;
  stats.reset_for_new_incarnation();
  // A builder-installed member never joined, so its generation is still 0
  // and the rejoin would run at generation 1 — the join protocol's marker
  // for a virgin first attempt whose ID provably appears in no table. This
  // node's ID is all over the network; make the rejoin look like what it
  // is, a restarted attempt (generation >= 2 after start_join's bump).
  if (attempt_gen == 0) attempt_gen = 1;
}

void NodeCore::send(const NodeId& to, MessageBody body) {
  send_with_gen(to, kNoHost, std::move(body), 0);
}

void NodeCore::send(const NodeId& to, HostId to_host, MessageBody body) {
  send_with_gen(to, to_host, std::move(body), 0);
}

void NodeCore::send_with_gen(const NodeId& to, HostId to_host,
                             MessageBody body, std::uint32_t gen) {
  const MessageType t = type_of(body);
  if (gen == 0) gen = echoes_request_gen(t) ? handling_gen : attempt_gen;
  overlay.send_message(id(), to, std::move(body), self_host, to_host, gen);
}

bool NodeCore::fill_if_empty(std::uint32_t level, std::uint32_t digit,
                             const NodeId& node, NeighborState state) {
  if (!table.is_empty(level, digit)) {
    // Occupied: remember the node as a redundant neighbor if configured.
    const std::uint32_t max_backups = overlay.options().backups_per_entry;
    if (max_backups > 0 && node != id())
      table.offer_backup(level, digit, node, max_backups);
    return false;
  }
  if (node == id()) {
    table.set(level, digit, node, state, self_host);
    return true;
  }
  // Resolve the neighbor's endpoint once at fill time; every later send to
  // this entry reads the cached host instead of hashing the ID.
  const HostId host = overlay.host_of(node);
  table.set(level, digit, node, state, host);
  // "When any node x sets N_x(i, j) = y, y != x, x needs to send a
  // RvNghNotiMsg(y, N_x(i, j).state) to y" (Section 4).
  send(node, host, RvNghNotiMsg{state});
  return true;
}

void NodeCore::copy_entry(std::uint32_t level, std::uint32_t digit,
                          const NodeId& node, NeighborState state) {
  // During copying nobody else writes our table (no other node knows us
  // yet), and each level is copied exactly once, so the entry is empty.
  HCUBE_CHECK_MSG(table.is_empty(level, digit),
                  "copy-phase entry unexpectedly filled");
  if (node == id()) {
    table.set(level, digit, node, state, self_host);
    return;
  }
  const HostId host = overlay.host_of(node);
  table.set(level, digit, node, state, host);
  send(node, host, RvNghNotiMsg{state});
}

HostId NodeCore::entry_host(std::uint32_t level, std::uint32_t digit) {
  const HostId cached = table.host(level, digit);
  if (cached != kNoHost) return cached;
  const NodeId* node = table.neighbor(level, digit);
  HCUBE_CHECK_MSG(node != nullptr, "entry_host() of an empty entry");
  const HostId host = overlay.host_of(*node);
  table.memo_host(level, digit, host);
  return host;
}

}  // namespace hcube
