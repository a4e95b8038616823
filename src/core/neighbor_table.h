// Neighbor table of the hypercube routing scheme (Section 2.1).
//
// d levels × b entries. The (i, j)-entry of node x holds a neighbor whose ID
// shares the rightmost i digits with x.ID and whose i-th digit is j (digits
// counted from the right). Following Section 3 we keep one (primary)
// neighbor per entry, plus the paper's per-neighbor state (T = not yet an
// S-node, S = in system) and the reverse-neighbor bookkeeping that
// InSysNotiMsg delivery needs.
//
// Storage layout (DESIGN.md §13): the d*b entries are structure-of-arrays —
// three parallel level-major columns (node handle, state, host) allocated
// from the owning overlay's arena (or a private exact-fit buffer when the
// table is built standalone, as tests do). IDs are 8-byte interned handles;
// the reverse side is a dense insertion-ordered FlatNodeSet and backups are
// two parallel grouped vectors. Nothing in the table hashes NodeIds through
// std::unordered_* — iteration order is insertion/level order everywhere,
// which the deterministic-replay digests rely on.
//
// The class enforces the suffix invariant on every write: a table can never
// hold a node in an entry whose required suffix the node's ID does not have.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ids/node_id.h"
#include "ids/node_set.h"
#include "proto/messages.h"
#include "util/arena.h"
#include "util/host.h"

namespace hcube {

struct EntryRef {
  std::uint32_t level;  // i
  std::uint32_t digit;  // j
};

class NeighborTable {
 public:
  // Columns come from `arena` when given (Overlay passes its own); a null
  // arena means a private exact-fit allocation (standalone tables).
  NeighborTable(const IdParams& params, NodeId owner, Arena* arena = nullptr);

  NeighborTable(NeighborTable&&) = default;
  NeighborTable& operator=(NeighborTable&&) = default;

  const IdParams& params() const { return params_; }
  const NodeId& owner() const { return owner_; }

  // Re-empties the table in place (crash/restart path). Keeps the column
  // storage — arena memory is never returned.
  void reset();

  // The paper's N_x(i, j); nullptr when the entry is empty.
  const NodeId* neighbor(std::uint32_t level, std::uint32_t digit) const {
    const NodeId& n = ent_node_[index(level, digit)];
    return n.is_valid() ? &n : nullptr;
  }
  NeighborState state(std::uint32_t level, std::uint32_t digit) const;
  bool is_empty(std::uint32_t level, std::uint32_t digit) const {
    return !ent_node_[index(level, digit)].is_valid();
  }

  // Returns true if entry (level, digit) holds exactly this node.
  bool holds(std::uint32_t level, std::uint32_t digit,
             const NodeId& node) const {
    return ent_node_[index(level, digit)] == node && node.is_valid();
  }

  // Sets N_x(level, digit) = node with the given state. Checks the suffix
  // invariant: csuf(node, owner) >= level and node[level] == digit.
  // `host` is the neighbor's transport endpoint when the writer has already
  // resolved it (kNoHost = not resolved yet; memo_host fills it in lazily).
  void set(std::uint32_t level, std::uint32_t digit, const NodeId& node,
           NeighborState state, HostId host = kNoHost);

  // Cached transport endpoint of the entry's neighbor (the envelope a
  // deployment would store alongside the ID); kNoHost when never resolved.
  HostId host(std::uint32_t level, std::uint32_t digit) const {
    return ent_host_[index(level, digit)];
  }
  // Memoizes the host of a filled entry after a lazy resolve.
  void memo_host(std::uint32_t level, std::uint32_t digit, HostId host);

  // Updates only the recorded state; entry must hold `node`.
  void set_state(std::uint32_t level, std::uint32_t digit,
                 NeighborState state);

  // Empties an entry (leave-protocol repair when the departing node was the
  // last member of the entry's suffix class). No-op on an empty entry.
  // Backups of the entry are kept (clear is followed either by a promote or
  // by the entry's class being empty, in which case purge_backup applies).
  void clear(std::uint32_t level, std::uint32_t digit);

  // ---- Redundant neighbors (Section 2.1: "a subset of these nodes ...
  // may be stored in the entry", extras used for fault-tolerant routing) --
  //
  // Backups are opportunistic: offered when a fill finds the entry already
  // occupied. They satisfy the same suffix invariant as the primary but are
  // NOT reverse-tracked (a stale backup is skipped by fault-tolerant
  // routing and recovery, never trusted blindly).

  // Records `node` as a backup for the entry if it is distinct from the
  // primary, the owner, and existing backups, and the backup list has room.
  // Returns true if stored.
  bool offer_backup(std::uint32_t level, std::uint32_t digit,
                    const NodeId& node, std::size_t max_backups);

  // Backups for an entry, in offer order (empty span if none). The span is
  // invalidated by the next backup mutation on this table.
  std::span<const NodeId> backups(std::uint32_t level,
                                  std::uint32_t digit) const;

  // Removes one backup / all backups equal to `node` across the entry.
  void purge_backup(std::uint32_t level, std::uint32_t digit,
                    const NodeId& node);

  // Pops the first backup of the entry (invalid NodeId if none).
  NodeId take_first_backup(std::uint32_t level, std::uint32_t digit);

  std::size_t total_backups() const { return backup_node_.size(); }

  std::size_t filled_count() const { return filled_; }

  // Iterates over non-empty entries in (level, digit) order.
  void for_each_filled(
      const std::function<void(std::uint32_t level, std::uint32_t digit,
                               const NodeId& node, NeighborState state)>& fn)
      const;

  // Snapshot of the non-empty entries with level in [level_lo, level_hi]
  // (inclusive), as carried in protocol messages.
  TableSnapshot snapshot(std::uint32_t level_lo, std::uint32_t level_hi) const;
  TableSnapshot snapshot_full() const {
    return snapshot(0, params_.num_digits - 1);
  }

  // Bit vector with one bit per entry, '1' = filled (Section 6.2).
  BitVec filled_bitvec() const;

  // ---- Reverse neighbors ----
  // v is a reverse neighbor of x when v stores x (x learns this from
  // RvNghNotiMsg or by filling v in response to a JoinWaitMsg). A given v
  // stores x in exactly one entry — (k, x[k]) with k = |csuf(v, x)| — so
  // the entry location is derivable from the two IDs and only the set of
  // storers is kept (8 bytes per storer; an EntryRef value would double
  // that for data no reader uses). Iteration is in insertion order
  // (deterministic).
  void add_reverse_neighbor(const NodeId& v);
  // Replaces the reverse set with `storers` (distinct, valid, not the
  // owner) in the order given, at rest (FlatNodeSet::assign_at_rest). The
  // offline builder's path: it knows every storer up front.
  void assign_reverse_neighbors(std::vector<NodeId> storers);
  // v stopped storing the owner (leave protocol). No-op if unknown.
  void remove_reverse_neighbor(const NodeId& v) { reverse_.erase(v); }
  const FlatNodeSet& reverse_neighbors() const { return reverse_; }

  // Approximate heap/arena bytes behind this table (columns + reverse +
  // backups), for bytes/node accounting.
  std::size_t bytes_used() const;

  // Releases growth slack on the backup vectors; the arena-backed columns
  // are exact-fit already and the builder assigns reverse sets at rest.
  // Called by the offline builder after a table's last backup install.
  void shrink_backups();

  std::string to_string() const;

 private:
  std::size_t index(std::uint32_t level, std::uint32_t digit) const {
    HCUBE_DCHECK(level < params_.num_digits);
    HCUBE_DCHECK(digit < params_.base);
    return static_cast<std::size_t>(level) * params_.base + digit;
  }

  // Locates the backup group for an entry slot: [lo, hi) in backup_node_.
  void backup_range(std::uint32_t slot, std::size_t* lo, std::size_t* hi) const;

  IdParams params_;
  NodeId owner_;

  // SoA columns, level-major, d*b each. Either arena memory or
  // self_storage_; raw pointers are stable for the table's lifetime.
  NodeId* ent_node_ = nullptr;
  NeighborState* ent_state_ = nullptr;
  HostId* ent_host_ = nullptr;
  std::unique_ptr<std::byte[]> self_storage_;  // null when arena-backed

  std::size_t filled_ = 0;
  FlatNodeSet reverse_;
  // Backups, grouped by entry slot: backup_slot_[k] is the level*b+digit
  // slot of backup_node_[k], groups contiguous in first-offer order.
  // Sparse and tiny in practice (most entries have none), so two parallel
  // vectors beat any per-entry structure.
  std::vector<std::uint32_t> backup_slot_;
  std::vector<NodeId> backup_node_;
};

}  // namespace hcube
