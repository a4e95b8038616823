#include "core/neighbor_table.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/check.h"

namespace hcube {
namespace {

// Column sizes for a d*b table, padded so each column is 8-byte aligned
// inside one contiguous block.
std::size_t aligned(std::size_t bytes) { return (bytes + 7) & ~std::size_t{7}; }

}  // namespace

NeighborTable::NeighborTable(const IdParams& params, NodeId owner,
                             Arena* arena)
    : params_(params), owner_(owner) {
  params_.validate();
  HCUBE_CHECK(owner_.is_valid());
  HCUBE_CHECK(owner_.num_digits() == params_.num_digits);
  const std::size_t n =
      static_cast<std::size_t>(params_.num_digits) * params_.base;
  if (arena != nullptr) {
    ent_node_ = arena->alloc_array<NodeId>(n);
    ent_state_ = arena->alloc_array<NeighborState>(n);
    ent_host_ = arena->alloc_array<HostId>(n);
  } else {
    const std::size_t bytes = aligned(n * sizeof(NodeId)) +
                              aligned(n * sizeof(NeighborState)) +
                              aligned(n * sizeof(HostId));
    self_storage_ = std::make_unique<std::byte[]>(bytes);
    std::byte* p = self_storage_.get();
    ent_node_ = reinterpret_cast<NodeId*>(p);
    p += aligned(n * sizeof(NodeId));
    ent_state_ = reinterpret_cast<NeighborState*>(p);
    p += aligned(n * sizeof(NeighborState));
    ent_host_ = reinterpret_cast<HostId*>(p);
  }
  reset();
}

void NeighborTable::reset() {
  const std::size_t n =
      static_cast<std::size_t>(params_.num_digits) * params_.base;
  std::fill_n(ent_node_, n, NodeId());
  std::fill_n(ent_state_, n, NeighborState::kT);
  std::fill_n(ent_host_, n, kNoHost);
  filled_ = 0;
  reverse_.clear();
  backup_slot_.clear();
  backup_node_.clear();
}

NeighborState NeighborTable::state(std::uint32_t level,
                                   std::uint32_t digit) const {
  const std::size_t k = index(level, digit);
  HCUBE_CHECK_MSG(ent_node_[k].is_valid(), "state() of an empty entry");
  return ent_state_[k];
}

void NeighborTable::set(std::uint32_t level, std::uint32_t digit,
                        const NodeId& node, NeighborState state,
                        HostId host) {
  HCUBE_CHECK(node.is_valid());
  // Suffix invariant of Section 2.1: the entry's desired suffix is
  // digit · owner[level-1 .. 0].
  HCUBE_CHECK_MSG(node.csuf_len(owner_) >= level || node == owner_,
                  "neighbor does not share the required suffix");
  HCUBE_CHECK_MSG(node.digit(level) == digit,
                  "neighbor's level-th digit does not match the entry digit");
  const std::size_t k = index(level, digit);
  if (!ent_node_[k].is_valid()) ++filled_;
  ent_node_[k] = node;
  ent_state_[k] = state;
  ent_host_[k] = host;
}

void NeighborTable::memo_host(std::uint32_t level, std::uint32_t digit,
                              HostId host) {
  const std::size_t k = index(level, digit);
  HCUBE_CHECK_MSG(ent_node_[k].is_valid(), "memo_host() of an empty entry");
  ent_host_[k] = host;
}

void NeighborTable::set_state(std::uint32_t level, std::uint32_t digit,
                              NeighborState state) {
  const std::size_t k = index(level, digit);
  HCUBE_CHECK_MSG(ent_node_[k].is_valid(), "set_state() of an empty entry");
  ent_state_[k] = state;
}

void NeighborTable::clear(std::uint32_t level, std::uint32_t digit) {
  const std::size_t k = index(level, digit);
  if (!ent_node_[k].is_valid()) return;
  ent_node_[k] = NodeId();
  ent_state_[k] = NeighborState::kT;
  ent_host_[k] = kNoHost;
  --filled_;
}

void NeighborTable::backup_range(std::uint32_t slot, std::size_t* lo,
                                 std::size_t* hi) const {
  std::size_t i = 0;
  while (i < backup_slot_.size() && backup_slot_[i] != slot) ++i;
  *lo = i;
  while (i < backup_slot_.size() && backup_slot_[i] == slot) ++i;
  *hi = i;
}

bool NeighborTable::offer_backup(std::uint32_t level, std::uint32_t digit,
                                 const NodeId& node,
                                 std::size_t max_backups) {
  HCUBE_CHECK(node.is_valid());
  if (max_backups == 0 || node == owner_) return false;
  HCUBE_CHECK_MSG(node.csuf_len(owner_) >= level,
                  "backup does not share the required suffix");
  HCUBE_CHECK_MSG(node.digit(level) == digit,
                  "backup's level-th digit does not match the entry digit");
  const std::uint32_t slot = static_cast<std::uint32_t>(index(level, digit));
  if (ent_node_[slot] == node) return false;
  std::size_t lo, hi;
  backup_range(slot, &lo, &hi);
  if (hi - lo >= max_backups) return false;
  for (std::size_t i = lo; i < hi; ++i)
    if (backup_node_[i] == node) return false;
  backup_slot_.insert(backup_slot_.begin() + hi, slot);
  backup_node_.insert(backup_node_.begin() + hi, node);
  return true;
}

std::span<const NodeId> NeighborTable::backups(std::uint32_t level,
                                               std::uint32_t digit) const {
  std::size_t lo, hi;
  backup_range(static_cast<std::uint32_t>(index(level, digit)), &lo, &hi);
  return {backup_node_.data() + lo, hi - lo};
}

void NeighborTable::purge_backup(std::uint32_t level, std::uint32_t digit,
                                 const NodeId& node) {
  std::size_t lo, hi;
  backup_range(static_cast<std::uint32_t>(index(level, digit)), &lo, &hi);
  for (std::size_t i = hi; i > lo; --i) {
    if (backup_node_[i - 1] == node) {
      backup_node_.erase(backup_node_.begin() + (i - 1));
      backup_slot_.erase(backup_slot_.begin() + (i - 1));
    }
  }
}

NodeId NeighborTable::take_first_backup(std::uint32_t level,
                                        std::uint32_t digit) {
  std::size_t lo, hi;
  backup_range(static_cast<std::uint32_t>(index(level, digit)), &lo, &hi);
  if (lo == hi) return NodeId();
  const NodeId first = backup_node_[lo];
  backup_node_.erase(backup_node_.begin() + lo);
  backup_slot_.erase(backup_slot_.begin() + lo);
  return first;
}

void NeighborTable::for_each_filled(
    const std::function<void(std::uint32_t, std::uint32_t, const NodeId&,
                             NeighborState)>& fn) const {
  for (std::uint32_t i = 0; i < params_.num_digits; ++i) {
    for (std::uint32_t j = 0; j < params_.base; ++j) {
      const std::size_t k = index(i, j);
      if (ent_node_[k].is_valid()) fn(i, j, ent_node_[k], ent_state_[k]);
    }
  }
}

TableSnapshot NeighborTable::snapshot(std::uint32_t level_lo,
                                      std::uint32_t level_hi) const {
  HCUBE_CHECK(level_lo <= level_hi && level_hi < params_.num_digits);
  TableSnapshot snap;
  for (std::uint32_t i = level_lo; i <= level_hi; ++i) {
    for (std::uint32_t j = 0; j < params_.base; ++j) {
      const std::size_t k = index(i, j);
      if (ent_node_[k].is_valid())
        snap.add(static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(j),
                 ent_node_[k], ent_state_[k]);
    }
  }
  return snap;
}

BitVec NeighborTable::filled_bitvec() const {
  const std::size_t n =
      static_cast<std::size_t>(params_.num_digits) * params_.base;
  BitVec bits(n);
  for (std::size_t k = 0; k < n; ++k)
    if (ent_node_[k].is_valid()) bits.set(k);
  return bits;
}

void NeighborTable::add_reverse_neighbor(const NodeId& v) {
  HCUBE_CHECK(v.is_valid());
  if (v == owner_) return;  // a node is trivially its own neighbor
  reverse_.insert(v);
}

void NeighborTable::assign_reverse_neighbors(std::vector<NodeId> storers) {
  for (const NodeId& v : storers) HCUBE_CHECK(v.is_valid() && v != owner_);
  reverse_.assign_at_rest(std::move(storers));
}

std::size_t NeighborTable::bytes_used() const {
  const std::size_t n =
      static_cast<std::size_t>(params_.num_digits) * params_.base;
  return n * (sizeof(NodeId) + sizeof(NeighborState) + sizeof(HostId)) +
         reverse_.bytes_used() +
         backup_slot_.capacity() * sizeof(std::uint32_t) +
         backup_node_.capacity() * sizeof(NodeId);
}

void NeighborTable::shrink_backups() {
  backup_slot_.shrink_to_fit();
  backup_node_.shrink_to_fit();
}

std::string NeighborTable::to_string() const {
  std::ostringstream os;
  os << "table of " << owner_.to_string(params_) << "\n";
  for (std::uint32_t i = 0; i < params_.num_digits; ++i) {
    os << "  level " << i << ":";
    for (std::uint32_t j = 0; j < params_.base; ++j) {
      const std::size_t k = index(i, j);
      if (!ent_node_[k].is_valid()) continue;
      os << " (" << j << ")=" << ent_node_[k].to_string(params_)
         << (ent_state_[k] == NeighborState::kS ? "/S" : "/T");
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace hcube
