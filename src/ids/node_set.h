// Dense-index set/map keyed by interned NodeIds.
//
// The protocol layers keep many small per-node collections (reverse
// neighbors, ping books, join waiters). std::unordered_* containers cost a
// heap node plus bucket array per collection and — worse — iterate in
// hash-bucket order, which leaks libstdc++ internals into event ordering
// wherever same-time callbacks are scheduled from a loop. These containers
// store elements in ONE contiguous vector in insertion order (iteration is
// deterministic and allocation-dense) with an open-addressed index of
// positions on the side, hashed on the interned ref (ids are canonical, so
// ref equality is id equality).
//
// Erase preserves insertion order (vector erase + index rebuild): these
// collections are bounded by O(d*b) in practice and erases are rare
// (leave/drop paths), so O(n) there buys determinism everywhere else.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ids/node_id.h"
#include "util/check.h"

namespace hcube {

namespace detail {

// Fibonacci hashing on the interned ref: cheap and well-spread for the
// dense, small ref values the interner hands out.
inline std::uint32_t ref_hash(IdTable::Ref r) { return r * 2654435769u; }

inline constexpr std::uint32_t kEmptySlot = 0xffffffffu;

}  // namespace detail

// Insertion-ordered set of NodeIds. O(1) expected insert/contains, O(n)
// erase (order-preserving). Iteration yields NodeId in insertion order.
class FlatNodeSet {
 public:
  FlatNodeSet() = default;

  bool insert(const NodeId& id) {
    HCUBE_DCHECK(id.is_valid());
    if (find_slot(id.ref()) != detail::kEmptySlot) return false;
    maybe_grow();
    place(id.ref(), static_cast<std::uint32_t>(items_.size()));
    items_.push_back(id);
    return true;
  }

  bool contains(const NodeId& id) const {
    return find_slot(id.ref()) != detail::kEmptySlot;
  }
  std::size_t count(const NodeId& id) const { return contains(id) ? 1 : 0; }

  bool erase(const NodeId& id) {
    const std::uint32_t pos = find_slot(id.ref());
    if (pos == detail::kEmptySlot) return false;
    items_.erase(items_.begin() + pos);
    rebuild_index();
    return true;
  }

  void clear() {
    items_.clear();
    slots_.clear();
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  // The elements as a contiguous span, insertion order.
  std::span<const NodeId> items() const { return items_; }

  std::size_t bytes_used() const {
    return items_.capacity() * sizeof(NodeId) +
           slots_.capacity() * sizeof(std::uint32_t);
  }

  // Replaces the contents with `items`, which must be distinct, in the
  // at-rest representation: the element vector exact-fit and no
  // open-addressed index. Lookups fall back to a linear scan over items_
  // until the next insert rebuilds the index at its load-factor size. This
  // is the only way into that form, and the offline builder fills every
  // reverse set through it: across an n = 10^6 build the doubling slack
  // plus the index are ~1000 bytes/node of memory that mostly belongs to
  // sets no later event ever mutates (bench_scale's bytes/node ceiling
  // charges it in full), while a set the protocol does touch re-pays its
  // index on first mutation. Scan and hash lookup return identical
  // positions, so nothing observable depends on which representation a
  // set is in.
  void assign_at_rest(std::vector<NodeId> items) {
    items_ = std::move(items);
    items_.shrink_to_fit();  // a no-op when the caller reserved exactly
    slots_.clear();
    slots_.shrink_to_fit();
  }

 private:
  // Returns the position of `ref` in items_, or kEmptySlot.
  std::uint32_t find_slot(IdTable::Ref ref) const {
    if (slots_.empty()) {
      // Unindexed (empty, or at rest after assign_at_rest): linear scan.
      for (std::uint32_t p = 0; p < items_.size(); ++p)
        if (items_[p].ref() == ref) return p;
      return detail::kEmptySlot;
    }
    const std::uint32_t mask = static_cast<std::uint32_t>(slots_.size()) - 1;
    std::uint32_t i = detail::ref_hash(ref) & mask;
    while (slots_[i] != detail::kEmptySlot) {
      if (items_[slots_[i]].ref() == ref) return slots_[i];
      i = (i + 1) & mask;
    }
    return detail::kEmptySlot;
  }

  void place(IdTable::Ref ref, std::uint32_t pos) {
    const std::uint32_t mask = static_cast<std::uint32_t>(slots_.size()) - 1;
    std::uint32_t i = detail::ref_hash(ref) & mask;
    while (slots_[i] != detail::kEmptySlot) i = (i + 1) & mask;
    slots_[i] = pos;
  }

  void maybe_grow() {
    if (!slots_.empty() && (items_.size() + 1) * 10 < slots_.size() * 7)
      return;
    // Sizing loop (not just double): an at-rest set re-indexing on its
    // first insert starts from empty with items_ full.
    std::size_t cap = slots_.empty() ? 8 : slots_.size() * 2;
    while ((items_.size() + 1) * 10 >= cap * 7) cap *= 2;
    rebuild_index(cap);
  }

  void rebuild_index(std::size_t cap = 0) {
    if (cap == 0) cap = slots_.size();
    if (cap == 0) return;  // erase on an at-rest set: stay unindexed
    slots_.assign(cap, detail::kEmptySlot);
    for (std::uint32_t p = 0; p < items_.size(); ++p)
      place(items_[p].ref(), p);
  }

  std::vector<NodeId> items_;
  std::vector<std::uint32_t> slots_;  // power-of-two; position+sentinel
};

// Insertion-ordered map NodeId -> V. Iteration yields entries with public
// members {key, value}, so structured bindings `for (auto& [v, x] : map)`
// read exactly like the unordered_map call sites they replace.
template <typename V>
class FlatNodeMap {
 public:
  struct Entry {
    NodeId key;
    V value;
  };

  FlatNodeMap() = default;

  // Inserts or overwrites.
  void put(const NodeId& id, V value) {
    HCUBE_DCHECK(id.is_valid());
    const std::uint32_t pos = find_slot(id.ref());
    if (pos != detail::kEmptySlot) {
      items_[pos].value = std::move(value);
      return;
    }
    maybe_grow();
    place(id.ref(), static_cast<std::uint32_t>(items_.size()));
    items_.push_back(Entry{id, std::move(value)});
  }

  V* find(const NodeId& id) {
    const std::uint32_t pos = find_slot(id.ref());
    return pos == detail::kEmptySlot ? nullptr : &items_[pos].value;
  }
  const V* find(const NodeId& id) const {
    const std::uint32_t pos = find_slot(id.ref());
    return pos == detail::kEmptySlot ? nullptr : &items_[pos].value;
  }

  const V& at(const NodeId& id) const {
    const V* v = find(id);
    HCUBE_CHECK_MSG(v != nullptr, "FlatNodeMap::at: missing key");
    return *v;
  }

  bool contains(const NodeId& id) const {
    return find_slot(id.ref()) != detail::kEmptySlot;
  }
  std::size_t count(const NodeId& id) const { return contains(id) ? 1 : 0; }

  bool erase(const NodeId& id) {
    const std::uint32_t pos = find_slot(id.ref());
    if (pos == detail::kEmptySlot) return false;
    items_.erase(items_.begin() + pos);
    rebuild_index();
    return true;
  }

  void clear() {
    items_.clear();
    slots_.clear();
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  std::size_t bytes_used() const {
    return items_.capacity() * sizeof(Entry) +
           slots_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::uint32_t find_slot(IdTable::Ref ref) const {
    if (slots_.empty()) return detail::kEmptySlot;
    const std::uint32_t mask = static_cast<std::uint32_t>(slots_.size()) - 1;
    std::uint32_t i = detail::ref_hash(ref) & mask;
    while (slots_[i] != detail::kEmptySlot) {
      if (items_[slots_[i]].key.ref() == ref) return slots_[i];
      i = (i + 1) & mask;
    }
    return detail::kEmptySlot;
  }

  void place(IdTable::Ref ref, std::uint32_t pos) {
    const std::uint32_t mask = static_cast<std::uint32_t>(slots_.size()) - 1;
    std::uint32_t i = detail::ref_hash(ref) & mask;
    while (slots_[i] != detail::kEmptySlot) i = (i + 1) & mask;
    slots_[i] = pos;
  }

  void maybe_grow() {
    if (slots_.empty() || (items_.size() + 1) * 10 >= slots_.size() * 7)
      rebuild_index(slots_.empty() ? 8 : slots_.size() * 2);
  }

  void rebuild_index(std::size_t cap = 0) {
    if (cap == 0) cap = slots_.size();
    slots_.assign(cap, detail::kEmptySlot);
    for (std::uint32_t p = 0; p < items_.size(); ++p)
      place(items_[p].key.ref(), p);
  }

  std::vector<Entry> items_;
  std::vector<std::uint32_t> slots_;
};

}  // namespace hcube
