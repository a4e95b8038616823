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

// The interned ref of a container element: a set's NodeId, a map entry's
// key.
inline IdTable::Ref ref_of(const NodeId& id) { return id.ref(); }
template <typename Entry>
IdTable::Ref ref_of(const Entry& e) {
  return e.key.ref();
}

// The open-addressed position index both containers keep beside their
// element vector: a power-of-two slot vector holding positions into it
// (kEmptySlot = free), probed linearly from ref_hash. An index with no
// slots is unindexed: lookups scan the elements instead.
class RefIndex {
 public:
  // The position of `ref` in items, or kEmptySlot.
  template <typename T>
  std::uint32_t find(IdTable::Ref ref, const std::vector<T>& items) const {
    if (slots_.empty()) {
      for (std::uint32_t p = 0; p < items.size(); ++p)
        if (ref_of(items[p]) == ref) return p;
      return kEmptySlot;
    }
    const std::uint32_t mask = static_cast<std::uint32_t>(slots_.size()) - 1;
    std::uint32_t i = ref_hash(ref) & mask;
    while (slots_[i] != kEmptySlot) {
      if (ref_of(items[slots_[i]]) == ref) return slots_[i];
      i = (i + 1) & mask;
    }
    return kEmptySlot;
  }

  // Indexes `ref` at position items.size(), for the element about to be
  // appended, first growing the slots if the load factor would pass 0.7.
  template <typename T>
  void insert(IdTable::Ref ref, const std::vector<T>& items) {
    const std::size_t n = items.size();
    if (slots_.empty() || (n + 1) * 10 >= slots_.size() * 7) {
      // Sizing loop (not just double): an at-rest set re-indexing on its
      // first insert starts from no slots with its elements all present.
      std::size_t cap = slots_.empty() ? 8 : slots_.size() * 2;
      while ((n + 1) * 10 >= cap * 7) cap *= 2;
      rebuild(items, cap);
    }
    place(ref, static_cast<std::uint32_t>(n));
  }

  // Re-indexes items into `cap` slots (0 = as many as now; an unindexed
  // owner stays unindexed).
  template <typename T>
  void rebuild(const std::vector<T>& items, std::size_t cap = 0) {
    if (cap == 0) cap = slots_.size();
    if (cap == 0) return;
    slots_.assign(cap, kEmptySlot);
    for (std::uint32_t p = 0; p < items.size(); ++p) place(ref_of(items[p]), p);
  }

  void clear() { slots_.clear(); }
  // Drops the slots and their memory: the owner is unindexed from here.
  void release() {
    slots_.clear();
    slots_.shrink_to_fit();
  }

  std::size_t bytes_used() const {
    return slots_.capacity() * sizeof(std::uint32_t);
  }

 private:
  void place(IdTable::Ref ref, std::uint32_t pos) {
    const std::uint32_t mask = static_cast<std::uint32_t>(slots_.size()) - 1;
    std::uint32_t i = ref_hash(ref) & mask;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = pos;
  }

  std::vector<std::uint32_t> slots_;
};

}  // namespace detail

// Insertion-ordered set of NodeIds. O(1) expected insert/contains, O(n)
// erase (order-preserving). Iteration yields NodeId in insertion order.
class FlatNodeSet {
 public:
  FlatNodeSet() = default;

  bool insert(const NodeId& id) {
    HCUBE_DCHECK(id.is_valid());
    if (find_slot(id.ref()) != detail::kEmptySlot) return false;
    index_.insert(id.ref(), items_);
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
    index_.rebuild(items_);
    return true;
  }

  void clear() {
    items_.clear();
    index_.clear();
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  // The elements as a contiguous span, insertion order.
  std::span<const NodeId> items() const { return items_; }

  std::size_t bytes_used() const {
    return items_.capacity() * sizeof(NodeId) + index_.bytes_used();
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
    index_.release();
  }

 private:
  std::uint32_t find_slot(IdTable::Ref ref) const {
    return index_.find(ref, items_);
  }

  std::vector<NodeId> items_;
  detail::RefIndex index_;
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
    index_.insert(id.ref(), items_);
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
    index_.rebuild(items_);
    return true;
  }

  void clear() {
    items_.clear();
    index_.clear();
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  std::size_t bytes_used() const {
    return items_.capacity() * sizeof(Entry) + index_.bytes_used();
  }

 private:
  // A map is never at rest: its index has slots whenever it has elements.
  std::uint32_t find_slot(IdTable::Ref ref) const {
    return index_.find(ref, items_);
  }

  std::vector<Entry> items_;
  detail::RefIndex index_;
};

}  // namespace hcube
