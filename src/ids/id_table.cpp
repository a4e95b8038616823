#include "ids/id_table.h"

#include <cstring>

namespace hcube {

IdTable& IdTable::instance() {
  // Internally synchronized: annotated writer lock, lock-free readers.
  static IdTable table HCUBE_INTERNALLY_SYNCHRONIZED;
  return table;
}

std::uint64_t IdTable::hash_digits(std::span<const Digit> digits) {
  // FNV-1a, the same function NodeId::hash() historically used.
  std::uint64_t h = 1469598103934665603ULL;
  for (Digit d : digits) {
    h ^= d;
    h *= 1099511628211ULL;
  }
  // Mix the length so "0" and "00" (same byte prefix) split cleanly.
  h ^= digits.size();
  h *= 1099511628211ULL;
  return h;
}

void IdTable::grow_index() {
  const std::size_t new_cap = slots_.empty() ? 1024 : slots_.size() * 2;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_cap, Slot{});
  const std::size_t mask = new_cap - 1;
  for (const Slot& s : old) {
    if (s.ref == kInvalidRef) continue;
    const EntryLoc& loc = loc_of(s.ref);
    const std::uint64_t h =
        hash_digits(std::span<const Digit>(loc.ptr, loc.len));
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (slots_[i].ref != kInvalidRef) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

IdTable::Ref IdTable::intern(std::span<const Digit> digits) {
  HCUBE_CHECK(!digits.empty() && digits.size() <= 255);
  MutexLock lock(mu_);
  // count_ is only written under mu_, so a relaxed read is exact here.
  const Ref count = count_.load(std::memory_order_relaxed);
  if (slots_.empty() || std::size_t{count} * 10 >= slots_.size() * 7)
    grow_index();

  const std::uint64_t h = hash_digits(digits);
  const std::uint8_t tag = static_cast<std::uint8_t>(h >> 56);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  for (;;) {
    Slot& s = slots_[i];
    if (s.ref == kInvalidRef) {
      // New string: append to the current slab (never straddling one).
      const std::uint32_t len = static_cast<std::uint32_t>(digits.size());
      if ((next_off_ & kBlockMask) + len > kBlockSize)
        next_off_ = (next_off_ | kBlockMask) + 1;  // pad to the next slab
      while ((next_off_ >> kBlockShift) >= blocks_.size())
        blocks_.push_back(std::make_unique<Digit[]>(kBlockSize));
      Digit* dst =
          blocks_[next_off_ >> kBlockShift].get() + (next_off_ & kBlockMask);
      std::memcpy(dst, digits.data(), len);
      next_off_ += len;

      // Publish the entry record, then the count that covers it. Levels
      // are allocated once and never touched again, so readers that
      // acquire `count_` (or the level pointer) see a complete record.
      const Ref ref = count;
      // Evaluated at compile time, so an overflowing shift in level_base
      // fails the build instead of reaching UBSan at run time.
      static_assert(level_base(kLevels) == 0xfffffc00u,
                    "the ref bound is 2^32 - 2^10");
      HCUBE_CHECK(ref < level_base(kLevels));
      const std::uint32_t level = level_of(ref);
      if (levels_[level].load(std::memory_order_relaxed) == nullptr) {
        level_storage_.push_back(
            std::make_unique<EntryLoc[]>(level_capacity(level)));
        level_bytes_ += level_capacity(level) * sizeof(EntryLoc);
        levels_[level].store(level_storage_.back().get(),
                             std::memory_order_release);
      }
      EntryLoc* entries = const_cast<EntryLoc*>(
          levels_[level].load(std::memory_order_relaxed));
      entries[ref - level_base(level)] =
          EntryLoc{dst, static_cast<std::uint8_t>(len)};
      count_.store(ref + 1, std::memory_order_release);

      s = Slot{ref, tag};
      return ref;
    }
    if (s.tag == tag && loc_of(s.ref).len == digits.size() &&
        std::memcmp(loc_of(s.ref).ptr, digits.data(), digits.size()) == 0)
      return s.ref;
    i = (i + 1) & mask;
  }
}

std::size_t IdTable::bytes_used() const {
  MutexLock lock(mu_);
  return blocks_.size() * kBlockSize + slots_.size() * sizeof(Slot) +
         level_bytes_ + blocks_.size() * sizeof(void*);
}

}  // namespace hcube
