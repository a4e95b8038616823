// The ID interner: every distinct digit string lives exactly once in an
// arena of append-only slabs, and a NodeId is an 8-byte handle into it.
//
// Rationale (ROADMAP item 1): at paper scale the old 65-byte inline-array
// NodeId dominated table memory — d*b entries × 65 bytes before any
// bookkeeping. Interning makes the per-entry cost the handle (4-byte ref +
// length), turns equality into an integer compare (interning is canonical:
// equal digit strings always receive equal refs), and keeps digit reads a
// contiguous slab access for csuf scans.
//
// Properties the rest of the codebase relies on:
//   * Stability — slabs and entry records are never moved or freed, so a
//     digit span obtained from a handle stays valid for the life of the
//     process. A node that crashes, restarts and rejoins re-interns the
//     same digit string and gets the same ref back (pinned by
//     id_table_test).
//   * Determinism — refs are assigned in first-intern order; no pointer
//     values or randomized hashing enter the data structure, so runs are
//     reproducible (the chaos digest tests depend on this).
//   * Concurrent readers, single annotated writer — the process-global
//     table is shared by every shard of the sharded simulator (ROADMAP
//     item 1). intern() serializes writers behind `mu_` (clang
//     thread-safety annotations make the guard machine-checked); readers
//     (digits_of/len_of/size) are lock-free. Publication is safe because
//     nothing a reader touches is ever reallocated: digit slabs are
//     append-only, entry records live in power-of-two level arrays whose
//     pointers are published once with release ordering, and `count_` is
//     release-stored after the entry it covers is fully written. A ref
//     below size() therefore always resolves to a complete entry. (Refs
//     that travel between shards additionally ride the cross-shard
//     handoff barrier, which orders them after their publication.)
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/check.h"
#include "util/thread_safety.h"

namespace hcube {

using Digit = std::uint8_t;

class IdTable {
 public:
  using Ref = std::uint32_t;
  static constexpr Ref kInvalidRef = 0xffffffffu;

  // The process-global instance every NodeId resolves against.
  static IdTable& instance();

  // Returns the canonical ref for this digit string, interning it on first
  // sight. Refs are DENSE: the k-th distinct string interned gets ref k,
  // so a per-overlay side table indexed by ref is an exact-fit array.
  // len must be in [1, 255]. Thread-safe: writers serialize on mu_.
  Ref intern(std::span<const Digit> digits) HCUBE_EXCLUDES(mu_);

  // Digits of an interned string. O(1), lock-free: level pointer + entry
  // record + slab load.
  const Digit* digits_of(Ref ref) const { return loc_of(ref).ptr; }

  std::uint8_t len_of(Ref ref) const { return loc_of(ref).len; }

  // Number of distinct strings interned == the exclusive upper bound of
  // all refs handed out so far. Lock-free.
  std::size_t size() const { return count_.load(std::memory_order_acquire); }

  // Heap footprint (slabs + entry levels + hash index), for bytes/node
  // accounting. Takes the writer lock (cold path).
  std::size_t bytes_used() const HCUBE_EXCLUDES(mu_);

  IdTable(const IdTable&) = delete;
  IdTable& operator=(const IdTable&) = delete;

 private:
  // 64 KiB of digits per slab: large enough that per-slab overhead is
  // noise, small enough that a test process interning a handful of IDs
  // doesn't pin megabytes.
  static constexpr std::uint32_t kBlockShift = 16;
  static constexpr std::uint32_t kBlockSize = 1u << kBlockShift;
  static constexpr std::uint32_t kBlockMask = kBlockSize - 1;

  // Where an interned string's digits live. Records are grouped into
  // power-of-two "levels" (level 0 holds 2^kL0Shift entries, level l holds
  // 2^(kL0Shift+l)) so the table can grow without ever moving a record —
  // the property lock-free readers depend on. 22 levels cover every
  // possible ref.
  struct EntryLoc {
    const Digit* ptr;
    std::uint8_t len;
  };
  static constexpr std::uint32_t kL0Shift = 10;
  static constexpr std::uint32_t kLevels = 22;

  static std::uint32_t level_of(Ref ref) {
    return static_cast<std::uint32_t>(
               std::bit_width(ref + (1u << kL0Shift))) -
           kL0Shift - 1;
  }
  // First ref of `level`. 64-bit arithmetic: level_base(kLevels), the
  // exclusive bound of every ref, is 2^32 - 2^10 and needs a 2^32 term.
  static constexpr std::uint32_t level_base(std::uint32_t level) {
    return static_cast<std::uint32_t>((std::uint64_t{1} << (kL0Shift + level)) -
                                      (std::uint64_t{1} << kL0Shift));
  }
  static std::uint32_t level_capacity(std::uint32_t level) {
    return 1u << (kL0Shift + level);
  }

  const EntryLoc& loc_of(Ref ref) const {
    HCUBE_DCHECK(ref < size());
    const std::uint32_t level = level_of(ref);
    const EntryLoc* entries = levels_[level].load(std::memory_order_acquire);
    return entries[ref - level_base(level)];
  }

  // Open-addressed index slot: ref + a hash tag so most probe misses never
  // touch the slab.
  struct Slot {
    Ref ref = kInvalidRef;
    std::uint8_t tag = 0;
  };

  IdTable() = default;

  static std::uint64_t hash_digits(std::span<const Digit> digits);
  void grow_index() HCUBE_REQUIRES(mu_);

  // ---- reader-visible state: atomics, never reallocated ----
  std::atomic<const EntryLoc*> levels_[kLevels] = {};
  std::atomic<std::uint32_t> count_{0};

  // ---- writer-only state, serialized by mu_ ----
  mutable Mutex mu_;
  std::vector<std::unique_ptr<Digit[]>> blocks_ HCUBE_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<EntryLoc[]>> level_storage_
      HCUBE_GUARDED_BY(mu_);
  std::uint32_t next_off_ HCUBE_GUARDED_BY(mu_) = 0;  // next free offset
  std::size_t level_bytes_ HCUBE_GUARDED_BY(mu_) = 0;
  std::vector<Slot> slots_ HCUBE_GUARDED_BY(mu_);  // power-of-two OA index
};

}  // namespace hcube
