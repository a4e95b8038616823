// Discrete-event simulation core.
//
// A single-threaded event queue with a simulated clock. Events scheduled for
// the same instant execute in scheduling order (monotonic sequence-number
// tie-break), which makes every simulation run bit-reproducible for a given
// seed — essential for the protocol tests, which assert properties of
// specific interleavings.
//
// Events come in three flavors, two of them typed so per-message and
// per-retransmission hot paths are allocation-free:
//   - Message deliveries carry only {sink, from, to, payload slot} — plain
//     data, no closure. The payload itself lives in a slab owned by the
//     transport (see net/sim_transport.h); the queue never touches it.
//   - Typed timers carry {sink, a, b, c} — plain data again. Components with
//     recurring timers (the reliable transport's retransmission clock)
//     implement TimerSink and interpret the three words themselves.
//   - Closure timers keep a std::function, but the closures live in a pooled
//     slab whose slots are recycled, so a steady stream of timers reuses
//     storage instead of growing the heap.
// All flavors share one sequence counter, so the relative order of timers
// and deliveries scheduled for the same instant is exactly the order in
// which they were scheduled — the same tie-break the closure-based queue
// had, which keeps pre-refactor event sequences intact.
//
// Sharding contract: the queue is externally synchronized PER SHARD — each
// shard owns one EventQueue, and cross-shard sends go through the epoch/
// barrier handoff, never by scheduling into another shard's queue. Members
// are HCUBE_GUARDED_BY(owner_), the private helpers HCUBE_REQUIRES(owner_),
// and every public method asserts the ownership capability (a no-op at
// runtime). Under `-Wthread-safety` that checks the class itself: nothing
// reaches the queue's state without stating ownership. It does not check
// callers: an assert claims the capability instead of requiring it, so a
// cross-shard schedule_*() call compiles cleanly, and the barrier protocol
// (sim/shard_driver.h) is what keeps it out (util/thread_safety.h,
// DESIGN.md §15).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/host.h"
#include "util/thread_safety.h"

namespace hcube {

using SimTime = double;  // milliseconds of simulated time

// Receiver of a pooled message-delivery event. Implemented by transports:
// the queue hands back (from, to, payload_slot) at delivery time and the
// sink looks the payload up in its own slab.
class DeliverySink {
 public:
  virtual void deliver(HostId from, HostId to, std::uint32_t payload_slot) = 0;

 protected:
  ~DeliverySink() = default;  // never deleted through this interface
};

// Receiver of a typed timer event: three plain words of payload, no closure.
// Cancellation is the sink's business — a fired timer whose work was
// obsoleted (e.g. the tracked message was acked) checks its own state and
// returns.
class TimerSink {
 public:
  virtual void on_timer(std::uint32_t a, std::uint32_t b, std::uint32_t c) = 0;

 protected:
  ~TimerSink() = default;  // never deleted through this interface
};

class EventQueue {
 public:
  SimTime now() const {
    owner_.assert_held();
    return now_;
  }
  bool empty() const {
    owner_.assert_held();
    return heap_.empty();
  }
  std::size_t pending() const {
    owner_.assert_held();
    return heap_.size();
  }
  std::uint64_t events_processed() const {
    owner_.assert_held();
    return processed_;
  }

  // Schedules fn at absolute simulated time t (>= now).
  void schedule_at(SimTime t, std::function<void()> fn);
  // Schedules fn after the given delay (>= 0).
  void schedule_after(SimTime delay, std::function<void()> fn);

  // Schedules a message delivery: at time t, sink->deliver(from, to, slot)
  // runs. Allocation-free once the heap's capacity has warmed up.
  void schedule_delivery_at(SimTime t, DeliverySink* sink, HostId from,
                            HostId to, std::uint32_t payload_slot);

  // Schedules a typed timer: at time t, sink->on_timer(a, b, c) runs.
  // Allocation-free once the heap's capacity has warmed up.
  void schedule_timer_at(SimTime t, TimerSink* sink, std::uint32_t a,
                         std::uint32_t b, std::uint32_t c = 0);

  // Executes the earliest pending event. Returns false if none.
  bool run_next();

  // Runs until the queue drains or max_events have executed; returns the
  // number executed.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  // Runs events with time <= t_end, then advances the clock to t_end.
  std::uint64_t run_until(SimTime t_end);

  // Runs events with time strictly < t_end. Unlike run_until, the clock is
  // NOT advanced past the last executed event: the sequential engine's
  // now() always reads "time of the thing currently/last happening", and
  // sharded lanes must preserve exactly that so sends issued outside event
  // execution (driver actions, barrier-phase protocol calls) compute the
  // same delivery times a single-queue run would. The driver advances the
  // clock explicitly (advance_to) at the instants such calls run. This is
  // the epoch body of the sharded driver: every event inside the window
  // [now, t_end) executes, while events scheduled exactly at the epoch
  // boundary wait for the barrier (where cross-shard outbox commits
  // precede them in canonical order). See sim/shard_driver.h.
  std::uint64_t run_before(SimTime t_end);

  // Explicit clock advance (>= now) with no event execution. The sharded
  // driver synchronizes every lane's clock to an action's time before
  // running it, and at the end of a drain to the global last-event time
  // (for barrier-phase protocol calls), so out-of-event sends are stamped
  // with the same times as in a sequential run.
  void advance_to(SimTime t);

  // Time of the earliest pending event, or +infinity when the queue is
  // empty. The sharded driver uses this to pick the next epoch boundary
  // (gap-jumping over idle stretches).
  SimTime next_event_time() const;

  // Simulated time of the most recently executed event (0.0 before any
  // event has run). Unlike now(), this is never force-advanced by
  // run_until/run_before, so the sharded driver can report "time of the
  // last thing that actually happened" exactly as the sequential queue's
  // now() would after a full drain.
  SimTime last_processed_time() const {
    owner_.assert_held();
    return last_processed_;
  }

  // Pool introspection (tests and benches assert steady-state reuse).
  std::size_t timer_pool_size() const {
    owner_.assert_held();
    return timer_pool_.size();
  }
  std::size_t timer_pool_free() const {
    owner_.assert_held();
    return timer_free_.size();
  }

 private:
  enum class EventKind : std::uint8_t { kClosure, kDelivery, kTimer };

  // Trivially copyable: sift operations move plain data, never closures.
  struct Event {
    SimTime time;
    std::uint64_t seq;
    void* sink;  // DeliverySink* / TimerSink* per kind; unused for closures
    std::uint32_t a;     // delivery: from host   | timer: payload a
    std::uint32_t b;     // delivery: to host     | timer: payload b
    std::uint32_t slot;  // delivery: payload slot| timer: payload c
                         // closure: timer_pool_ slot
    EventKind kind;
  };

  static bool earlier(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void push_event(Event ev) HCUBE_REQUIRES(owner_);
  Event pop_event() HCUBE_REQUIRES(owner_);
  void dispatch(const Event& ev) HCUBE_REQUIRES(owner_);

  std::uint32_t acquire_timer_slot(std::function<void()> fn)
      HCUBE_REQUIRES(owner_);

  ExternallySynchronized owner_;  // per-shard ownership (see header)

  // Manual binary min-heap over a vector: push/pop never allocate once
  // capacity has grown to the high-water mark of pending events.
  std::vector<Event> heap_ HCUBE_GUARDED_BY(owner_);
  std::vector<std::function<void()>> timer_pool_ HCUBE_GUARDED_BY(owner_);
  std::vector<std::uint32_t> timer_free_ HCUBE_GUARDED_BY(owner_);
  SimTime now_ HCUBE_GUARDED_BY(owner_) = 0.0;
  SimTime last_processed_ HCUBE_GUARDED_BY(owner_) = 0.0;
  std::uint64_t next_seq_ HCUBE_GUARDED_BY(owner_) = 0;
  std::uint64_t processed_ HCUBE_GUARDED_BY(owner_) = 0;
};

}  // namespace hcube
