// Epoch/barrier driver for the sharded discrete-event simulator.
//
// K lanes (shards), each owning a private EventQueue, advance in lockstep
// epochs. An epoch is the half-open window [T, B): every lane runs its
// events with time strictly < B (EventQueue::run_before), then parks at the
// barrier. The driver picks each boundary as
//
//   B = min(next_action_time, t_min_pending_event + epoch_ms)
//
// with epoch_ms <= the latency model's min_latency_ms(). A cross-shard send
// issued by an event at time s inside the epoch is due at s + latency >=
// (B - epoch_ms) + epoch_ms = B, i.e. never before the next barrier — so
// parking it in an outbox and committing it at the barrier cannot reorder
// it relative to any event that already ran. Boundaries gap-jump:
// when lanes go idle the next boundary snaps forward to the next action or
// pending event, so sparse timelines cost epochs proportional to events,
// not to simulated time. One lane has nothing to commit, so its boundary
// is always the next action: it runs straight from one action instant to
// the next, in exactly the order one EventQueue would.
//
// Barrier sequence (driver thread, workers parked):
//   1. commit the outboxes (canonical order: for dst lane ascending, for
//      src lane ascending, FIFO within the pair — i.e. (epoch, src_shard,
//      seq)),
//   2. run every driver action scheduled at exactly B, in scheduling order.
// Driver actions are a run's top-level closures (script steps, probes,
// heal markers); they run on the driver thread, which impersonates lanes
// via LaneScope as needed. A second commit pass before the next boundary
// selection picks up sends issued by the actions themselves (their
// deliveries can be due before the boundary the pending-event scan alone
// would choose).
//
// Determinism: each lane's intra-epoch execution is sequential on one
// thread; the commit order and action order at every barrier are canonical;
// and no cross-lane communication happens outside barriers. Hence the
// merged event sequence — and every digest derived from it — is a pure
// function of the inputs, independent of K and of thread scheduling (the
// differential-determinism tier in tests/sim/ checks K > 1 against K = 1,
// and the chaos digest pins hold K = 1 to fixed values). See DESIGN.md
// §16.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sim/event_queue.h"
#include "util/thread_safety.h"

namespace hcube {

class ShardDriver {
 public:
  // `lanes` are borrowed (caller keeps ownership; must outlive the driver).
  // `epoch_ms` must be <= the minimum cross-shard latency, and > 0 unless
  // there is one lane (which never reads it).
  // `commit` drains every cross-shard outbox in canonical order; called
  // only on the driver thread with every worker parked.
  ShardDriver(std::vector<EventQueue*> lanes, double epoch_ms,
              std::function<void()> commit);
  // Condvar shutdown handshake; the analysis cannot model
  // condition_variable_any waits over the Mutex capability.
  ~ShardDriver() HCUBE_NO_THREAD_SAFETY_ANALYSIS;

  ShardDriver(const ShardDriver&) = delete;
  ShardDriver& operator=(const ShardDriver&) = delete;

  std::uint32_t lanes() const {
    return static_cast<std::uint32_t>(queues_.size());
  }

  // Schedules a driver action at absolute time t (>= last_event_time()).
  // Actions at equal t run in scheduling order at the barrier.
  void schedule_action(SimTime t, std::function<void()> fn);

  // Runs epochs until every lane queue is empty, every outbox has been
  // committed, and no actions remain. Callable repeatedly (the chaos
  // runner drains at each script barrier and between repair rounds).
  void drain();

  // Simulated time of the last lane event or driver action executed —
  // what one EventQueue's now() reads after a drain.
  SimTime last_event_time() const { return last_time_; }

  // Lane events executed plus driver actions executed: what one
  // EventQueue running every action as a closure event would count.
  std::uint64_t events_processed() const;
  std::uint64_t actions_executed() const { return actions_run_; }
  std::uint64_t epochs_run() const { return epochs_; }

 private:
  struct PendingAction {
    SimTime t;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct ActionAfter {  // max-heap comparator -> earliest (t, seq) on top
    bool operator()(const PendingAction& a, const PendingAction& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  SimTime min_pending_event_time() const;
  // Generation-barrier rendezvous (condvar waits the analysis cannot
  // model); the mutex/condvar handshake provides the real synchronization.
  void run_epoch(SimTime boundary) HCUBE_NO_THREAD_SAFETY_ANALYSIS;
  void worker_main(std::uint32_t lane) HCUBE_NO_THREAD_SAFETY_ANALYSIS;

  std::vector<EventQueue*> queues_;
  double epoch_ms_;
  std::function<void()> commit_;

  std::vector<PendingAction> actions_;  // heap via std::push_heap/pop_heap
  std::uint64_t next_action_seq_ = 0;
  std::uint64_t actions_run_ = 0;
  std::uint64_t epochs_ = 0;
  SimTime last_time_ = 0.0;  // last event/action time; actions must be >= this

  // Worker rendezvous: a generation barrier. The driver publishes
  // {boundary_, epoch_gen_} and waits for workers_running_ to hit zero;
  // each worker runs one epoch per generation. The mutex + condvar give the
  // happens-before edges that make the driver's barrier-phase access to the
  // lane queues and outboxes (and the workers' next-epoch access to
  // driver-committed state) race-free: they are the outboxes' only
  // synchronization.
  Mutex mu_;
  std::condition_variable_any cv_;
  std::uint64_t epoch_gen_ HCUBE_GUARDED_BY(mu_) = 0;
  SimTime boundary_ HCUBE_GUARDED_BY(mu_) = 0.0;
  std::uint32_t workers_running_ HCUBE_GUARDED_BY(mu_) = 0;
  bool shutdown_ HCUBE_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace hcube
