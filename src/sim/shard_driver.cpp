#include "sim/shard_driver.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/shard_context.h"
#include "util/check.h"

namespace hcube {

ShardDriver::ShardDriver(std::vector<EventQueue*> lanes, double epoch_ms,
                         std::function<void()> commit)
    : queues_(std::move(lanes)), epoch_ms_(epoch_ms),
      commit_(std::move(commit)) {
  HCUBE_CHECK(!queues_.empty() && queues_.size() <= kMaxShardLanes);
  HCUBE_CHECK_MSG(queues_.size() == 1 || epoch_ms_ > 0.0,
                  "epoch must have positive length");
  HCUBE_CHECK(commit_ != nullptr);
  if (queues_.size() > 1) {
    workers_.reserve(queues_.size());
    for (std::uint32_t lane = 0; lane < queues_.size(); ++lane)
      workers_.emplace_back([this, lane] { worker_main(lane); });
  }
}

ShardDriver::~ShardDriver() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ShardDriver::schedule_action(SimTime t, std::function<void()> fn) {
  HCUBE_CHECK_MSG(t >= last_time_,
                  "cannot schedule an action into the past");
  actions_.push_back(PendingAction{t, next_action_seq_++, std::move(fn)});
  std::push_heap(actions_.begin(), actions_.end(), ActionAfter{});
}

SimTime ShardDriver::min_pending_event_time() const {
  SimTime t = std::numeric_limits<SimTime>::infinity();
  for (EventQueue* q : queues_) t = std::min(t, q->next_event_time());
  return t;
}

void ShardDriver::drain() {
  const SimTime kInf = std::numeric_limits<SimTime>::infinity();
  for (;;) {
    // Pick up sends issued at the previous barrier (by driver actions):
    // their deliveries may be due before the boundary the pending-event
    // scan alone would pick, so commit them first.
    commit_();

    const SimTime t_evt = min_pending_event_time();
    const SimTime t_act = actions_.empty() ? kInf : actions_.front().t;
    if (t_evt == kInf && t_act == kInf) return;

    // One lane has nothing to commit, so it runs straight to the next
    // action. More lanes gap-jump to the next action when nothing is
    // pending before it, and otherwise advance one epoch from the earliest
    // pending event.
    const SimTime boundary = queues_.size() == 1 || t_act <= t_evt
                                 ? t_act
                                 : std::min(t_act, t_evt + epoch_ms_);

    run_epoch(boundary);
    ++epochs_;
    for (EventQueue* q : queues_)
      last_time_ = std::max(last_time_, q->last_processed_time());

    // Canonical barrier: committed deliveries (due >= boundary) are
    // scheduled before actions at the boundary run, so they take lower
    // sequence numbers than anything those actions schedule — the same
    // tie-break order one EventQueue produces.
    commit_();
    if (!actions_.empty() && actions_.front().t == boundary) {
      // Actions run protocol code outside any event: synchronize every
      // lane's clock to the action instant first, so their sends compute
      // the delivery times one EventQueue would (event_queue.h,
      // advance_to).
      for (EventQueue* q : queues_) q->advance_to(boundary);
    }
    while (!actions_.empty() && actions_.front().t == boundary) {
      std::pop_heap(actions_.begin(), actions_.end(), ActionAfter{});
      PendingAction act = std::move(actions_.back());
      actions_.pop_back();
      act.fn();
      ++actions_run_;
      last_time_ = std::max(last_time_, act.t);
    }
  }
}

std::uint64_t ShardDriver::events_processed() const {
  std::uint64_t n = actions_run_;
  for (EventQueue* q : queues_) n += q->events_processed();
  return n;
}

void ShardDriver::run_epoch(SimTime boundary) {
  if (queues_.size() == 1) {
    // Single lane: no worker threads; run the epoch inline.
    LaneScope scope(queues_[0], 0);
    queues_[0]->run_before(boundary);
    return;
  }
  mu_.lock();
  boundary_ = boundary;
  workers_running_ = static_cast<std::uint32_t>(queues_.size());
  ++epoch_gen_;
  cv_.notify_all();
  while (workers_running_ != 0) cv_.wait(mu_);
  mu_.unlock();
}

void ShardDriver::worker_main(std::uint32_t lane) {
  EventQueue* queue = queues_[lane];
  LaneScope scope(queue, lane);
  std::uint64_t seen = 0;
  for (;;) {
    SimTime boundary;
    mu_.lock();
    while (!shutdown_ && epoch_gen_ == seen) cv_.wait(mu_);
    if (shutdown_) {
      mu_.unlock();
      return;
    }
    seen = epoch_gen_;
    boundary = boundary_;
    mu_.unlock();

    queue->run_before(boundary);

    mu_.lock();
    const bool last = --workers_running_ == 0;
    mu_.unlock();
    if (last) cv_.notify_all();
  }
}

}  // namespace hcube
