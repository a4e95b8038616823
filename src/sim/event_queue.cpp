#include "sim/event_queue.h"

#include <limits>
#include <utility>

#include "util/check.h"

namespace hcube {

void EventQueue::push_event(Event ev) {
  heap_.push_back(ev);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

EventQueue::Event EventQueue::pop_event() {
  HCUBE_DCHECK(!heap_.empty());
  const Event top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  std::size_t i = 0;
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t l = 2 * i + 1;
    const std::size_t r = l + 1;
    std::size_t best = i;
    if (l < n && earlier(heap_[l], heap_[best])) best = l;
    if (r < n && earlier(heap_[r], heap_[best])) best = r;
    if (best == i) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
  return top;
}

std::uint32_t EventQueue::acquire_timer_slot(std::function<void()> fn) {
  if (!timer_free_.empty()) {
    const std::uint32_t slot = timer_free_.back();
    timer_free_.pop_back();
    timer_pool_[slot] = std::move(fn);
    return slot;
  }
  timer_pool_.push_back(std::move(fn));
  return static_cast<std::uint32_t>(timer_pool_.size() - 1);
}

void EventQueue::schedule_at(SimTime t, std::function<void()> fn) {
  owner_.assert_held();
  HCUBE_CHECK_MSG(t >= now_, "cannot schedule into the past");
  const std::uint32_t slot = acquire_timer_slot(std::move(fn));
  push_event(Event{t, next_seq_++, nullptr, 0, 0, slot, EventKind::kClosure});
}

void EventQueue::schedule_after(SimTime delay, std::function<void()> fn) {
  owner_.assert_held();
  HCUBE_CHECK(delay >= 0.0);
  schedule_at(now_ + delay, std::move(fn));
}

void EventQueue::schedule_delivery_at(SimTime t, DeliverySink* sink,
                                      HostId from, HostId to,
                                      std::uint32_t payload_slot) {
  owner_.assert_held();
  HCUBE_CHECK_MSG(t >= now_, "cannot schedule into the past");
  HCUBE_DCHECK(sink != nullptr);
  push_event(
      Event{t, next_seq_++, sink, from, to, payload_slot, EventKind::kDelivery});
}

void EventQueue::schedule_timer_at(SimTime t, TimerSink* sink, std::uint32_t a,
                                   std::uint32_t b, std::uint32_t c) {
  owner_.assert_held();
  HCUBE_CHECK_MSG(t >= now_, "cannot schedule into the past");
  HCUBE_DCHECK(sink != nullptr);
  push_event(Event{t, next_seq_++, sink, a, b, c, EventKind::kTimer});
}

void EventQueue::dispatch(const Event& ev) {
  switch (ev.kind) {
    case EventKind::kDelivery:
      static_cast<DeliverySink*>(ev.sink)->deliver(ev.a, ev.b, ev.slot);
      return;
    case EventKind::kTimer:
      static_cast<TimerSink*>(ev.sink)->on_timer(ev.a, ev.b, ev.slot);
      return;
    case EventKind::kClosure: {
      // Move the closure out before running it: the callback may schedule
      // new timers (recycling this very slot) without invalidating itself.
      std::function<void()> fn = std::move(timer_pool_[ev.slot]);
      timer_pool_[ev.slot] = nullptr;
      timer_free_.push_back(ev.slot);
      fn();
      return;
    }
  }
}

bool EventQueue::run_next() {
  owner_.assert_held();
  if (heap_.empty()) return false;
  const Event ev = pop_event();
  now_ = ev.time;
  last_processed_ = ev.time;
  ++processed_;
  dispatch(ev);
  return true;
}

std::uint64_t EventQueue::run(std::uint64_t max_events) {
  owner_.assert_held();
  std::uint64_t n = 0;
  while (n < max_events && run_next()) ++n;
  return n;
}

std::uint64_t EventQueue::run_until(SimTime t_end) {
  owner_.assert_held();
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().time <= t_end && run_next()) ++n;
  if (t_end > now_) now_ = t_end;
  return n;
}

std::uint64_t EventQueue::run_before(SimTime t_end) {
  owner_.assert_held();
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().time < t_end && run_next()) ++n;
  return n;
}

void EventQueue::advance_to(SimTime t) {
  owner_.assert_held();
  HCUBE_CHECK_MSG(t >= now_, "cannot rewind the simulated clock");
  now_ = t;
}

SimTime EventQueue::next_event_time() const {
  owner_.assert_held();
  if (heap_.empty()) return std::numeric_limits<SimTime>::infinity();
  return heap_.front().time;
}

}  // namespace hcube
