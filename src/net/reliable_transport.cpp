#include "net/reliable_transport.h"

#include <limits>
#include <utility>

#include "util/check.h"

namespace hcube {

ReliableTransport::ReliableTransport(SimTransport& inner,
                                     ReliabilityConfig cfg)
    : inner_(inner), cfg_(cfg) {
  HCUBE_CHECK(cfg_.rto_ms > 0.0 && cfg_.backoff >= 1.0);
  HCUBE_CHECK_MSG(inner_.num_endpoints() == 0,
                  "decorate the inner transport before registering endpoints");
}

HostId ReliableTransport::add_endpoint(Handler handler) {
  return add_endpoint_as(num_endpoints(), std::move(handler));
}

HostId ReliableTransport::add_endpoint_as(HostId host, Handler handler) {
  // Sharing the inner transport's slots requires being its only user; the
  // inner transport checks that `host` lands on its next free slot.
  HCUBE_CHECK_MSG(inner_.num_endpoints() == handlers_.size(),
                  "reliable layer must be the inner transport's only user");
  handlers_.push_back(std::move(handler));
  return inner_.add_endpoint_as(
      host, [this, host](HostId from, const Message& msg) {
        on_deliver(from, host, msg);
      });
}

std::uint32_t ReliableTransport::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  inflight_.emplace_back();
  return static_cast<std::uint32_t>(inflight_.size() - 1);
}

void ReliableTransport::release_slot(std::uint32_t slot) {
  free_.push_back(slot);
  --in_flight_;
}

void ReliableTransport::arm_timer(HostId from, HostId to, SendPair& p,
                                  SimTime deadline) {
  // One outstanding timer per pair. If it is already pending it fires at or
  // before this deadline (earlier sends have earlier deadlines) and will
  // rearm itself at the window's minimum.
  if (p.timer_armed) return;
  p.timer_armed = true;
  inner_.queue().schedule_timer_at(deadline, this, from, to);
}

bool ReliableTransport::send(HostId from, HostId to, Message msg) {
  // Hooks on the decorator fire before sequence numbering: a drop here is
  // "never sent", not a network fault to heal. Duplicate/delay decisions
  // are ignored at this layer — install the FaultPlan on the inner
  // transport instead.
  const FaultDecision d = admit(from, to, msg);
  if (d.action == FaultAction::kDrop) {
    ++dropped_;
    return false;
  }
  SendPair& p = send_[pair_key(lx(from), to)];
  msg.rel_seq = ++p.next_seq;
  ++sent_;
  ++stats_.tracked_sent;

  const std::uint32_t slot = acquire_slot();
  InFlight& f = inflight_[slot];
  f.msg = msg;  // copy into the recycled slot; capacity is reused
  f.seq = msg.rel_seq;
  f.retries = 0;
  f.rto = cfg_.rto_ms;
  f.deadline = inner_.queue().now() + f.rto;
  p.window.push_back(slot);
  ++in_flight_;
  arm_timer(from, to, p, f.deadline);

  inner_.send(from, to, std::move(msg));
  return true;
}

void ReliableTransport::on_timer(std::uint32_t from, std::uint32_t to,
                                 std::uint32_t) {
  SendPair& p = send_[pair_key(lx(from), to)];
  p.timer_armed = false;
  const SimTime now = inner_.queue().now();
  SimTime next = std::numeric_limits<SimTime>::infinity();
  for (std::size_t i = 0; i < p.window.size();) {
    const std::uint32_t slot = p.window[i];
    InFlight& f = inflight_[slot];
    if (f.deadline <= now) {
      if (f.retries >= cfg_.max_retries) {
        ++stats_.give_ups;
        giveup_scratch_.push_back(slot);
        p.window[i] = p.window.back();
        p.window.pop_back();
        continue;
      }
      ++f.retries;
      ++stats_.retransmits;
      f.rto *= cfg_.backoff;
      f.deadline = now + f.rto;
      inner_.send(from, to, f.msg);
    }
    if (f.deadline < next) next = f.deadline;
    ++i;
  }
  if (!p.window.empty()) {
    p.timer_armed = true;
    inner_.queue().schedule_timer_at(next, this, from, to);
  }
  // Give-up notifications run last: the callback may send (acquiring fresh
  // slots, touching the pair maps) without invalidating anything above.
  while (!giveup_scratch_.empty()) {
    const std::uint32_t slot = giveup_scratch_.back();
    giveup_scratch_.pop_back();
    if (on_give_up) on_give_up(from, to, inflight_[slot].msg);
    release_slot(slot);
  }
}

bool ReliableTransport::note_fresh(RecvPair& p, std::uint32_t seq) {
  if (seq <= p.cum) return false;
  if (seq == p.cum + 1) {
    ++p.cum;
    // Absorb out-of-order arrivals that are now contiguous.
    bool advanced = true;
    while (advanced && !p.ooo.empty()) {
      advanced = false;
      for (std::size_t i = 0; i < p.ooo.size(); ++i) {
        if (p.ooo[i] == p.cum + 1) {
          ++p.cum;
          p.ooo[i] = p.ooo.back();
          p.ooo.pop_back();
          advanced = true;
          break;
        }
      }
    }
    return true;
  }
  for (const std::uint32_t s : p.ooo)
    if (s == seq) return false;
  p.ooo.push_back(seq);
  return true;
}

void ReliableTransport::on_deliver(HostId from, HostId self,
                                   const Message& msg) {
  if (const auto* ack = std::get_if<RelAckMsg>(&msg.body)) {
    on_ack(self, from, ack->acked_seq);
    return;
  }
  if (msg.rel_seq == 0) {
    // Untracked message (sent straight through the inner transport by some
    // other party); hand it up as-is.
    handlers_[lx(self)](from, msg);
    return;
  }
  // Ack first and unconditionally — for a duplicate, the lost ack is
  // exactly what the sender is retransmitting to get.
  ++stats_.acks_sent;
  inner_.send(self, from, Message{NodeId{}, RelAckMsg{msg.rel_seq}});
  RecvPair& p = recv_[pair_key(lx(self), from)];
  if (!note_fresh(p, msg.rel_seq)) {
    ++stats_.dup_suppressed;
    return;
  }
  ++delivered_;
  handlers_[lx(self)](from, msg);
}

void ReliableTransport::on_ack(HostId self, HostId from, std::uint32_t seq) {
  const auto it = send_.find(pair_key(lx(self), from));
  if (it == send_.end()) return;
  SendPair& p = it->second;
  for (std::size_t i = 0; i < p.window.size(); ++i) {
    InFlight& f = inflight_[p.window[i]];
    if (f.seq == seq) {
      release_slot(p.window[i]);
      p.window[i] = p.window.back();
      p.window.pop_back();
      return;
    }
  }
  // Ack for a message no longer tracked: already acked (the inner network
  // duplicated data or ack), or already given up. Nothing to do.
}

}  // namespace hcube
