#include "net/reliable_transport.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace hcube {

namespace {
constexpr SimTime kNever = std::numeric_limits<SimTime>::infinity();
}  // namespace

ReliableTransport::ReliableTransport(SimTransport& inner,
                                     ReliabilityConfig cfg)
    : inner_(inner), cfg_(cfg), min_latency_ms_(inner.min_latency_ms()) {
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

void ReliableTransport::arm(HostId from, HostId to, std::uint32_t slot) {
  inner_.queue().schedule_timer_at(inflight_[slot].deadline, this, from, to,
                                   slot);
}

void ReliableTransport::unlink(HostId from, HostId to, std::uint32_t slot) {
  std::uint32_t* link = &send_.find(pair_key(lx(from), to))->head;
  while (*link != slot) link = &inflight_[*link].next;
  *link = inflight_[slot].next;
}

bool ReliableTransport::send(HostId from, HostId to, Message msg) {
  const std::uint32_t slot = acquire_slot();
  SendPair& p = send_[pair_key(lx(from), to)];
  msg.rel_seq = ++p.next_seq;
  ++stats_.tracked_sent;
  ++in_flight_;

  InFlight& f = inflight_[slot];
  f.msg = msg;  // copy into the recycled slot; capacity is reused
  f.seq = msg.rel_seq;
  f.next = p.head;
  p.head = slot;
  f.retries = 0;
  f.hopeful = 0;
  f.rto = cfg_.rto_ms;
  f.deadline = inner_.queue().now() + f.rto;
  f.ack_at = kNever;
  f.late.clear();
  transmit(from, to, slot, std::move(msg));
  return true;
}

void ReliableTransport::transmit(HostId from, HostId to, std::uint32_t slot,
                                 Message msg) {
  const SimTransport::Dispatch d = inner_.transmit(from, to, std::move(msg));
  InFlight& f = inflight_[slot];
  const SimTime floor = ack_floor(from, to);
  // Copies that could not beat the previous deadline may beat this one.
  const auto now_hopeful = std::find_if(
      f.late.begin(), f.late.end(),
      [&](SimTime at) { return at + floor >= f.deadline; });
  f.hopeful += static_cast<std::uint32_t>(now_hopeful - f.late.begin());
  f.late.erase(f.late.begin(), now_hopeful);
  if (d.copies != 0) {
    if (d.at + floor < f.deadline)
      f.hopeful += d.copies;
    else
      f.late.insert(std::upper_bound(f.late.begin(), f.late.end(), d.at),
                    d.copies, d.at);
  }
  if (f.ack_at < f.deadline) {
    // An ack already settled beats the new deadline.
    unlink(from, to, slot);
    release_slot(slot);
  } else if (f.hopeful == 0) {
    arm(from, to, slot);
  }
}

void ReliableTransport::on_timer(std::uint32_t from, std::uint32_t to,
                                 std::uint32_t slot) {
  // Armed only for a deadline no ack can beat, so the entry is live and
  // due: retransmit or give up.
  InFlight& f = inflight_[slot];
  if (f.retries >= cfg_.max_retries) {
    ++stats_.give_ups;
    unlink(from, to, slot);
    // The callback may send (acquiring fresh slots, growing the pair
    // tables); this slot is released only after it returns.
    if (on_give_up) on_give_up(from, to, f.msg);
    release_slot(slot);
    return;
  }
  ++f.retries;
  ++stats_.retransmits;
  f.rto *= cfg_.backoff;
  f.deadline = inner_.queue().now() + f.rto;
  transmit(from, to, slot, f.msg);
}

void ReliableTransport::on_receipt(const AckReceipt& r) {
  // r.to sent the data (it lives here); r.from received it.
  SendPair* p = send_.find(pair_key(lx(r.to), r.from));
  if (p == nullptr) return;
  std::uint32_t* link = &p->head;
  while (*link != kNone && inflight_[*link].seq != r.seq)
    link = &inflight_[*link].next;
  // Already settled by an earlier copy's ack, or given up.
  if (*link == kNone) return;
  const std::uint32_t slot = *link;
  InFlight& f = inflight_[slot];
  f.ack_at = std::min(f.ack_at, r.ack_at);
  if (f.hopeful == 0) {
    // A copy that could not beat the deadline, whose timer is armed; its
    // ack can only matter to the next deadline.
    HCUBE_DCHECK(!f.late.empty());
    f.late.erase(f.late.begin());
    return;
  }
  --f.hopeful;
  if (f.ack_at < f.deadline) {
    *link = f.next;
    release_slot(slot);
  } else if (f.hopeful == 0) {
    arm(r.to, r.from, slot);
  }
}

bool ReliableTransport::note_fresh(RecvPair& p, std::uint32_t seq) {
  if (seq <= p.cum) return false;
  if (seq == p.cum + 1) {
    ++p.cum;
    if (p.ooo == 0) return true;
    // Absorb out-of-order arrivals that are now contiguous.
    std::vector<std::uint32_t>& ooo = ooo_[p.ooo - 1];
    bool advanced = true;
    while (advanced && !ooo.empty()) {
      advanced = false;
      for (std::size_t i = 0; i < ooo.size(); ++i) {
        if (ooo[i] == p.cum + 1) {
          ++p.cum;
          ooo[i] = ooo.back();
          ooo.pop_back();
          advanced = true;
          break;
        }
      }
    }
    return true;
  }
  if (p.ooo == 0) {
    ooo_.emplace_back();
    p.ooo = static_cast<std::uint32_t>(ooo_.size());
  }
  std::vector<std::uint32_t>& ooo = ooo_[p.ooo - 1];
  if (std::find(ooo.begin(), ooo.end(), seq) != ooo.end()) return false;
  ooo.push_back(seq);
  return true;
}

void ReliableTransport::on_deliver(HostId from, HostId self,
                                   const Message& msg) {
  if (msg.rel_seq == 0) {
    // Untracked message (sent straight through the inner transport by some
    // other party); hand it up as-is.
    handlers_[lx(self)](from, msg);
    return;
  }
  // Ack first and unconditionally — for a duplicate, the lost ack is
  // exactly what the sender is retransmitting to get. The ack crosses the
  // fault seam now and settles the sender's entry without an event.
  ++stats_.acks_sent;
  const AckReceipt r{
      self, from, msg.rel_seq,
      inner_.settle(self, from, Message{NodeId{}, RelAckMsg{msg.rel_seq}}).at};
  if (!inner_.mail_receipt(r)) on_receipt(r);
  if (!note_fresh(recv_[pair_key(lx(self), from)], msg.rel_seq)) {
    ++stats_.dup_suppressed;
    return;
  }
  ++delivered_;
  handlers_[lx(self)](from, msg);
}

}  // namespace hcube
