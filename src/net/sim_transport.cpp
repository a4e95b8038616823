#include "net/sim_transport.h"

#include <utility>

#include "util/check.h"

namespace hcube {

SimTransport::SimTransport(EventQueue& queue, LatencyModel& latency)
    : queue_(queue), latency_(latency) {
  // The whole population is known up front; registration never reallocates.
  handlers_.reserve(latency.num_hosts());
}

SimTransport::SimTransport(EventQueue& queue, LatencyModel& latency,
                           LaneRoutes& routes, std::uint32_t lane)
    : queue_(queue), latency_(latency), routes_(&routes), lane_(lane) {}

HostId SimTransport::add_endpoint(Handler handler) {
  HCUBE_CHECK_MSG(routes_ == nullptr,
                  "lane endpoints register via add_endpoint_as");
  return add_endpoint_as(num_endpoints(), std::move(handler));
}

HostId SimTransport::add_endpoint_as(HostId host, Handler handler) {
  HCUBE_CHECK_MSG(host < latency_.num_hosts(),
                  "more endpoints than hosts in the latency model");
  HCUBE_CHECK_MSG(routes_ == nullptr || host < routes_->local_of.size(),
                  "lane endpoint without a slot in the routes");
  HCUBE_CHECK_MSG(local_index(host) == handlers_.size(),
                  "endpoint registered out of slot order");
  handlers_.push_back(std::move(handler));
  return host;
}

std::uint32_t SimTransport::park(Message msg) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(msg);
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(std::move(msg));
  return slot;
}

void SimTransport::dispatch(HostId from, HostId to, SimTime deliver_at,
                            Message msg) {
  if (routes_ != nullptr) {
    const std::uint32_t dst = routes_->lane_of[to];
    if (dst != lane_) {
      routes_->out[lane_][dst].mail.push_back(
          RemoteDelivery{deliver_at, from, to, std::move(msg)});
      return;
    }
  }
  queue_.schedule_delivery_at(deliver_at, this, from, to,
                              park(std::move(msg)));
}

SimTransport::Dispatch SimTransport::settle(HostId from, HostId to,
                                            const Message& msg) {
  const std::size_t hosts =
      routes_ != nullptr ? routes_->lane_of.size() : handlers_.size();
  HCUBE_CHECK(from < hosts && to < hosts);
  const FaultDecision d = admit(from, to, msg);
  if (d.action == FaultAction::kDrop) {
    ++messages_dropped_;
    return {};
  }
  const std::uint32_t copies = d.action == FaultAction::kDuplicate ? 2 : 1;
  messages_sent_ += copies;
  return {queue_.now() + (latency_.latency_ms(from, to) + d.extra_delay_ms),
          copies};
}

SimTransport::Dispatch SimTransport::transmit(HostId from, HostId to,
                                              Message msg) {
  const Dispatch out = settle(from, to, msg);
  // The duplicate is dispatched first, as its own in-flight copy (its own
  // slab slot or outbox entry), with the same delivery time.
  if (out.copies == 2) dispatch(from, to, out.at, msg);
  if (out.copies != 0) dispatch(from, to, out.at, std::move(msg));
  return out;
}

bool SimTransport::mail_receipt(const AckReceipt& r) {
  if (routes_ == nullptr) return false;
  const std::uint32_t dst = routes_->lane_of[r.to];
  if (dst == lane_) return false;
  routes_->out[lane_][dst].receipts.push_back(r);
  return true;
}

void SimTransport::deliver(HostId from, HostId to,
                           std::uint32_t payload_slot) {
  // The payload is handed to the handler in place — the slab is a deque, so
  // a handler that sends (growing the slab or recycling other slots) cannot
  // invalidate this reference, and the slot is released only afterwards.
  ++messages_delivered_;
  handlers_[local_index(to)](from, slots_[payload_slot]);
  free_slots_.push_back(payload_slot);
}

void SimTransport::commit_remote(RemoteDelivery r) {
  queue_.schedule_delivery_at(r.deliver_at, this, r.from, r.to,
                              park(std::move(r.msg)));
}

}  // namespace hcube
