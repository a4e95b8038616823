#include "core/overlay.h"

#include "util/check.h"

namespace hcube {

Overlay::Overlay(const IdParams& params, const ProtocolOptions& options,
                 Transport& transport)
    : params_(params),
      options_(options),
      transport_(transport),
      backoff_rng_(options.backoff_seed) {
  params_.validate();
}

Node& Overlay::add_node(const NodeId& id) {
  HCUBE_CHECK_MSG(find(id) == nullptr, "duplicate node ID");
  auto node = std::make_unique<Node>(id, params_, *this, arena_);
  Node* raw = node.get();
  // Deliveries pass through the interception seam before the node sees
  // them; `this` is captured (not the current interceptor value) so an
  // interceptor installed after add_node still covers this endpoint.
  const HostId host =
      transport_.add_endpoint([this, raw](HostId from, const Message& msg) {
        if (delivery_interceptor && delivery_interceptor(*raw, from, msg))
          return;
        raw->handle(from, msg);
      });
  HCUBE_CHECK_MSG(host == nodes_.size(),
                  "overlay must be the transport's only endpoint registrant");
  raw->bind_host(host);
  nodes_.push_back(std::move(node));
  join_counted_.push_back(0);
  if (id.ref() >= registry_.size()) registry_.resize(id.ref() + 1, kNoHost);
  registry_[id.ref()] = host;
  return *raw;
}

void Overlay::track_join_backlog(const NodeId& node, NodeStatus to) {
  const HostId host =
      node.ref() < registry_.size() ? registry_[node.ref()] : kNoHost;
  if (host == kNoHost) return;  // transition during registration
  const bool joining = is_joining(to);
  if (joining == (join_counted_[host] != 0)) return;
  join_counted_[host] = joining ? 1 : 0;
  lanes_[lane_scratch_slot()].join_backlog += joining ? 1 : -1;
}

Overlay::LaneCounters Overlay::merged() const {
  LaneCounters sum;
  for (const LaneCounters& lane : lanes_) {
    for (std::size_t t = 0; t < kNumMessageTypes; ++t) {
      sum.totals.sent[t] += lane.totals.sent[t];
      sum.conformance.rejected[t] += lane.conformance.rejected[t];
    }
    sum.totals.messages += lane.totals.messages;
    sum.totals.bytes += lane.totals.bytes;
    sum.join.stale_rejected += lane.join.stale_rejected;
    sum.join.forced_departures += lane.join.forced_departures;
    sum.join.suspected_peers += lane.join.suspected_peers;
    sum.join.backoff_waits += lane.join.backoff_waits;
    sum.join.admission_deferrals += lane.join.admission_deferrals;
    sum.join_backlog += lane.join_backlog;
  }
  return sum;
}

HostId Overlay::host_of(const NodeId& id) const {
  const HostId host =
      id.ref() < registry_.size() ? registry_[id.ref()] : kNoHost;
  HCUBE_CHECK_MSG(host != kNoHost, "unknown node ID");
  return host;
}

Node* Overlay::find(const NodeId& id) {
  if (!id.is_valid() || id.ref() >= registry_.size()) return nullptr;
  const HostId host = registry_[id.ref()];
  return host == kNoHost ? nullptr : nodes_[host].get();
}

const Node* Overlay::find(const NodeId& id) const {
  if (!id.is_valid() || id.ref() >= registry_.size()) return nullptr;
  const HostId host = registry_[id.ref()];
  return host == kNoHost ? nullptr : nodes_[host].get();
}

Node& Overlay::at(const NodeId& id) {
  Node* n = find(id);
  HCUBE_CHECK_MSG(n != nullptr, "unknown node ID");
  return *n;
}

const Node& Overlay::at(const NodeId& id) const {
  const Node* n = find(id);
  HCUBE_CHECK_MSG(n != nullptr, "unknown node ID");
  return *n;
}

bool Overlay::all_in_system() const {
  for (const auto& node : nodes_) {
    if (node->has_departed() || node->is_crashed()) continue;
    if (!node->is_s_node()) return false;
  }
  return true;
}

std::size_t Overlay::live_size() const {
  std::size_t n = 0;
  for (const auto& node : nodes_)
    if (!node->has_departed() && !node->is_crashed()) ++n;
  return n;
}

void Overlay::send_message(const NodeId& from, const NodeId& to,
                           MessageBody body, HostId from_host, HostId to_host,
                           std::uint32_t gen) {
  // Hot path: both hosts pre-resolved by the caller — no hashing below.
  if (from_host == kNoHost) from_host = host_of(from);
  if (to_host == kNoHost) to_host = host_of(to);

  const MessageType type = type_of(body);
  Totals& totals = lanes_[lane_scratch_slot()].totals;
  ++totals.messages;
  ++totals.sent[static_cast<std::size_t>(type)];
  totals.bytes += wire_size_bytes(body, params_);
  nodes_[from_host]->count_send(type);
  if (on_message) on_message(from, to, body);
  if (drop_filter_ && drop_filter_(from, to, body)) return;

  transport_.send(from_host, to_host,
                  Message{from, std::move(body), /*rel_seq=*/0, gen});
}

}  // namespace hcube
