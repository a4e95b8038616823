#include "net/sharded_net.h"

#include <utility>

#include "sim/shard_context.h"
#include "util/check.h"
#include "util/rng.h"

namespace hcube {

namespace {
// Fixed lane-assignment salt: lane homes are part of no digest (behavior is
// K-independent by construction), but a stable hash keeps populations
// balanced and runs reproducible across builds.
constexpr std::uint64_t kShardSalt = 0x51ab7e93d2c46f01ULL;
}  // namespace

// --------------------------------------------------------------- facade --

HostId ShardedTransport::add_endpoint(Handler handler) {
  return net_.register_endpoint(std::move(handler));
}

std::uint32_t ShardedTransport::num_endpoints() const {
  return static_cast<std::uint32_t>(net_.routes_.lane_of.size());
}

bool ShardedTransport::send(HostId from, HostId to, Message msg) {
  // The decorator-level seam with one-lane parity: a drop here is "never
  // sent" (no sequence number, no retransmission), exactly as on a
  // one-lane net's ReliableTransport. Duplicate/delay decisions are
  // ignored at this layer — install fault plans on the lane transports.
  const FaultDecision d = admit(from, to, msg);
  if (d.action == FaultAction::kDrop) {
    ++dropped_here_;
    return false;
  }
  return net_.lanes_[net_.routes_.lane_of[from]]->rel.send(from, to,
                                                           std::move(msg));
}

EventQueue& ShardedTransport::queue() {
  EventQueue* q = current_lane_queue();
  HCUBE_CHECK_MSG(q != nullptr,
                  "sharded transport queue() outside a lane scope");
  return *q;
}

std::uint64_t ShardedTransport::messages_sent() const {
  std::uint64_t n = 0;
  for (const auto& lane : net_.lanes_) n += lane->rel.messages_sent();
  return n;
}

std::uint64_t ShardedTransport::messages_delivered() const {
  std::uint64_t n = 0;
  for (const auto& lane : net_.lanes_) n += lane->rel.messages_delivered();
  return n;
}

std::uint64_t ShardedTransport::messages_dropped() const {
  std::uint64_t n = dropped_here_;
  for (const auto& lane : net_.lanes_) n += lane->rel.messages_dropped();
  return n;
}

// ------------------------------------------------------------------ net --

ShardedNet::Lane::Lane(LatencyModel& latency, LaneRoutes* routes,
                       std::uint32_t index, const ReliabilityConfig& rel_cfg)
    : transport(routes == nullptr
                    ? SimTransport(queue, latency)
                    : SimTransport(queue, latency, *routes, index)),
      rel(transport, rel_cfg) {}

ShardedNet::ShardedNet(const Params& params, LatencyModel& latency)
    : salt_(kShardSalt),
      epoch_ms_(latency.min_latency_ms()),
      facade_(*this) {
  HCUBE_CHECK(params.lanes >= 1 && params.lanes <= kMaxShardLanes);
  // One lane never reads the epoch: zero latency serves it.
  HCUBE_CHECK_MSG(params.lanes == 1 || epoch_ms_ > 0.0,
                  "latency model cannot bound cross-shard latency");
  const std::uint32_t k = params.lanes;
  lanes_.reserve(k);
  if (k == 1) {
    // The plain stack: a standalone transport that owns every host (and
    // sizes its handler column for them); nothing to route or mail.
    lanes_.push_back(std::make_unique<Lane>(latency, nullptr, 0, params.rel));
  } else {
    // Size the per-host columns for the latency model's full population up
    // front: growth doubling on million-entry vectors would otherwise leave
    // ~2x capacity slack, which bench_scale's bytes/node ceiling charges to
    // every node. Per-lane columns get the expected share plus a ~1.5%
    // imbalance margin (the hash split's deviation at n = 10^6 is well
    // under 0.1%); an overflow merely falls back to doubling from there.
    const std::size_t expected = latency.num_hosts();
    const std::size_t per_lane = expected / k + expected / 64 + 64;
    routes_.lane_of.reserve(expected);
    routes_.local_of.reserve(expected);
    routes_.out.assign(k, std::vector<Outbox>(k));
    for (std::uint32_t i = 0; i < k; ++i) {
      auto lane = std::make_unique<Lane>(latency, &routes_, i, params.rel);
      lane->transport.reserve_endpoints(per_lane);
      lane->rel.reserve_endpoints(per_lane);
      lanes_.push_back(std::move(lane));
    }
  }
  std::vector<EventQueue*> queues;
  queues.reserve(k);
  for (auto& lane : lanes_) queues.push_back(&lane->queue);
  driver_ = std::make_unique<ShardDriver>(std::move(queues), epoch_ms_,
                                          [this] { commit_mailboxes(); });
}

std::uint32_t ShardedNet::shard_of(HostId h) const {
  std::uint64_t s = salt_ ^ (static_cast<std::uint64_t>(h) *
                             0x9e3779b97f4a7c15ULL);
  return static_cast<std::uint32_t>(splitmix64_next(s) % num_lanes());
}

HostId ShardedNet::register_endpoint(Transport::Handler handler) {
  const HostId g = static_cast<HostId>(routes_.lane_of.size());
  const std::uint32_t lane = shard_of(g);
  routes_.lane_of.push_back(lane);
  routes_.local_of.push_back(lanes_[lane]->rel.num_endpoints());
  return lanes_[lane]->rel.add_endpoint_as(g, std::move(handler));
}

void ShardedNet::commit_mailboxes() {
  // Canonical (epoch, src_shard, seq) order: barriers order the epochs,
  // this loop orders sources, each outbox keeps append order. Neither
  // commit_remote nor on_receipt sends, so no outbox grows while drained.
  const std::uint32_t k = num_lanes();
  for (std::uint32_t dst = 0; dst < k; ++dst) {
    for (std::uint32_t src = 0; src < k; ++src) {
      if (src == dst) continue;
      Outbox& box = routes_.out[src][dst];
      cross_shard_ += box.mail.size() + box.receipts.size();
      for (RemoteDelivery& r : box.mail)
        lanes_[dst]->transport.commit_remote(std::move(r));
      for (const AckReceipt& a : box.receipts) lanes_[dst]->rel.on_receipt(a);
      box.mail.clear();
      box.receipts.clear();
    }
  }
}

ReliabilityStats ShardedNet::rel_stats() const {
  ReliabilityStats sum;
  for (const auto& lane : lanes_) {
    const ReliabilityStats& s = lane->rel.rstats();
    sum.tracked_sent += s.tracked_sent;
    sum.retransmits += s.retransmits;
    sum.dup_suppressed += s.dup_suppressed;
    sum.acks_sent += s.acks_sent;
    sum.give_ups += s.give_ups;
  }
  return sum;
}

std::uint64_t ShardedNet::rel_in_flight() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) n += lane->rel.in_flight();
  return n;
}

}  // namespace hcube
