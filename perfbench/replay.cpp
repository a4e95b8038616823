#include "replay.h"

#include <array>
#include <utility>

#include "net/reliable_transport.h"
#include "net/sim_transport.h"

namespace hcube::perfbench {

namespace {

// One default-bodied Message per type for the transport stacks to carry:
// their handlers ignore payloads, so the type is all a replay keeps.
template <std::size_t... I>
std::array<Message, sizeof...(I)> make_prototypes(std::index_sequence<I...>) {
  return {Message{NodeId{}, MessageBody(std::in_place_index<I>), 0, 0}...};
}

const std::array<Message, kNumMessageTypes>& prototypes() {
  static const auto kProto =
      make_prototypes(std::make_index_sequence<kNumMessageTypes>{});
  return kProto;
}

class NoopSink final : public DeliverySink {
 public:
  void deliver(HostId, HostId, std::uint32_t) override {}
};

// Stack 1: the queue alone. Delivery times were fixed at recording.
double run_queue_only(const std::vector<SendRecord>& sends,
                      const std::vector<SimTime>& deliver_at) {
  EventQueue queue;
  NoopSink sink;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const SendRecord& r = sends[i];
    queue.run_until(r.t);
    queue.schedule_delivery_at(deliver_at[i], &sink, r.from, r.to, 0);
  }
  queue.run();
  return seconds_since(t0);
}

// Stacks 2 and 3: a fresh queue, transport and (optionally) reliable
// decorator with one no-op endpoint per host; only the replay is timed.
double run_transport(const std::vector<SendRecord>& sends,
                     LatencyModel& latency, bool reliable) {
  EventQueue queue;
  SimTransport sim(queue, latency);
  std::unique_ptr<ReliableTransport> rel;
  Transport* top = &sim;
  if (reliable) {
    ReliabilityConfig cfg;
    cfg.rto_ms = 500.0;  // the wave's setting
    rel = std::make_unique<ReliableTransport>(sim, cfg);
    top = rel.get();
  }
  for (std::uint32_t h = 0; h < latency.num_hosts(); ++h)
    top->add_endpoint([](HostId, const Message&) {});
  const auto t0 = Clock::now();
  for (const SendRecord& r : sends) {
    queue.run_until(r.t);
    top->send(r.from, r.to, prototypes()[static_cast<std::size_t>(r.type)]);
  }
  queue.run();
  return seconds_since(t0);
}

}  // namespace

ReplayCost replay_layers(const std::vector<SendRecord>& sends,
                         LatencyModel& latency, int reps) {
  ReplayCost cost;
  if (sends.empty()) return cost;
  std::vector<SimTime> deliver_at;
  deliver_at.reserve(sends.size());
  for (const SendRecord& r : sends)
    deliver_at.push_back(r.t + latency.latency_ms(r.from, r.to));

  std::vector<double> queue_s, sim_s, rel_s;
  for (int i = 0; i < reps; ++i) {
    queue_s.push_back(run_queue_only(sends, deliver_at));
    sim_s.push_back(run_transport(sends, latency, /*reliable=*/false));
    rel_s.push_back(run_transport(sends, latency, /*reliable=*/true));
  }
  const double per_msg = 1e9 / static_cast<double>(sends.size());
  const double q = median(queue_s) * per_msg;
  const double s = median(sim_s) * per_msg;
  const double r = median(rel_s) * per_msg;
  cost.queue_ns = q;
  cost.sim_ns = s - q;
  cost.reliable_ns = r - s;
  return cost;
}

}  // namespace hcube::perfbench
