// Spans for the traced join-wave run, recorded from the benchmark's side
// of each layer boundary: a forwarding Transport between the Overlay and
// the ShardedNet facade times every send and wraps every delivery handler,
// and the wave driver wraps its join actions, the offline build and each
// lookup. Spans stay in memory and are written out when the run ends.
//
// Single lane only: the span stack is one per process, so the traced run
// is always K = 1.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "net/transport.h"
#include "report.h"

namespace hcube::perfbench {

enum class SpanKind : std::uint8_t {
  kBuild,    // build_consistent_network
  kAction,   // one driver join action (add_node + start_join)
  kHandler,  // one delivery into the overlay's handler
  kSend,     // one Overlay -> transport send
  kLookup,   // one route() call
  kCount,
};

struct Span {
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint32_t parent = 0;  // index + 1 of the enclosing span; 0 = none
  SpanKind kind = SpanKind::kBuild;
};

class SpanLog {
 public:
  std::uint32_t begin(SpanKind kind) {
    spans_.push_back(Span{now_ns(), 0, open_, kind});
    open_ = static_cast<std::uint32_t>(spans_.size());
    return open_;
  }
  void end(std::uint32_t id) {
    Span& s = spans_[id - 1];
    s.t1_ns = now_ns();
    open_ = s.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per kind over spans [from, end): duration minus the time
  // covered by direct children.
  std::vector<double> self_seconds(std::size_t from = 0) const {
    std::vector<double> self(static_cast<std::size_t>(SpanKind::kCount), 0.0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double d = static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
      self[static_cast<std::size_t>(s.kind)] += d;
      if (s.parent > from)
        self[static_cast<std::size_t>(spans_[s.parent - 1].kind)] -= d;
    }
    return self;
  }

  // Total duration of the top-level spans in [from, end).
  double top_level_seconds(std::size_t from = 0) const {
    double total = 0.0;
    for (std::size_t i = from; i < spans_.size(); ++i)
      if (spans_[i].parent == 0)
        total += static_cast<double>(spans_[i].t1_ns - spans_[i].t0_ns) * 1e-9;
    return total;
  }

  // Raw span dump: one fixed-size record per span, in recording order.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const bool ok = spans_.empty() ||
                    std::fwrite(spans_.data(), sizeof(Span), spans_.size(),
                                f) == spans_.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  std::vector<Span> spans_;
  std::uint32_t open_ = 0;
};

// One Overlay send as the layered replay needs it (replay.h).
struct SendRecord {
  SimTime t = 0.0;
  HostId from = kNoHost;
  HostId to = kNoHost;
  MessageType type = MessageType::kCpRst;
};

// Forwarding transport: spans around sends and handlers, and (when given a
// record vector) the send sequence for the layered replay. Honors its own
// drop filter like any transport, then defers to the inner one.
class TracingTransport final : public Transport {
 public:
  TracingTransport(Transport& inner, SpanLog& log,
                   std::vector<SendRecord>* record)
      : inner_(inner), log_(log), record_(record) {}

  HostId add_endpoint(Handler handler) override {
    return inner_.add_endpoint(
        [this, h = std::move(handler)](HostId from, const Message& msg) {
          const std::uint32_t span = log_.begin(SpanKind::kHandler);
          h(from, msg);
          log_.end(span);
        });
  }
  std::uint32_t num_endpoints() const override {
    return inner_.num_endpoints();
  }

  bool send(HostId from, HostId to, Message msg) override {
    if (admit(from, to, msg).action == FaultAction::kDrop) return false;
    if (record_ != nullptr)
      record_->push_back({inner_.queue().now(), from, to, type_of(msg.body)});
    const std::uint32_t span = log_.begin(SpanKind::kSend);
    const bool sent = inner_.send(from, to, std::move(msg));
    log_.end(span);
    return sent;
  }

  EventQueue& queue() override { return inner_.queue(); }
  std::uint64_t messages_sent() const override {
    return inner_.messages_sent();
  }
  std::uint64_t messages_delivered() const override {
    return inner_.messages_delivered();
  }
  std::uint64_t messages_dropped() const override {
    return inner_.messages_dropped();
  }

 private:
  Transport& inner_;
  SpanLog& log_;
  std::vector<SendRecord>* record_;
};

}  // namespace hcube::perfbench
