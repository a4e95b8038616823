#include "obs/join_span.h"

#include <utility>

#include "analysis/join_cost.h"
#include "core/overlay.h"
#include "obs/metrics.h"

namespace hcube::obs {

const char* to_string(SpanTerminal t) {
  switch (t) {
    case SpanTerminal::kOpen: return "open";
    case SpanTerminal::kCompleted: return "completed";
    case SpanTerminal::kSuperseded: return "superseded";
    case SpanTerminal::kForcedDeparture: return "forced_departure";
  }
  return "?";
}

void JoinSpanTracer::attach(Overlay& overlay) {
  auto prev_status = std::move(overlay.on_status_change);
  overlay.on_status_change = [this, &overlay, prev_status = std::move(
                                                  prev_status)](
                                 const NodeId& node, NodeStatus from,
                                 NodeStatus to, std::uint32_t gen) {
    if (prev_status) prev_status(node, from, to, gen);
    record_status(overlay.now(), node, to, gen);
  };

  auto prev_message = std::move(overlay.on_message);
  overlay.on_message = [this, prev_message = std::move(prev_message)](
                           const NodeId& from, const NodeId& to,
                           const MessageBody& body) {
    if (prev_message) prev_message(from, to, body);
    record_send(from, type_of(body));
  };
}

JoinSpan* JoinSpanTracer::open_span(const NodeId& node) {
  const auto it = open_.find(node);
  return it == open_.end() ? nullptr : &spans_[it->second];
}

void JoinSpanTracer::close(std::size_t index, SimTime at,
                           SpanTerminal terminal) {
  JoinSpan& span = spans_[index];
  span.t_end = at;
  span.terminal = terminal;
  open_.erase(span.node);
}

void JoinSpanTracer::record_status(SimTime at, const NodeId& node,
                                   NodeStatus to, std::uint32_t gen) {
  const auto it = open_.find(node);

  if (to == NodeStatus::kCopying) {
    if (it != open_.end()) {
      if (spans_[it->second].gen == gen) {
        // Duplicate report of the attempt we are already tracking.
        spans_[it->second].transitions.push_back({at, to});
        return;
      }
      close(it->second, at, SpanTerminal::kSuperseded);
    }
    JoinSpan span;
    span.node = node;
    span.gen = gen;
    span.t_begin = at;
    span.transitions.push_back({at, to});
    open_.emplace(node, spans_.size());
    spans_.push_back(std::move(span));
    return;
  }

  if (it == open_.end()) return;  // seeds, installed members, leavers

  JoinSpan& span = spans_[it->second];
  span.transitions.push_back({at, to});
  switch (to) {
    case NodeStatus::kInSystem:
      close(it->second, at, SpanTerminal::kCompleted);
      break;
    case NodeStatus::kLeaving:
    case NodeStatus::kDeparted:
    case NodeStatus::kCrashed:
      close(it->second, at, SpanTerminal::kForcedDeparture);
      break;
    default:
      break;  // kWaiting / kNotifying: interior transitions
  }
}

void JoinSpanTracer::record_send(const NodeId& from, MessageType type) {
  JoinSpan* span = open_span(from);
  if (span != nullptr) ++span->sent[static_cast<std::size_t>(type)];
}

std::vector<const JoinSpan*> JoinSpanTracer::theorem3_violations(
    const IdParams& params) const {
  const std::uint64_t bound = theorem3_bound(params);
  std::vector<const JoinSpan*> out;
  for (const JoinSpan& span : spans_) {
    if (span.terminal != SpanTerminal::kCompleted) continue;
    if (span.copy_plus_wait() > bound) out.push_back(&span);
  }
  return out;
}

double JoinSpanTracer::mean_noti_sent() const {
  std::uint64_t total = 0, completed = 0;
  for (const JoinSpan& span : spans_) {
    if (span.terminal != SpanTerminal::kCompleted) continue;
    total += span.sent_of(MessageType::kJoinNoti);
    ++completed;
  }
  return completed == 0
             ? 0.0
             : static_cast<double>(total) / static_cast<double>(completed);
}

void JoinSpanTracer::summary_to(MetricsRegistry& reg) const {
  const auto opened = reg.counter(kMetricSpanOpened);
  const auto completed = reg.counter(kMetricSpanCompleted);
  const auto superseded = reg.counter(kMetricSpanSuperseded);
  const auto forced = reg.counter(kMetricSpanForcedDepartures);
  const auto duration = reg.histogram(kMetricSpanDurationMs);
  const auto copy_wait = reg.histogram(kMetricSpanCopyWaitSent);
  const auto noti = reg.histogram(kMetricSpanNotiSent);

  for (const JoinSpan& span : spans_) {
    reg.add(opened);
    switch (span.terminal) {
      case SpanTerminal::kOpen: break;
      case SpanTerminal::kCompleted:
        reg.add(completed);
        reg.observe(duration, span.duration_ms());
        reg.observe(copy_wait, static_cast<double>(span.copy_plus_wait()));
        reg.observe(noti,
                    static_cast<double>(span.sent_of(MessageType::kJoinNoti)));
        break;
      case SpanTerminal::kSuperseded: reg.add(superseded); break;
      case SpanTerminal::kForcedDeparture: reg.add(forced); break;
    }
  }
}

}  // namespace hcube::obs
