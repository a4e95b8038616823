// Join-lifecycle trace spans.
//
// One span per join attempt, keyed by (node, attempt generation): opened
// when the node (re-)enters kCopying, carried through the paper's status
// trajectory copying -> waiting -> notifying -> in_system, closed by exactly
// one terminal event. Each span records its status transitions with
// simulated timestamps (no wall clock anywhere) and per-message-type send
// counts charged to the attempt — which is what lets the theorem-bound
// tests assert per-attempt message budgets (Theorem 3's #CpRstMsg +
// #JoinWaitMsg <= d+1) instead of per-node lifetime totals.
//
// Terminals:
//   kCompleted        the attempt reached kInSystem;
//   kSuperseded       a new attempt generation opened before this one
//                     finished (join-stall watchdog restart, crash rejoin);
//   kForcedDeparture  the node crashed, left, or was forced out mid-join.
//
// The tracer subscribes to Overlay hooks via attach() (chaining any
// previously installed observer, which keeps firing). The record_* methods
// are public so tests can drive synthetic trajectories — e.g. a seeded
// fault that sends one CpRstMsg too many — without standing up an overlay.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ids/node_id.h"
#include "util/metric.h"
#include "proto/conformance.h"
#include "proto/messages.h"
#include "sim/event_queue.h"

namespace hcube {
class Overlay;
}  // namespace hcube

namespace hcube::obs {

class MetricsRegistry;

// Canonical registry names for the span summary (summary_to()).
HCUBE_METRIC(kMetricSpanOpened, "span.opened");
HCUBE_METRIC(kMetricSpanCompleted, "span.completed");
HCUBE_METRIC(kMetricSpanSuperseded, "span.superseded");
HCUBE_METRIC(kMetricSpanForcedDepartures, "span.forced_departures");
HCUBE_METRIC(kMetricSpanDurationMs, "span.duration_ms");
HCUBE_METRIC(kMetricSpanCopyWaitSent, "span.copy_wait_sent");
HCUBE_METRIC(kMetricSpanNotiSent, "span.noti_sent");

enum class SpanTerminal : std::uint8_t {
  kOpen,
  kCompleted,
  kSuperseded,
  kForcedDeparture,
};
const char* to_string(SpanTerminal t);

struct JoinSpan {
  struct Transition {
    SimTime at = -1.0;
    NodeStatus to = NodeStatus::kCopying;
  };

  NodeId node;
  std::uint32_t gen = 0;
  SimTime t_begin = -1.0;
  SimTime t_end = -1.0;  // set by the terminal event
  SpanTerminal terminal = SpanTerminal::kOpen;
  std::array<std::uint64_t, kNumMessageTypes> sent{};
  std::vector<Transition> transitions;  // includes the opening kCopying

  std::uint64_t sent_of(MessageType t) const {
    return sent[static_cast<std::size_t>(t)];
  }
  // The Theorem 3 quantity, per attempt.
  std::uint64_t copy_plus_wait() const {
    return sent_of(MessageType::kCpRst) + sent_of(MessageType::kJoinWait);
  }
  // Simulated milliseconds from kCopying to the terminal; -1 while open.
  SimTime duration_ms() const {
    return terminal == SpanTerminal::kOpen ? -1.0 : t_end - t_begin;
  }
};

class JoinSpanTracer {
 public:
  // Subscribes to the overlay's on_status_change and on_message hooks,
  // chaining any previously installed observers (they keep firing first).
  // The tracer must outlive the overlay's use of the hooks.
  void attach(Overlay& overlay);

  // ---- manual drive (used by attach's closures and by tests) ----
  void record_status(SimTime at, const NodeId& node, NodeStatus to,
                     std::uint32_t gen);
  void record_send(const NodeId& from, MessageType type);

  // All spans, open and closed, in opening order.
  const std::vector<JoinSpan>& spans() const { return spans_; }
  std::size_t open_count() const { return open_.size(); }

  // Completed spans whose copy_plus_wait() exceeds Theorem 3's d+1 bound.
  std::vector<const JoinSpan*> theorem3_violations(
      const IdParams& params) const;

  // Mean JoinNotiMsg count across completed spans (the Theorem 4/5
  // quantity); 0 when nothing completed.
  double mean_noti_sent() const;

  // Exports span.* counters and histograms (duration, per-attempt message
  // budgets) into a registry.
  void summary_to(MetricsRegistry& reg) const;

 private:
  JoinSpan* open_span(const NodeId& node);
  void close(std::size_t index, SimTime at, SpanTerminal terminal);

  std::vector<JoinSpan> spans_;
  std::unordered_map<NodeId, std::size_t, NodeIdHash> open_;
};

}  // namespace hcube::obs
