// Export of the simulator's stats into a MetricsRegistry.
//
// The stats structs scattered through the layers (JoinStats,
// Overlay::JoinCounters, ReliabilityStats, ConformanceStats, ChaosResult)
// each declare their canonical registry names with HCUBE_METRIC next to
// their fields and expose a for_each_metric(fn) visitor; collect_counters()
// pours any of them into a registry. collect(Overlay) adds the
// overlay-level view: network totals, per-message-type send counts,
// membership gauges and the per-join histograms (duration, notification
// cost, copy+wait cost) the benchmarks chart.
#pragma once

#include <string>

#include "util/metric.h"
#include "obs/metrics.h"
#include "proto/messages.h"

namespace hcube {
class Overlay;
}  // namespace hcube

namespace hcube::obs {

// Overlay-level canonical names.
HCUBE_METRIC(kMetricNetMessages, "net.messages");
HCUBE_METRIC(kMetricNetBytes, "net.bytes");
HCUBE_METRIC(kMetricOverlayNodes, "overlay.nodes");
HCUBE_METRIC(kMetricOverlayInSystem, "overlay.in_system");
HCUBE_METRIC(kMetricOverlayDeparted, "overlay.departed");
HCUBE_METRIC(kMetricOverlayCrashed, "overlay.crashed");
HCUBE_METRIC(kMetricJoinDurationMs, "join.duration_ms");
HCUBE_METRIC(kMetricJoinNotiSent, "join.noti_sent");
HCUBE_METRIC(kMetricJoinCopyWaitSent, "join.copy_wait_sent");

// Registry name of the network-wide send counter for one message type:
// "msg.sent." + the lowercased type name without its "Msg" suffix
// (kCpRst -> "msg.sent.cprst").
std::string send_metric_name(MessageType t);

// Pours any stats struct with a for_each_metric(fn) visitor emitting
// (canonical name, uint64 value) pairs into `reg` as counters. Counters
// accumulate, so collecting per-node structs sums across nodes.
template <class Stats>
void collect_counters(const Stats& stats, MetricsRegistry& reg) {
  stats.for_each_metric([&reg](const char* name, std::uint64_t value) {
    reg.add_named(name, value);
  });
}

// Exports the whole overlay: network totals (net.*, msg.sent.*),
// conformance rejections, the robustness counters (join.*, from
// Overlay::JoinCounters plus the summed JoinStats::watchdog_restarts),
// membership gauges (overlay.*) and the per-join histograms over every
// node whose current incarnation joined through the protocol and finished.
void collect(const Overlay& overlay, MetricsRegistry& reg);

}  // namespace hcube::obs
