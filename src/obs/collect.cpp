#include "obs/collect.h"

#include <cstddef>

#include "core/node.h"
#include "core/overlay.h"

namespace hcube::obs {

std::string send_metric_name(MessageType t) {
  std::string name = "msg.sent.";
  for (const char* p = type_name(t); *p != '\0'; ++p) {
    const char c = *p;
    name.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                        : c);
  }
  // Strip the "msg" suffix every type name carries ("CpRstMsg" -> "cprst").
  name.resize(name.size() - 3);
  return name;
}

void collect(const Overlay& overlay, MetricsRegistry& reg) {
  const Overlay::Totals& totals = overlay.totals();
  reg.add_named(kMetricNetMessages, totals.messages);
  reg.add_named(kMetricNetBytes, totals.bytes);
  for (std::size_t t = 0; t < kNumMessageTypes; ++t) {
    if (totals.sent[t] == 0) continue;
    reg.add_named(send_metric_name(static_cast<MessageType>(t)),
                  totals.sent[t]);
  }
  collect_counters(overlay.conformance(), reg);
  collect_counters(overlay.join_counters(), reg);

  const auto duration = reg.histogram(kMetricJoinDurationMs);
  const auto noti = reg.histogram(kMetricJoinNotiSent);
  const auto copy_wait = reg.histogram(kMetricJoinCopyWaitSent);

  std::uint64_t in_system = 0, departed = 0, crashed = 0;
  for (const auto& node : overlay.nodes()) {
    if (node->is_s_node()) ++in_system;
    if (node->has_departed()) ++departed;
    if (node->is_crashed()) ++crashed;

    const JoinStats& stats = node->join_stats();
    collect_counters(stats, reg);
    // Only nodes that ran the join protocol in this incarnation: seeds and
    // builder-made members carry t_begin == t_end but sent no CpRstMsg.
    if (stats.t_end >= 0.0 && stats.sent_of(MessageType::kCpRst) > 0) {
      reg.observe(duration, stats.t_end - stats.t_begin);
      reg.observe(noti,
                  static_cast<double>(stats.sent_of(MessageType::kJoinNoti)));
      reg.observe(copy_wait, static_cast<double>(stats.copy_plus_wait()));
    }
  }

  reg.set(reg.gauge(kMetricOverlayNodes),
          static_cast<double>(overlay.size()));
  reg.set(reg.gauge(kMetricOverlayInSystem), static_cast<double>(in_system));
  reg.set(reg.gauge(kMetricOverlayDeparted), static_cast<double>(departed));
  reg.set(reg.gauge(kMetricOverlayCrashed), static_cast<double>(crashed));
}

}  // namespace hcube::obs
