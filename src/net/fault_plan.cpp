#include "net/fault_plan.h"

#include <algorithm>

#include "net/sim_transport.h"
#include "util/check.h"

namespace hcube {

void FaultPlan::set_for_type(MessageType t, const Spec& spec) {
  for (auto& [type, existing] : by_type_) {
    if (type == t) {
      existing = spec;
      return;
    }
  }
  by_type_.emplace_back(t, spec);
}

void FaultPlan::set_for_pair(HostId from, HostId to, const Spec& spec) {
  by_pair_[HostPair{from, to}] = spec;
}

void FaultPlan::partition(const std::vector<std::vector<HostId>>& groups,
                          SimTime t0, SimTime t1) {
  HCUBE_CHECK_MSG(t0 < t1, "partition window must be non-empty");
  PartitionWindow w;
  w.t0 = t0;
  w.t1 = t1;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const HostId h : groups[g]) {
      const auto [it, inserted] =
          w.group.emplace(h, static_cast<std::uint32_t>(g));
      HCUBE_CHECK_MSG(inserted || it->second == g,
                      "host listed in two partition groups");
    }
  }
  partitions_.push_back(std::move(w));
}

bool FaultPlan::partitioned(HostId a, HostId b) const {
  const SimTime t = now();
  for (const PartitionWindow& w : partitions_) {
    if (!window_contains(t, w.t0, w.t1)) continue;
    const auto ga = w.group.find(a);
    if (ga == w.group.end()) continue;
    const auto gb = w.group.find(b);
    if (gb != w.group.end() && ga->second != gb->second) return true;
  }
  return false;
}

void FaultPlan::attach(SimTransport& transport) {
  clock_ = &transport.queue();
  transport.fault_injector = [this](HostId from, HostId to,
                                    const Message& msg) {
    return decide(from, to, msg);
  };
}

SimTime FaultPlan::now() const { return clock_ ? clock_->now() : 0.0; }

FaultDecision FaultPlan::decide(HostId from, HostId to, const Message& msg) {
  const SimTime t = now();
  // Partitions first: a cut network loses the message no matter what the
  // per-message rules would have decided.
  if (!partitions_.empty() && partitioned(from, to)) {
    ++partition_drops_;
    return {FaultAction::kDrop, 0.0};
  }
  if (!by_pair_.empty()) {
    auto it = by_pair_.find(HostPair{from, to});
    if (it != by_pair_.end() && active(it->second, t))
      return apply(it->second);
  }
  const MessageType mt = type_of(msg.body);
  for (auto& [type, spec] : by_type_) {
    if (type == mt && active(spec, t)) return apply(spec);
  }
  if (active(default_, t)) return apply(default_);
  return {};
}

FaultDecision FaultPlan::apply(Spec& spec) {
  FaultDecision d;
  if (spec.drop > 0.0 && spec.drops_charged < spec.max_drops &&
      rng_.next_bool(spec.drop)) {
    ++spec.drops_charged;
    ++drops_;
    d.action = FaultAction::kDrop;
    return d;
  }
  if (spec.duplicate > 0.0 && spec.duplicates_charged < spec.max_duplicates &&
      rng_.next_bool(spec.duplicate)) {
    ++spec.duplicates_charged;
    ++duplicates_;
    d.action = FaultAction::kDuplicate;
  }
  if (spec.delay > 0.0 && spec.delays_charged < spec.max_delays &&
      rng_.next_bool(spec.delay)) {
    ++spec.delays_charged;
    ++delays_;
    d.extra_delay_ms = spec.extra_delay_ms;
  }
  return d;
}

FaultPlan::Stats FaultPlan::stats() const {
  Stats s;
  s.drops = drops_;
  s.duplicates = duplicates_;
  s.delays = delays_;
  s.partition_drops = partition_drops_;
  auto charges_of = [](const char* scope, const Spec& spec) {
    RuleStats r;
    r.scope = scope;
    r.drops_charged = spec.drops_charged;
    r.duplicates_charged = spec.duplicates_charged;
    r.delays_charged = spec.delays_charged;
    return r;
  };
  s.rules.push_back(charges_of("default", default_));
  for (const auto& [type, spec] : by_type_) {
    RuleStats r = charges_of("type ", spec);
    r.scope += type_name(type);
    s.rules.push_back(std::move(r));
  }
  std::vector<const std::pair<const HostPair, Spec>*> pairs;
  pairs.reserve(by_pair_.size());
  for (const auto& entry : by_pair_) pairs.push_back(&entry);
  std::sort(pairs.begin(), pairs.end(), [](const auto* a, const auto* b) {
    if (a->first.from != b->first.from) return a->first.from < b->first.from;
    return a->first.to < b->first.to;
  });
  for (const auto* entry : pairs) {
    RuleStats r = charges_of("pair ", entry->second);
    r.scope += std::to_string(entry->first.from) + "->" +
               std::to_string(entry->first.to);
    s.rules.push_back(std::move(r));
  }
  return s;
}

}  // namespace hcube
