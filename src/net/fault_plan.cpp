#include "net/fault_plan.h"

#include <utility>

#include "net/sim_transport.h"
#include "util/check.h"

namespace hcube {

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
  const SimTime t = clock_ ? clock_->now() : 0.0;
  for (const PartitionWindow& w : partitions_) {
    if (t < w.t0 || t >= w.t1) continue;  // half-open [t0, t1)
    const auto ga = w.group.find(a);
    if (ga == w.group.end()) continue;
    const auto gb = w.group.find(b);
    if (gb != w.group.end() && ga->second != gb->second) return true;
  }
  return false;
}

void FaultPlan::attach(SimTransport& transport) {
  clock_ = &transport.queue();
  transport.fault_injector = [this](HostId from, HostId to, const Message&) {
    return decide(from, to);
  };
}

FaultDecision FaultPlan::decide(HostId from, HostId to) {
  // Partitions first: a cut network loses the message no matter what the
  // seeded draws would have decided, and a cut message draws nothing.
  if (!partitions_.empty() && partitioned(from, to)) {
    ++partition_drops_;
    return {FaultAction::kDrop};
  }
  if (spec_.drop > 0.0 && rng_.next_bool(spec_.drop)) {
    ++drops_;
    return {FaultAction::kDrop};
  }
  if (spec_.duplicate > 0.0 && rng_.next_bool(spec_.duplicate)) {
    ++duplicates_;
    return {FaultAction::kDuplicate};
  }
  return {};
}

}  // namespace hcube
