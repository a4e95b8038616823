#include "chaos/oracles.h"

#include <string>

#include "core/consistency.h"
#include "core/view.h"

namespace hcube::chaos {

NetworkView view_of_settled(const Overlay& overlay,
                            const FlatNodeSet* quarantined) {
  NetworkView view(overlay.params());
  for (const auto& node : overlay.nodes()) {
    if (!node->is_s_node()) continue;
    if (quarantined != nullptr && quarantined->contains(node->id())) continue;
    view.add(&node->table());
  }
  return view;
}

namespace {

// Cap per-oracle detail lines so one systemic failure does not flood the
// report (the count always reflects the full damage).
constexpr std::size_t kMaxDetails = 3;

std::string name_of(const Node& n, const IdParams& params) {
  return n.id().to_string(params);
}

// True when the entry a violation names may be excused under quarantine:
// honest tables are allowed to point at a live settled adversary (it exists
// and routes; only its table lies). A dead or mid-transition adversary must
// still be purged by honest repair, so those stay violations.
bool excused_by_quarantine(const ConsistencyViolation& v,
                           const Overlay& overlay,
                           const FlatNodeSet& quarantined) {
  if (!v.present.is_valid() || !quarantined.contains(v.present)) return false;
  const Node* peer = overlay.find(v.present);
  return peer != nullptr && peer->is_s_node();
}

void check_consistency_oracle(const Overlay& overlay,
                              const FlatNodeSet& quarantined,
                              OracleReport& report) {
  if (quarantined.empty()) {
    const ConsistencyReport rep = check_consistency(view_of_settled(overlay));
    if (rep.consistent()) return;
    std::string line = "consistency: " + std::to_string(rep.total_violations) +
                       " violation(s) across " +
                       std::to_string(rep.entries_checked) + " entries";
    for (std::size_t i = 0; i < rep.violations.size() && i < kMaxDetails; ++i)
      line += "; " + rep.violations[i].describe(overlay.params());
    report.failures.push_back(std::move(line));
    return;
  }
  // Quarantine mode: audit the honest settled view, then drop violations
  // whose named entry is a live settled adversary (see header). Keep every
  // violation so the excusal filter sees the full set, not a capped sample.
  ConsistencyCheckOptions opts;
  opts.max_violations_kept = std::size_t{1} << 16;
  const ConsistencyReport rep =
      check_consistency(view_of_settled(overlay, &quarantined), opts);
  if (rep.consistent()) return;
  std::vector<const ConsistencyViolation*> kept;
  for (const ConsistencyViolation& v : rep.violations)
    if (!excused_by_quarantine(v, overlay, quarantined)) kept.push_back(&v);
  // The excusal filter only sees the retained sample; if the checker
  // overflowed its (raised) cap, surface that rather than under-count.
  const std::uint64_t overflow =
      rep.total_violations - static_cast<std::uint64_t>(rep.violations.size());
  if (kept.empty() && overflow == 0) return;
  std::string line =
      "consistency: " + std::to_string(kept.size() + overflow) +
      " honest violation(s) across " + std::to_string(rep.entries_checked) +
      " entries (quarantine of " + std::to_string(quarantined.size()) +
      " applied)";
  for (std::size_t i = 0; i < kept.size() && i < kMaxDetails; ++i)
    line += "; " + kept[i]->describe(overlay.params());
  report.failures.push_back(std::move(line));
}

void check_symmetry_oracle(const Overlay& overlay,
                           const FlatNodeSet& quarantined,
                           OracleReport& report) {
  std::uint64_t missing = 0;
  std::string first;
  for (const auto& node : overlay.nodes()) {
    if (!node->is_s_node()) continue;
    if (quarantined.contains(node->id())) continue;
    node->table().for_each_filled([&](std::uint32_t level, std::uint32_t digit,
                                      const NodeId& y, NeighborState) {
      if (y == node->id()) return;
      // A reply dropper whose advdropmask covers RvNghNotiMsg never
      // registers its reverse neighbors; edges touching the marked set are
      // exempt.
      if (quarantined.contains(y)) return;
      const Node* peer = overlay.find(y);
      // Entries naming non-settled nodes are the consistency oracle's
      // domain; symmetry audits only settled-to-settled edges.
      if (peer == nullptr || !peer->is_s_node()) return;
      if (peer->table().reverse_neighbors().contains(node->id())) return;
      ++missing;
      if (first.empty()) {
        first = name_of(*node, overlay.params()) + " stores " +
                name_of(*peer, overlay.params()) + " at (" +
                std::to_string(level) + "," + std::to_string(digit) +
                ") but is not in its reverse set";
      }
    });
  }
  if (missing > 0) {
    report.failures.push_back("reverse-symmetry: " + std::to_string(missing) +
                              " unregistered storer(s); first: " + first);
  }
}

void check_liveness_oracle(const Overlay& overlay, OracleReport& report) {
  const std::uint32_t restart_budget = overlay.options().join_max_restarts;
  for (const auto& node : overlay.nodes()) {
    const NodeStatus st = node->status();
    if (st == NodeStatus::kInSystem || st == NodeStatus::kDeparted ||
        st == NodeStatus::kCrashed) {
      continue;
    }
    if (node->join_stats().t_begin < 0.0) continue;  // never started
    if (st == NodeStatus::kLeaving) {
      report.failures.push_back("liveness: " +
                                name_of(*node, overlay.params()) +
                                " stuck in kLeaving at quiescence");
      continue;
    }
    // Joining (kCopying / kWaiting / kNotifying): acceptable only as a
    // clean abort — the watchdog spent its whole restart budget.
    if (node->join_stats().watchdog_restarts >= restart_budget) continue;
    report.failures.push_back(
        "liveness: " + name_of(*node, overlay.params()) + " stuck joining (" +
        std::to_string(node->join_stats().watchdog_restarts) + "/" +
        std::to_string(restart_budget) + " watchdog restarts used)");
  }
}

void check_leaked_state_oracle(const Overlay& overlay,
                               const FlatNodeSet& quarantined,
                               OracleReport& report) {
  std::uint64_t leaked = 0;
  std::string first;
  for (const auto& node : overlay.nodes()) {
    if (!node->is_s_node() || node->join_idle()) continue;
    if (quarantined.contains(node->id())) continue;
    ++leaked;
    if (first.empty()) first = name_of(*node, overlay.params());
  }
  if (leaked > 0) {
    report.failures.push_back(
        "leaked-join-state: " + std::to_string(leaked) +
        " settled node(s) with outstanding join conversations; first: " +
        first);
  }
}

void check_layering_oracle(const Overlay& overlay, OracleReport& report) {
  const std::uint64_t leaks =
      overlay.conformance().rejected_of(MessageType::kRelAck);
  if (leaks > 0) {
    report.failures.push_back(
        "layering: " + std::to_string(leaks) +
        " RelAck(s) reached protocol handlers (ARQ decorator bypassed)");
  }
}

}  // namespace

OracleReport run_oracles(const Overlay& overlay) {
  static const FlatNodeSet kNoQuarantine;
  return run_oracles(overlay, kNoQuarantine);
}

OracleReport run_oracles(const Overlay& overlay,
                         const FlatNodeSet& quarantined) {
  OracleReport report;
  check_consistency_oracle(overlay, quarantined, report);
  check_symmetry_oracle(overlay, quarantined, report);
  check_liveness_oracle(overlay, report);
  check_leaked_state_oracle(overlay, quarantined, report);
  check_layering_oracle(overlay, report);
  return report;
}

OracleReport run_probe_oracles(const Overlay& overlay,
                               const FlatNodeSet& quarantined) {
  OracleReport report;
  // Mid-churn, most Definition 3.8 violations are legal transients: a false
  // negative is a fill still in flight, and an entry naming a joiner,
  // leaver, or not-yet-repaired crashed node resolves at the final drain.
  // Two classes no amount of in-flight churn can produce (see header):
  //   * an entry naming an ID this overlay never registered, and
  //   * a false positive whose named node is itself a settled member — the
  //     member exists, so if it really had the entry's suffix the class
  //     could not be empty; the entry is corrupt.
  ConsistencyCheckOptions opts;
  opts.max_violations_kept = std::size_t{1} << 16;
  const ConsistencyReport rep = check_consistency(
      view_of_settled(overlay, quarantined.empty() ? nullptr : &quarantined),
      opts);
  if (rep.consistent()) return report;
  std::vector<const ConsistencyViolation*> hard;
  for (const ConsistencyViolation& v : rep.violations) {
    if (!v.present.is_valid()) continue;  // false negative: fill in flight
    if (quarantined.contains(v.present)) continue;  // adversary's entry
    const Node* peer = overlay.find(v.present);
    const bool never_registered = peer == nullptr;
    const bool corrupt_positive =
        v.kind == ConsistencyViolation::Kind::kFalsePositive &&
        peer != nullptr && peer->is_s_node() &&
        !quarantined.contains(peer->id());
    if (never_registered || corrupt_positive) hard.push_back(&v);
  }
  if (hard.empty()) return report;
  std::string line = "probe-consistency: " + std::to_string(hard.size()) +
                     " non-transient violation(s) across " +
                     std::to_string(rep.entries_checked) + " entries";
  for (std::size_t i = 0; i < hard.size() && i < 3; ++i)
    line += "; " + hard[i]->describe(overlay.params());
  report.failures.push_back(std::move(line));
  return report;
}

}  // namespace hcube::chaos
