// Invariant oracles the chaos engine runs at every barrier.
//
// An oracle inspects a quiesced (and healed) overlay and reports
// human-readable failures; an empty report is a pass. The oracles are
// deliberately independent of the protocol machinery they audit — the
// consistency oracle rebuilds ground truth from the membership (a suffix
// trie), the symmetry oracle cross-checks tables pairwise — so a protocol
// bug cannot hide by corrupting its own bookkeeping.
//
// What is checked, and why each check is sound at a healed barrier:
//   * Definition 3.8 consistency over the settled membership (every
//     kInSystem node). Nodes mid-join, mid-leave, crashed or departed are
//     not members; an S-node entry naming one of them surfaces as an
//     unknown-neighbor / false-positive violation.
//   * Reverse-neighbor completeness: x stores y (both settled) implies y
//     lists x as a reverse neighbor. Repair and leave both walk reverse
//     sets, so a missing registration is a future repair that cannot
//     happen. Announce-driven reconciliation restores this after crash-
//     restart and partition windows, which is why it can be an invariant
//     here rather than a best-effort property.
//   * Liveness: every node that started a join has terminated — settled,
//     departed, crashed — or was cleanly aborted (the join-stall watchdog
//     exhausted ProtocolOptions::join_max_restarts). Anything else is a
//     stuck join the watchdog failed to unstick.
//   * Zero leaked join state: a settled node holds no outstanding join
//     conversation (Figure 3 queues all empty).
//   * Transport layering: no RelAck ever reached a protocol handler
//     (ConformanceStats); the ARQ decorator must consume them all.
//
// Quarantine mode (misbehaving-node tier, DESIGN.md §14): when a run marks
// adversaries, run_oracles takes the marked set and asserts that the
// *honest remainder* converges around it. Membership ground truth becomes
// the honest settled nodes; honest tables are permitted to point at a live
// settled adversary (it is a real, routable node — its table is wrong, not
// its existence), so violations whose named entry is a live marked node are
// excused. Entries naming a *dead* adversary stay violations: honest repair
// must purge dead pointers whoever they name. Symmetry skips edges touching
// the marked set (a reply dropper whose advdropmask covers RvNghNotiMsg
// never registers its reverse neighbors), and the leaked-state audit skips
// marked nodes.
#pragma once

#include <string>
#include <vector>

#include "core/overlay.h"
#include "core/view.h"
#include "ids/node_set.h"

namespace hcube::chaos {

struct OracleReport {
  std::vector<std::string> failures;  // empty = every oracle passed
  bool ok() const { return failures.empty(); }
};

// View over the settled membership only (every kInSystem node): the ground
// truth Definition 3.8 is audited against at a chaos barrier. view_of
// (core/view.h) also includes nodes mid-join and mid-leave, whose tables
// are legitimately partial; under churn only the settled subnetwork is
// required to be consistent. A non-null `quarantined` set further excludes
// those nodes — the honest settled view of quarantine mode.
NetworkView view_of_settled(const Overlay& overlay,
                            const FlatNodeSet* quarantined = nullptr);

OracleReport run_oracles(const Overlay& overlay);
// Quarantine oracles: audits the honest remainder around the marked set
// (AdversaryEngine::marked()). An empty set is exactly run_oracles.
OracleReport run_oracles(const Overlay& overlay,
                         const FlatNodeSet& quarantined);

// Steady-state probe oracle (equilibrium-churn tier): a *relaxed*
// Definition 3.8 audit over the settled snapshot, sound in the middle of
// open-loop turnover where the barrier oracles are not. At a probe instant
// nothing has quiesced, so transient states are legal and excused:
//   * false negatives (an empty entry whose suffix class is non-empty) —
//     the repair/notification traffic that fills it is still in flight;
//   * entries naming a node that exists in any non-settled state — it is
//     mid-join, mid-leave, or awaiting repair, all transients the final
//     drain resolves.
// What can NEVER be right, even mid-churn, is a settled table naming a node
// the overlay has no record of: that pointer can only be protocol damage,
// and it is the one violation class this audit fails on. Quarantine excusal
// applies as at barriers.
OracleReport run_probe_oracles(const Overlay& overlay,
                               const FlatNodeSet& quarantined);

}  // namespace hcube::chaos
