#include "core/builder.h"

#include <utility>

#include "ids/suffix_trie.h"
#include "util/check.h"

namespace hcube {

void build_consistent_network(Overlay& overlay,
                              const std::vector<NodeId>& ids) {
  HCUBE_CHECK_MSG(overlay.size() == 0,
                  "direct construction requires an empty overlay");
  HCUBE_CHECK(!ids.empty());
  const IdParams& params = overlay.params();
  const std::uint32_t backups_per_entry = overlay.options().backups_per_entry;

  SuffixTrie trie(params);
  for (const NodeId& id : ids)
    HCUBE_CHECK_MSG(trie.insert(id), "duplicate node ID");

  // Pass 1: register every node in input order, so ids[h] is host h and
  // the trie's insertion indices are host indices.
  for (const NodeId& id : ids) overlay.add_node(id);
  const auto& nodes = overlay.nodes();

  // Pass 2: install the tables in suffix order. Consecutive IDs share
  // their trie path and candidates, so those stay in cache; a table's
  // contents do not depend on when it is filled. Each owner's storers are
  // counted on the way for pass 4.
  std::vector<std::uint32_t> storer_count(ids.size(), 0);
  for (const std::uint32_t h : trie.suffix_order()) {
    const NodeId& id = ids[h];
    Node& node = *nodes[h];
    trie.for_each_entry_candidate(
        id, [&](std::size_t level, Digit j, const NodeId& first) {
          if (j == id.digit(level)) return;  // own entry, set by finish
          node.install_entry(static_cast<std::uint32_t>(level), j, first);
          ++storer_count[overlay.host_of(first)];
          if (backups_per_entry > 0) {
            Suffix want = id.suffix_of_len(level);
            want.push_back(j);
            for (const NodeId& extra :
                 trie.some_with_suffix(want, backups_per_entry + 1)) {
              if (extra == first) continue;
              node.install_backup(static_cast<std::uint32_t>(level), j, extra,
                                  backups_per_entry);
            }
          }
        });
    // Backup vectors grow by doubling; the table is complete, so drop the
    // slack.
    if (backups_per_entry > 0) node.compact_backups();
  }

  // Pass 3: in input order, so status-change observers see the nodes come
  // up in the order the caller listed them.
  for (const auto& node : nodes) node->finish_install();

  // Pass 4: every reverse set at once, so later joiners' InSysNotiMsg /
  // RvNghNotiMsg bookkeeping starts from the state a protocol-built
  // network would have. A storer holds a given owner in exactly one entry,
  // (k, owner[k]) with k = |csuf(storer, owner)|, so a counting sort of
  // storers by owner, walking storers in host order into buckets sized by
  // pass 2's counts, yields each set exactly as per-entry insertion in
  // host order would, already exact-fit.
  std::vector<std::vector<NodeId>> storers(ids.size());
  for (std::size_t h = 0; h < ids.size(); ++h)
    storers[h].reserve(storer_count[h]);
  for (const auto& node : nodes) {
    const NeighborTable& table = node->table();
    for (std::uint32_t i = 0; i < params.num_digits; ++i) {
      for (std::uint32_t j = 0; j < params.base; ++j) {
        const NodeId* owner = table.neighbor(i, j);
        if (owner != nullptr && *owner != node->id())
          storers[overlay.host_of(*owner)].push_back(node->id());
      }
    }
  }
  for (std::size_t h = 0; h < ids.size(); ++h)
    nodes[h]->install_reverse_set(std::move(storers[h]));
}

namespace {

const NodeId& random_member(const std::vector<NodeId>& members, Rng& rng) {
  HCUBE_CHECK(!members.empty());
  return members[rng.next_below(members.size())];
}

}  // namespace

void join_sequentially(World& world, const std::vector<NodeId>& new_ids,
                       std::vector<NodeId> members, Rng& rng) {
  for (const NodeId& id : new_ids) {
    const NodeId gateway = random_member(members, rng);
    world.schedule_join(id, gateway, world.now());
    world.drain();
    HCUBE_CHECK_MSG(world.overlay.at(id).is_s_node(),
                    "sequential join did not complete");
    members.push_back(id);
  }
}

void join_concurrently(World& world, const std::vector<NodeId>& new_ids,
                       const std::vector<NodeId>& members, Rng& rng,
                       SimTime window_ms) {
  HCUBE_CHECK(window_ms >= 0.0);
  for (const NodeId& id : new_ids) {
    const NodeId gateway = random_member(members, rng);
    const SimTime at = world.now() + window_ms * rng.next_double();
    world.schedule_join(id, gateway, at);
  }
  world.drain();
}

void initialize_network(World& world, const std::vector<NodeId>& ids,
                        Rng& rng, bool concurrent) {
  HCUBE_CHECK(!ids.empty());
  HCUBE_CHECK_MSG(world.overlay.size() == 0,
                  "initialization requires an empty overlay");
  Node& seed = world.overlay.add_node(ids[0]);
  world.on_lane_of(seed, [&] { seed.become_seed(); });
  const std::vector<NodeId> rest(ids.begin() + 1, ids.end());
  if (rest.empty()) return;
  if (concurrent) {
    join_concurrently(world, rest, {ids[0]}, rng);
  } else {
    join_sequentially(world, rest, {ids[0]}, rng);
  }
}

void leave_and_drain(World& world, const NodeId& id) {
  Node& node = world.overlay.at(id);
  world.on_lane_of(node, [&] { node.start_leave(); });
  world.drain();
}

}  // namespace hcube
