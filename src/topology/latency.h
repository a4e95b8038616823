// End-host latency models.
//
// The simulator asks one question of the underlay: "what is the one-way
// latency between end hosts a and b?" Three models are provided:
//   - ConstantLatency: unit tests and analytic sanity checks.
//   - SyntheticLatency: cheap deterministic per-pair latencies (hash-based),
//     for mid-size tests that want heterogeneity without a router graph.
//   - TopologyLatency: hosts attached to routers of a (transit-stub) graph;
//     latency = access(a) + shortest_path(router(a), router(b)) + access(b).
//     Per-source router distances are computed lazily and cached.
//   - PlanetLatency: measured-RTT-style heterogeneous map — hosts hash into
//     geographic regions with a fixed continental inter-region delay matrix
//     plus per-host access jitter. No storage per pair, no router graph;
//     the planet-scale scenario pack's default underlay.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "topology/graph.h"
#include "topology/transit_stub.h"
#include "util/host.h"
#include "util/rng.h"

namespace hcube {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  // One-way latency in milliseconds; must be symmetric and non-negative.
  virtual double latency_ms(HostId a, HostId b) = 0;
  virtual std::uint32_t num_hosts() const = 0;
  // Lower bound on latency_ms(a, b) over all pairs a != b. The sharded
  // simulator sizes its epoch to this bound (a cross-shard send inside an
  // epoch can then never be due before the next barrier); a model that
  // cannot bound itself returns 0.0 and runs on one lane only.
  virtual double min_latency_ms() const { return 0.0; }
};

class ConstantLatency final : public LatencyModel {
 public:
  ConstantLatency(std::uint32_t num_hosts, double ms)
      : num_hosts_(num_hosts), ms_(ms) {}
  double latency_ms(HostId a, HostId b) override { return a == b ? 0.0 : ms_; }
  std::uint32_t num_hosts() const override { return num_hosts_; }
  double min_latency_ms() const override { return ms_; }

 private:
  std::uint32_t num_hosts_;
  double ms_;
};

// Deterministic pseudo-random symmetric latencies in [lo, hi], derived by
// hashing the (unordered) host pair with a seed. No storage per pair.
class SyntheticLatency final : public LatencyModel {
 public:
  SyntheticLatency(std::uint32_t num_hosts, double lo_ms, double hi_ms,
                   std::uint64_t seed)
      : num_hosts_(num_hosts), lo_(lo_ms), hi_(hi_ms), seed_(seed) {}
  double latency_ms(HostId a, HostId b) override;
  std::uint32_t num_hosts() const override { return num_hosts_; }
  double min_latency_ms() const override { return lo_; }

 private:
  std::uint32_t num_hosts_;
  double lo_, hi_;
  std::uint64_t seed_;
};

// Measured-RTT-style planet map: every host hashes (seed-deterministically)
// into one of kNumRegions geographic regions; one-way latency is
//   access(a) + inter_region(region(a), region(b)) + access(b)
// with a symmetric per-pair jitter of up to ±10% on the region base. The
// region matrix is a fixed continental-scale table (intra-region ~4 ms,
// antipodal ~150 ms one-way), so the distribution is strongly bimodal —
// near peers are 10–30 ms, far peers 100–300 ms — unlike SyntheticLatency's
// uniform band. Deterministic, symmetric, no per-pair storage.
class PlanetLatency final : public LatencyModel {
 public:
  static constexpr std::uint32_t kNumRegions = 8;

  PlanetLatency(std::uint32_t num_hosts, std::uint64_t seed)
      : num_hosts_(num_hosts), seed_(seed) {}
  double latency_ms(HostId a, HostId b) override;
  std::uint32_t num_hosts() const override { return num_hosts_; }
  // access >= 1.0 per side, region base >= 4.0 with jitter >= 0.9.
  double min_latency_ms() const override { return 2.0 + 4.0 * 0.9; }

  std::uint32_t region_of(HostId h) const;

 private:
  double access_ms(HostId h) const;

  std::uint32_t num_hosts_;
  std::uint64_t seed_;
};

// Hosts attached to routers of an underlay graph.
class TopologyLatency final : public LatencyModel {
 public:
  // Attaches num_hosts hosts to routers drawn uniformly from attach_points
  // (normally the stub routers), with per-host access-link latencies drawn
  // from [access_lo, access_hi].
  TopologyLatency(Graph graph, const std::vector<std::uint32_t>& attach_points,
                  std::uint32_t num_hosts, double access_lo, double access_hi,
                  Rng& rng);

  double latency_ms(HostId a, HostId b) override;
  std::uint32_t num_hosts() const override {
    return static_cast<std::uint32_t>(host_router_.size());
  }
  // Two hosts on the same router see just their two access links.
  double min_latency_ms() const override { return min_latency_; }

  std::uint32_t host_router(HostId h) const { return host_router_[h]; }

 private:
  const std::vector<float>& distances_from(std::uint32_t router);

  Graph graph_;
  std::vector<std::uint32_t> host_router_;
  std::vector<float> host_access_ms_;
  double min_latency_ = 0.0;
  std::unordered_map<std::uint32_t, std::vector<float>> dist_cache_;
};

// Convenience: generate a transit-stub underlay and attach hosts to its stub
// routers.
std::unique_ptr<TopologyLatency> make_transit_stub_latency(
    const TransitStubParams& params, std::uint32_t num_hosts, Rng& rng);

}  // namespace hcube
