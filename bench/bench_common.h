// Shared workload runner for the benchmark/experiment binaries.
//
// Each bench regenerates one table or figure of the paper (see DESIGN.md's
// per-experiment index). The common piece is a "join wave": build a
// consistent network of n nodes, join m more concurrently, and collect
// per-joiner message statistics.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "core/builder.h"
#include "core/consistency.h"
#include "core/overlay.h"
#include "core/routing.h"
#include "obs/bench_report.h"
#include "obs/collect.h"
#include "topology/latency.h"
#include "util/stats.h"

namespace hcube::bench {

struct JoinWaveConfig {
  IdParams params{16, 8};
  std::size_t n = 3096;  // initial consistent network size
  std::size_t m = 1000;  // concurrent joiners
  std::uint64_t seed = 1;
  ProtocolOptions options;
  // true: transit-stub router topology (as in the paper's GT-ITM setup);
  // false: cheap synthetic pairwise latencies.
  bool topology_latency = true;
  std::uint32_t routers_scale = 1;  // multiplies the default 2080 routers
  // If set, the full overlay metric snapshot (obs::collect) is merged into
  // this registry before the wave's overlay is torn down.
  obs::MetricsRegistry* collect_into = nullptr;
};

struct JoinWaveResult {
  EmpiricalDistribution join_noti;  // #JoinNotiMsg sent, per joiner
  EmpiricalDistribution copy_wait;  // #CpRstMsg + #JoinWaitMsg, per joiner
  EmpiricalDistribution spe_noti;   // #SpeNotiMsg sent, per joiner
  StreamingStats join_duration_ms;  // t^e_x - t^b_x
  Overlay::Totals totals;
  std::uint64_t events = 0;
  double sim_ms = 0.0;
  bool all_in_system = false;
  bool consistent = false;
};

inline JoinWaveResult run_join_wave(const JoinWaveConfig& cfg) {
  EventQueue queue;
  Rng rng(cfg.seed);
  std::unique_ptr<LatencyModel> latency;
  if (cfg.topology_latency) {
    TransitStubParams ts;
    ts.transit_nodes_per_domain *= cfg.routers_scale;
    latency = make_transit_stub_latency(
        ts, static_cast<std::uint32_t>(cfg.n + cfg.m), rng);
  } else {
    latency = std::make_unique<SyntheticLatency>(
        static_cast<std::uint32_t>(cfg.n + cfg.m), 5.0, 120.0, cfg.seed);
  }
  Overlay overlay(cfg.params, cfg.options, queue, *latency);

  UniqueIdGenerator gen(cfg.params, cfg.seed ^ 0x5eed);
  std::vector<NodeId> v, w;
  v.reserve(cfg.n);
  w.reserve(cfg.m);
  for (std::size_t i = 0; i < cfg.n; ++i) v.push_back(gen.next());
  for (std::size_t i = 0; i < cfg.m; ++i) w.push_back(gen.next());

  build_consistent_network(overlay, v);
  // As in the paper's simulations, all joins start at the same time.
  join_concurrently(overlay, w, v, rng, /*window_ms=*/0.0);

  JoinWaveResult result;
  for (const NodeId& x : w) {
    const JoinStats& s = overlay.at(x).join_stats();
    result.join_noti.add(
        static_cast<std::int64_t>(s.sent_of(MessageType::kJoinNoti)));
    result.copy_wait.add(static_cast<std::int64_t>(s.copy_plus_wait()));
    result.spe_noti.add(
        static_cast<std::int64_t>(s.sent_of(MessageType::kSpeNoti)));
    result.join_duration_ms.add(s.t_end - s.t_begin);
  }
  result.totals = overlay.totals();
  result.events = queue.events_processed();
  result.sim_ms = queue.now();
  result.all_in_system = overlay.all_in_system();
  result.consistent = check_consistency(view_of(overlay)).consistent();
  if (cfg.collect_into) obs::collect(overlay, *cfg.collect_into);
  return result;
}

// Folds a per-joiner empirical distribution into a registry log-histogram,
// so bench JSON carries the distribution shape, not just its mean.
inline void observe_distribution(obs::MetricsRegistry& reg,
                                 std::string_view name,
                                 const EmpiricalDistribution& dist) {
  const auto id = reg.histogram(name);
  for (const auto& [value, count] : dist.buckets())
    for (std::uint64_t i = 0; i < count; ++i)
      reg.observe(id, static_cast<double>(value));
}

// Writes BENCH_<name>.json into the working directory and echoes the path
// (CI's bench-trend job uploads these as artifacts).
inline void write_report(obs::BenchReport& report) {
  const std::string path = report.write();
  if (path.empty())
    std::fprintf(stderr, "# WARNING: failed to write bench report\n");
  else
    std::printf("\n# metrics: %s\n", path.c_str());
}

// Strict command-line flags. Each bench declares the flags it reads, as
// `--name` switches or `--name N` unsigned integers. An unknown flag, a
// missing or malformed value ("12x", "-1"), or --help prints the usage line
// to stderr and exits 2 before any work starts: a mistyped flag must not
// silently run the default workload (bench_scale's builds 10^6 nodes).
class Flags {
 public:
  struct Spec {
    const char* name;             // "--n"
    const char* value = nullptr;  // value placeholder ("N"); null = switch
  };

  Flags(int argc, char** argv, std::initializer_list<Spec> specs)
      : program_(argv[0]), specs_(specs) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") usage_exit("");
      const Spec* spec = find(arg);
      if (spec == nullptr) usage_exit("unknown flag " + arg);
      std::uint64_t value = 0;
      if (spec->value != nullptr) {
        if (i + 1 >= argc) usage_exit("missing value for " + arg);
        const std::string text = argv[++i];
        const char* end = text.data() + text.size();
        const auto parsed = std::from_chars(text.data(), end, value);
        if (text.empty() || parsed.ec != std::errc{} || parsed.ptr != end)
          usage_exit(arg + " needs an unsigned integer, got \"" + text + "\"");
      }
      given_.push_back({spec->name, value});
    }
  }

  bool present(const char* name) const {
    const Spec* spec = find(name);
    HCUBE_CHECK_MSG(spec != nullptr && spec->value == nullptr,
                    "undeclared switch");
    return last(name) != nullptr;
  }

  // The flag's value (the last one given), or `fallback` when absent.
  std::uint64_t u64(const char* name, std::uint64_t fallback) const {
    const Spec* spec = find(name);
    HCUBE_CHECK_MSG(spec != nullptr && spec->value != nullptr,
                    "undeclared value flag");
    const Given* g = last(name);
    return g != nullptr ? g->value : fallback;
  }

 private:
  struct Given {
    std::string_view name;
    std::uint64_t value;
  };

  const Spec* find(std::string_view name) const {
    for (const Spec& s : specs_)
      if (name == s.name) return &s;
    return nullptr;
  }

  const Given* last(std::string_view name) const {
    for (auto it = given_.rbegin(); it != given_.rend(); ++it)
      if (it->name == name) return &*it;
    return nullptr;
  }

  [[noreturn]] void usage_exit(const std::string& error) const {
    if (!error.empty())
      std::fprintf(stderr, "%s: %s\n", program_, error.c_str());
    std::fprintf(stderr, "usage: %s", program_);
    for (const Spec& s : specs_) {
      if (s.value != nullptr)
        std::fprintf(stderr, " [%s %s]", s.name, s.value);
      else
        std::fprintf(stderr, " [%s]", s.name);
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  const char* program_;
  std::vector<Spec> specs_;
  std::vector<Given> given_;
};

}  // namespace hcube::bench
