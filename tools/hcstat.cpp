// hcstat: validate and summarize BENCH_*.json reports (hcube.bench.v1).
//
// Usage: hcstat [--json|--summary] <BENCH_a.json> [<BENCH_b.json> ...]
//
// For each file: validates the document against the bench schema (including
// a full parse of the embedded hcube.metrics.v1 registry), then prints the
// bench name, its parameters, and every metric — counters and gauges as
// values, histograms as count/mean/p50/p99/max. With --json, re-emits each
// embedded registry in canonical form instead (schema round-trip mode,
// usable to diff two runs with plain `diff`). With --summary, prints one
// headline row per report (bench-specific key figures; generic reports show
// their metric count) — the at-a-glance trend line for CI logs.
//
// Exit code: 0 if every file validates, 1 otherwise — CI's bench-trend job
// leans on this to reject malformed reports before archiving them.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_report.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// Bench-specific required-metric checks, beyond the generic schema. The
// "adversary" report (bench_adversary) must carry, for every misbehaving
// fraction it swept, the full per-fraction row — completion rate, p99
// gauge, latency histogram, notification overhead — and must include the
// f = 0 guardrail row. CI's bench-trend job depends on these names.
std::string validate_adversary_metrics(const hcube::obs::MetricsRegistry& reg) {
  std::set<std::string> names;
  reg.for_each([&](const std::string& name, hcube::obs::MetricKind,
                   std::uint64_t, double, const hcube::obs::LogHistogram&) {
    names.insert(name);
  });
  if (!names.count("adv.f0.completion_rate"))
    return "missing adv.f0.completion_rate (the f=0 guardrail row)";
  for (const std::string& name : names) {
    const std::string prefix = "adv.f";
    const std::string suffix = ".completion_rate";
    if (name.rfind(prefix, 0) != 0 || name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    const std::string row = name.substr(0, name.size() - suffix.size());
    for (const char* member :
         {".join_latency_ms", ".p99_latency_ms", ".noti_per_join"}) {
      if (!names.count(row + member))
        return "fraction row " + row + " lacks " + member;
    }
  }
  return "";
}

// The "churn" report (bench_churn's open-loop equilibrium sweep) must carry
// the sweep verdicts CI's bench-trend row reads — the knee, the sustained
// rate and its degradation-on completion, the sustained backlog p99, the
// spike recovery — and at least one per-rate eq.r<rate>.* row, each with
// its full column set.
std::string validate_churn_metrics(const hcube::obs::MetricsRegistry& reg) {
  std::set<std::string> names;
  reg.for_each([&](const std::string& name, hcube::obs::MetricKind,
                   std::uint64_t, double, const hcube::obs::LogHistogram&) {
    names.insert(name);
  });
  for (const char* required :
       {"eq.knee_rate", "eq.sustained_rate", "eq.sustained_completion_rate",
        "eq.backlog_p99", "eq.recovery_ms"}) {
    if (!names.count(required))
      return std::string("missing sweep verdict ") + required;
  }
  bool any_rate_row = false;
  for (const std::string& name : names) {
    const std::string prefix = "eq.r";
    const std::string suffix = ".completion_rate";
    if (name.rfind(prefix, 0) != 0 || name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    any_rate_row = true;
    const std::string row = name.substr(0, name.size() - suffix.size());
    for (const char* member : {".backlog_p99", ".join_p99_ms", ".abandoned"}) {
      if (!names.count(row + member))
        return "rate row " + row + " lacks " + member;
    }
  }
  if (!any_rate_row) return "no eq.r<rate>.completion_rate rows (empty sweep)";
  return "";
}

// The "scale" report (bench_scale on the sharded simulator) must carry the
// sharded-execution fields CI's digest cross-check and trend row read: the
// shard count, the barrier epoch length, total wall time, and peak RSS.
// A scale report missing any of them predates the sharded engine and is
// rejected so stale binaries cannot feed the trend job.
std::string validate_scale_metrics(const hcube::obs::MetricsRegistry& reg) {
  std::set<std::string> names;
  reg.for_each([&](const std::string& name, hcube::obs::MetricKind,
                   std::uint64_t, double, const hcube::obs::LogHistogram&) {
    names.insert(name);
  });
  for (const char* required :
       {"scale.shards", "scale.epoch_ms", "scale.wall_ms", "scale.peak_rss"}) {
    if (!names.count(required))
      return std::string("missing sharded-execution field ") + required;
  }
  if (reg.gauge_value("scale.shards") < 1.0)
    return "scale.shards must be >= 1";
  return "";
}

// One headline line per report for --summary mode. Known benches get their
// key figures; anything else reports its metric count.
void print_summary(const std::string& path, const std::string& bench,
                   const hcube::obs::MetricsRegistry& reg) {
  using hcube::obs::MetricKind;
  if (bench == "churn") {
    const auto g = [&](const char* name) { return reg.gauge_value(name); };
    std::printf(
        "%s: churn knee=%g/s sustained=%g/s completion=%.4f "
        "backlog_p99=%g recovery_ms=%g\n",
        path.c_str(), g("eq.knee_rate"), g("eq.sustained_rate"),
        g("eq.sustained_completion_rate"), g("eq.backlog_p99"),
        g("eq.recovery_ms"));
    return;
  }
  if (bench == "scale") {
    const auto g = [&](const char* name) { return reg.gauge_value(name); };
    // bench_scale leaves the heap figures out where it cannot see the heap.
    char bytes_per_node[32] = "unmeasured";
    if (reg.contains("scale.bytes_per_node"))
      std::snprintf(bytes_per_node, sizeof bytes_per_node, "%.0f",
                    g("scale.bytes_per_node"));
    std::printf(
        "%s: scale shards=%g bytes/node=%s epoch_ms=%g wall_ms=%.0f "
        "peak_rss=%.0fMB\n",
        path.c_str(), g("scale.shards"), bytes_per_node, g("scale.epoch_ms"),
        g("scale.wall_ms"), g("scale.peak_rss") / (1024.0 * 1024.0));
    return;
  }
  std::size_t metric_count = 0;
  reg.for_each([&](const std::string&, MetricKind, std::uint64_t, double,
                   const hcube::obs::LogHistogram&) { ++metric_count; });
  std::printf("%s: %s, %zu metrics\n", path.c_str(), bench.c_str(),
              metric_count);
}

int process(const std::string& path, bool as_json, bool as_summary) {
  using namespace hcube::obs;
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "hcstat: cannot read %s\n", path.c_str());
    return 1;
  }
  std::string parse_error;
  const auto doc = json_parse(text, &parse_error);
  if (!doc.has_value()) {
    std::fprintf(stderr, "hcstat: %s: bad JSON: %s\n", path.c_str(),
                 parse_error.c_str());
    return 1;
  }
  const std::string schema_error = validate_bench_json(*doc);
  if (!schema_error.empty()) {
    std::fprintf(stderr, "hcstat: %s: schema violation: %s\n", path.c_str(),
                 schema_error.c_str());
    return 1;
  }

  const JsonValue* metrics = doc->get("metrics");
  const auto reg = MetricsRegistry::from_json(json_render(*metrics));
  if (!reg.has_value()) return 1;  // validate_bench_json already vouched

  const std::string bench = doc->get("bench")->text;
  if (bench == "adversary") {
    const std::string missing = validate_adversary_metrics(*reg);
    if (!missing.empty()) {
      std::fprintf(stderr, "hcstat: %s: adversary schema: %s\n", path.c_str(),
                   missing.c_str());
      return 1;
    }
  }
  if (bench == "churn") {
    const std::string missing = validate_churn_metrics(*reg);
    if (!missing.empty()) {
      std::fprintf(stderr, "hcstat: %s: churn schema: %s\n", path.c_str(),
                   missing.c_str());
      return 1;
    }
  }
  if (bench == "scale") {
    const std::string missing = validate_scale_metrics(*reg);
    if (!missing.empty()) {
      std::fprintf(stderr, "hcstat: %s: scale schema: %s\n", path.c_str(),
                   missing.c_str());
      return 1;
    }
  }

  if (as_json) {
    std::printf("%s\n", reg->to_json().c_str());
    return 0;
  }
  if (as_summary) {
    print_summary(path, bench, *reg);
    return 0;
  }

  std::printf("%s: bench %s\n", path.c_str(),
              doc->get("bench")->text.c_str());
  if (const JsonValue* params = doc->get("params")) {
    std::printf("  params:");
    for (const auto& [key, value] : params->members)
      std::printf(" %s=%s", key.c_str(), json_render(value).c_str());
    std::printf("\n");
  }
  reg->for_each([](const std::string& name, MetricKind kind,
                   std::uint64_t count, double gauge,
                   const LogHistogram& hist) {
    switch (kind) {
      case MetricKind::kCounter:
        std::printf("  %-40s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(count));
        break;
      case MetricKind::kGauge:
        std::printf("  %-40s %g\n", name.c_str(), gauge);
        break;
      case MetricKind::kHistogram:
        std::printf(
            "  %-40s n=%llu mean=%.3f p50<=%g p99<=%g max=%g\n",
            name.c_str(), static_cast<unsigned long long>(hist.count()),
            hist.mean(), hist.quantile(0.5), hist.quantile(0.99),
            hist.max());
        break;
    }
  });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool as_json = false;
  bool as_summary = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0)
      as_json = true;
    else if (std::strcmp(argv[i], "--summary") == 0)
      as_summary = true;
    else
      paths.emplace_back(argv[i]);
  }
  if (paths.empty() || (as_json && as_summary)) {
    std::fprintf(stderr,
                 "usage: hcstat [--json|--summary] <BENCH_*.json> ...\n");
    return 1;
  }
  int rc = 0;
  for (const std::string& path : paths)
    if (process(path, as_json, as_summary) != 0) rc = 1;
  return rc;
}
