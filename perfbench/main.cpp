// hcube benchmark driver: runs one named workload from a workload seed,
// checks its outputs, and prints every metric it measured as a
// "metric <name> <value>" line. run.py turns those lines into the result
// object, with the names and units BENCHMARK.json lists. See README.md.
//
// Usage: perfbench --workload <join-wave|join-wave-sharded|chaos-lossy>
//                  [--seed S] [--seconds T] [--trace 0|1]
//                  [--n N] [--m M] [--lanes K]
//                  [--mixed-scripts A] [--eq-scripts B] [--drop-join-message]
// Exit status: 0 all checks passed, 1 an output check failed, 2 usage.

#include <sched.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <sys/resource.h>

#include <string>

#include "chaos_lossy.h"
#include "report.h"
#include "wave.h"

namespace hcube::perfbench {

// --------------------------------------------------------------- report --

std::uint64_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::uint64_t>(mi.uordblks) +
         static_cast<std::uint64_t>(mi.hblkhd);
}

double peak_rss_mb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void Report::set(const std::string& name, double value) {
  for (auto& [n, v] : metrics_)
    if (n == name) {
      v = value;
      return;
    }
  metrics_.emplace_back(name, value);
}

void Report::check(bool ok, const std::string& what) {
  std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) failures_.push_back(what);
}

void Report::print() const {
  for (const auto& [name, value] : metrics_)
    std::printf("metric %s %.17g\n", name.c_str(), value);
  std::printf("ops %llu %llu\n", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
}

// ---------------------------------------------------------------- flags --

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload <join-wave|join-wave-sharded|chaos-lossy>\n"
    "                 [--seed S] [--seconds T] [--trace 0|1]\n"
    "                 [--n N] [--m M] [--lanes K]\n"
    "                 [--mixed-scripts A] [--eq-scripts B]"
    " [--drop-join-message]\n";

[[noreturn]] void usage_error(const char* why, const char* arg) {
  std::fprintf(stderr, "perfbench: %s%s%s\n%s", why, arg ? ": " : "",
               arg ? arg : "", kUsage);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  if (text == nullptr || *text == '\0' || *text == '-')
    usage_error("expected a whole number after", flag);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0')
    usage_error("malformed whole number", text);
  return v;
}

std::uint32_t parse_u32(const char* flag, const char* text) {
  const std::uint64_t v = parse_u64(flag, text);
  if (v > 0xffffffffULL) usage_error("value out of range", text);
  return static_cast<std::uint32_t>(v);
}

Options parse_flags(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--help") == 0 || std::strcmp(flag, "-h") == 0)
      usage_error("usage requested", nullptr);
    if (std::strcmp(flag, "--drop-join-message") == 0) {
      o.drop_join_message = true;
      continue;
    }
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) usage_error("missing value for", flag);
    ++i;
    if (std::strcmp(flag, "--workload") == 0) {
      o.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      o.seed = parse_u64(flag, value);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      o.seconds = static_cast<double>(parse_u32(flag, value));
    } else if (std::strcmp(flag, "--trace") == 0) {
      const std::uint64_t t = parse_u64(flag, value);
      if (t > 1) usage_error("--trace takes 0 or 1", value);
      o.trace = t == 1;
    } else if (std::strcmp(flag, "--n") == 0) {
      o.n = parse_u32(flag, value);
    } else if (std::strcmp(flag, "--m") == 0) {
      o.m = parse_u32(flag, value);
    } else if (std::strcmp(flag, "--lanes") == 0) {
      o.lanes = parse_u32(flag, value);
    } else if (std::strcmp(flag, "--mixed-scripts") == 0) {
      o.mixed_scripts = parse_u32(flag, value);
    } else if (std::strcmp(flag, "--eq-scripts") == 0) {
      o.eq_scripts = parse_u32(flag, value);
    } else {
      usage_error("unknown flag", flag);
    }
  }
  if (!have_workload) usage_error("--workload is required", nullptr);
  if (o.workload != "join-wave" && o.workload != "join-wave-sharded" &&
      o.workload != "chaos-lossy")
    usage_error("unknown workload", o.workload.c_str());
  if (o.n < 2 || o.m < 1 || o.lanes > 16 ||
      (o.mixed_scripts == 0 && o.eq_scripts == 0) ||
      o.mixed_scripts > kMixedPool || o.eq_scripts > kEquilibriumPool)
    usage_error("size flags out of range", nullptr);
  return o;
}

std::uint32_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::uint32_t>(CPU_COUNT(&set));
}

}  // namespace

int main_impl(int argc, char** argv) {
  const Options opts = parse_flags(argc, argv);
  const std::uint32_t nproc = online_cpus();
  std::printf("perfbench: workload=%s seed=%llu seconds=%.0f trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);

  Report report;
  std::uint32_t lanes = 1;
  if (opts.workload == "chaos-lossy") {
    run_chaos_lossy(opts, report);
  } else {
    const bool sharded = opts.workload == "join-wave-sharded";
    lanes = opts.lanes != 0 ? opts.lanes : sharded ? std::min(4u, nproc) : 1;
    run_join_wave(opts, lanes, /*closed_loop_lookups=*/!sharded, report);
  }
  report.set("sim.lanes", lanes);

  // The run environment, so numbers from different machines or builds are
  // never compared by accident (run.py stores it beside the result).
  std::printf(
      "env {\"nproc\": %u, \"lanes\": %u, \"seed\": %llu, \"workload\": "
      "\"%s\", \"trace\": %d, \"seconds\": %.0f, \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"compiler\": \"%s\"}\n",
      nproc, lanes, static_cast<unsigned long long>(opts.seed),
      opts.workload.c_str(), opts.trace ? 1 : 0, opts.seconds,
      PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, PERFBENCH_COMPILER);
  for (const std::string& f : report.failures())
    std::fprintf(stderr, "perfbench: output check failed: %s\n", f.c_str());
  report.print();
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace hcube::perfbench

int main(int argc, char** argv) {
  return hcube::perfbench::main_impl(argc, argv);
}
