// hchaos — command-line driver for the deterministic chaos engine.
//
// Modes:
//   hchaos --seed S --profile P --steps N      sample a churn script from
//                                              (seed, profile) and run it
//   ... --adversary-frac F                     prepend ceil(F * n_seed)
//                                              misbehave markings to the
//                                              sampled script (0 <= F <= 0.5)
//   ... --adversary-mode M                     their profile: stale |
//                                              dropper | mixed (2:1 default)
//   ... --rate-join R --rate-leave L           open-loop equilibrium run:
//                                              sample rate windows (Poisson
//                                              R joins + L leaves per
//                                              second) instead of point
//                                              churn; --steps is the number
//                                              of steady windows
//   ... --window-ms W                          rate-window length (1000)
//   ... --spike M                              add one spike window at M x
//                                              the steady rates (M > 1),
//                                              plus recovery windows after
//                                              it
//   ... --shards K                             execute on K simulator lanes
//                                              (default 1; every run uses
//                                              the epoch-barrier driver,
//                                              sim/shard_driver.h). The
//                                              flag clears drop/dup/degrade
//                                              (at K = 1 too), which more
//                                              than one lane cannot run, so
//                                              compare digests against a
//                                              --shards 1 run of the same
//                                              invocation, not the bare
//                                              profile
//   hchaos --replay FILE                       re-execute a serialized
//                                              schedule (e.g. a CI artifact)
//   ... --shrink                               on failure, ddmin-minimize
//                                              the schedule first
//   ... --out FILE                             where to write the failing
//                                              (minimized, with --shrink)
//                                              schedule artifact
//
// Every flag but --shrink and --out only shapes sampling — a replayed
// artifact already carries its seed, steps, misbehave steps, rate windows
// and shard count — so combining one with --replay is a usage error rather
// than a silent no-op. Flags are strict (bench/flags.h): an unknown flag, a
// malformed value or an unknown profile or mode prints usage and exits 2.
//
// Identical invocations produce identical output, including the run digest
// printed in the summary — the engine is a pure function of the schedule.
// Exit status: 0 every oracle passed, 1 an oracle failed, 2 usage or
// parse error.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "chaos/adversary.h"
#include "chaos/engine.h"
#include "chaos/schedule.h"
#include "chaos/shrink.h"
#include "flags.h"

namespace {

using namespace hcube;
using namespace hcube::chaos;

// --adversary-frac F: prepend ceil(F * n_seed) kMisbehave steps to a
// sampled script, before any churn, so the fraction is in place when the
// wave hits. pick = i strides the markings across the live set, and the
// profile mask follows --adversary-mode (mixed = the 2:1 stale:dropper
// blend bench_adversary uses).
void inject_adversaries(ChurnScript& script, double frac,
                        const std::string& mode) {
  const auto k = static_cast<std::size_t>(
      std::ceil(frac * static_cast<double>(script.config.n_seed)));
  std::vector<ChurnStep> marked;
  marked.reserve(k + script.steps.size());
  for (std::size_t i = 0; i < k; ++i) {
    std::uint32_t mask = AdversaryEngine::kStaleTable;
    if (mode == "dropper")
      mask = AdversaryEngine::kReplyDropper;
    else if (mode == "mixed")
      mask = (i % 3) < 2 ? AdversaryEngine::kStaleTable
                         : AdversaryEngine::kReplyDropper;
    marked.push_back({.kind = StepKind::kMisbehave,
                      .gap_ms = 1.0,
                      .id_index = mask,
                      .pick = i,
                      .duration_ms = 0.0});
  }
  marked.insert(marked.end(), script.steps.begin(), script.steps.end());
  script.steps = std::move(marked);
}

}  // namespace

int main(int argc, char** argv) {
  using bench::Flags;
  std::string profile_names;
  for (const ChurnProfile& p : profiles())
    profile_names += std::string(profile_names.empty() ? "" : "|") + p.name;
  const Flags flags(argc, argv,
                    {{"--seed", "S"},
                     {"--profile", profile_names.c_str(), Flags::kChoice},
                     {"--steps", "N"},
                     {"--adversary-frac", "F", Flags::kDecimal},
                     {"--adversary-mode", "stale|dropper|mixed",
                      Flags::kChoice},
                     {"--rate-join", "R", Flags::kDecimal},
                     {"--rate-leave", "L", Flags::kDecimal},
                     {"--window-ms", "W", Flags::kDecimal},
                     {"--spike", "M", Flags::kDecimal},
                     {"--shards", "K"},
                     {"--replay", "FILE", Flags::kText},
                     {"--shrink"},
                     {"--out", "FILE", Flags::kText}});
  const bool replay = flags.present("--replay");
  for (const char* name :
       {"--seed", "--profile", "--steps", "--adversary-frac",
        "--adversary-mode", "--rate-join", "--rate-leave", "--window-ms",
        "--spike", "--shards"}) {
    if (replay && flags.present(name))
      flags.fail(std::string(name) +
                 " shapes sampling only; a replayed artifact already "
                 "carries it");
  }
  if (flags.present("--adversary-mode") && !flags.present("--adversary-frac"))
    flags.fail("--adversary-mode requires --adversary-frac");
  const std::string adversary_mode = flags.text("--adversary-mode", "mixed");
  const double adversary_frac = flags.decimal("--adversary-frac", 0.0);
  if (adversary_frac < 0.0 || adversary_frac > 0.5)
    flags.fail("--adversary-frac must be in [0, 0.5] — a misbehaving "
               "majority has no honest remainder to converge");
  const std::uint64_t shards = flags.u64("--shards", 1);
  if (shards < 1 || shards > kMaxShardLanes)
    flags.fail("--shards must be in [1, " + std::to_string(kMaxShardLanes) +
               "]");
  const std::uint64_t steps = flags.u64("--steps", 40);
  if (steps < 1 || steps > std::numeric_limits<std::uint32_t>::max())
    flags.fail("--steps must be in [1, 2^32)");

  ChurnScript script;
  if (replay) {
    const std::string path = flags.text("--replay", "");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "hchaos: cannot open %s\n", path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    auto parsed = ChurnScript::parse(text.str(), &error);
    if (!parsed) {
      std::fprintf(stderr, "hchaos: %s: %s\n", path.c_str(), error.c_str());
      return 2;
    }
    script = std::move(*parsed);
    std::printf("replaying %s (%zu steps)\n", path.c_str(),
                script.steps.size());
  } else {
    const std::uint64_t seed = flags.u64("--seed", 1);
    const bool rate_flags =
        flags.present("--rate-join") || flags.present("--rate-leave") ||
        flags.present("--window-ms") || flags.present("--spike");
    const ChurnProfile* profile = find_profile(
        flags.text("--profile", rate_flags ? "equilibrium" : "mixed"));
    const bool equilibrium =
        rate_flags || std::string(profile->name) == "equilibrium";
    if (equilibrium) {
      // Open-loop regime: --steps counts the steady windows, and the rate
      // flags override the spec defaults. The equilibrium profile carries
      // the world config (degrade on, probe/backlog defaults derived).
      EquilibriumSpec spec;
      spec.config = profile->config;
      spec.rate_join = flags.decimal("--rate-join", spec.rate_join);
      spec.rate_leave = flags.decimal("--rate-leave", spec.rate_leave);
      spec.window_ms = flags.decimal("--window-ms", spec.window_ms);
      spec.spike_mult = flags.decimal("--spike", spec.spike_mult);
      if (flags.present("--steps"))
        spec.steady_windows = static_cast<std::uint32_t>(steps);
      // The sampler adds a spike only above 1x the steady rates, so
      // --spike 1 would promise a spike and run none.
      if (spec.rate_join < 0.0 || spec.rate_leave < 0.0 ||
          spec.window_ms <= 0.0 ||
          (spec.spike_mult != 0.0 && spec.spike_mult <= 1.0))
        flags.fail("rates must be >= 0, --window-ms > 0, --spike > 1");
      script = sample_equilibrium_script(seed, spec);
      if (adversary_frac > 0.0)
        inject_adversaries(script, adversary_frac, adversary_mode);
      std::printf(
          "seed %llu, equilibrium %.1f/%.1f per s, %zu steps "
          "(%u steady windows of %.0fms%s)\n",
          static_cast<unsigned long long>(seed), spec.rate_join,
          spec.rate_leave, script.steps.size(), spec.steady_windows,
          spec.window_ms, spec.spike_mult > 1.0 ? ", spike" : "");
    } else {
      script = sample_script(seed, *profile, static_cast<std::uint32_t>(steps));
      if (adversary_frac > 0.0)
        inject_adversaries(script, adversary_frac, adversary_mode);
      std::printf("seed %llu, profile %s, %zu steps (incl. barriers)\n",
                  static_cast<unsigned long long>(seed), profile->name,
                  script.steps.size());
    }
  }

  if (flags.present("--shards")) {
    // More than one lane rejects probabilistic fault streams and
    // mid-epoch backlog reads (shard_config_error). The knobs are cleared
    // whenever --shards is given — at K = 1 too — so CI's determinism
    // cross-check compares a `--shards K` digest against the SAME
    // invocation at `--shards 1`, identical in everything but the lane
    // count.
    script.config.shards = static_cast<std::uint32_t>(shards);
    script.config.drop = 0.0;
    script.config.duplicate = 0.0;
    script.config.degrade = 0;
    std::printf("shards %u (drop/dup/degrade cleared for sharded mode)\n",
                script.config.shards);
  }

  ChaosResult result = run_script(script);
  std::fputs(result.summary().c_str(), stdout);
  if (result.ok) return 0;

  ChurnScript artifact = script;
  if (flags.present("--shrink")) {
    ShrinkResult shrunk = shrink_script(script);
    std::printf("shrink: %zu -> %zu steps in %u runs\n", script.steps.size(),
                shrunk.minimal.steps.size(), shrunk.runs);
    std::fputs(shrunk.minimal_result.summary().c_str(), stdout);
    artifact = std::move(shrunk.minimal);
  }
  const std::string out_path = flags.text("--out", "hchaos-schedule.txt");
  std::ofstream out(out_path);
  out << artifact.serialize();
  std::printf("failing schedule written to %s (replay with --replay)\n",
              out_path.c_str());
  return 1;
}
