#include "chaos/schedule.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "chaos/adversary.h"
#include "sim/shard_context.h"
#include "util/check.h"
#include "util/rng.h"

namespace hcube::chaos {

const char* to_string(StepKind k) {
  switch (k) {
    case StepKind::kJoin: return "join";
    case StepKind::kLeave: return "leave";
    case StepKind::kCrash: return "crash";
    case StepKind::kRestart: return "restart";
    case StepKind::kPartition: return "partition";
    case StepKind::kMisbehave: return "misbehave";
    case StepKind::kBarrier: return "barrier";
    case StepKind::kRateWindow: return "rate";
    case StepKind::kSpike: return "spike";
  }
  return "?";
}

std::optional<StepKind> step_kind_from(std::string_view token) {
  for (std::size_t i = 0; i < kNumStepKinds; ++i) {
    const auto k = static_cast<StepKind>(i);
    if (token == to_string(k)) return k;
  }
  return std::nullopt;
}

std::uint32_t ChurnScript::num_join_ids() const {
  std::uint32_t n = 0;
  for (const ChurnStep& s : steps) {
    if (s.kind == StepKind::kJoin && s.id_index + 1 > n) n = s.id_index + 1;
    if (is_rate_window(s.kind)) {
      const std::uint32_t joins = window_join_count(s);
      if (joins > 0 && s.id_index + joins > n) n = s.id_index + joins;
    }
  }
  return n;
}

bool ChurnScript::has_rate_steps() const {
  for (const ChurnStep& s : steps)
    if (is_rate_window(s.kind)) return true;
  return false;
}

std::vector<Arrival> window_arrivals(const ChurnStep& step) {
  std::vector<Arrival> out;
  if (!is_rate_window(step.kind)) return out;
  const double total = step.rate_join + step.rate_leave;
  if (total <= 0.0 || step.duration_ms <= 0.0) return out;
  // Window-local stream: the merged Poisson process (exponential gaps at
  // the combined rate, each arrival a join with probability
  // rate_join/total) depends on this step alone.
  std::uint64_t sm = step.pick ^ 0xeb41b71a5e11ULL;
  Rng rng(splitmix64_next(sm));
  const double mean_gap_ms = 1000.0 / total;
  std::uint32_t joins = 0;
  double t = rng.next_exponential(mean_gap_ms);
  while (t < step.duration_ms) {
    Arrival a;
    a.at_ms = t;
    a.is_join = rng.next_double() * total < step.rate_join;
    if (a.is_join) a.join_ordinal = joins++;
    a.pick = rng();
    out.push_back(a);
    t += rng.next_exponential(mean_gap_ms);
  }
  return out;
}

std::uint32_t window_join_count(const ChurnStep& step) {
  std::uint32_t joins = 0;
  for (const Arrival& a : window_arrivals(step))
    if (a.is_join) ++joins;
  return joins;
}

namespace {

// %.17g round-trips every finite double through the text form.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string ChurnScript::serialize() const {
  std::ostringstream out;
  out << "hchaos v1\n";
  out << "base " << config.params.base << "\n";
  out << "digits " << config.params.num_digits << "\n";
  out << "nseed " << config.n_seed << "\n";
  out << "idseed " << config.id_seed << "\n";
  out << "latencyseed " << config.latency_seed << "\n";
  out << "faultseed " << config.fault_seed << "\n";
  out << "drop " << fmt(config.drop) << "\n";
  out << "dup " << fmt(config.duplicate) << "\n";
  out << "rto " << fmt(config.rto_ms) << "\n";
  out << "backoff " << fmt(config.backoff) << "\n";
  out << "retries " << config.max_retries << "\n";
  out << "joinwatchdog " << fmt(config.join_watchdog_ms) << "\n";
  out << "joinrestarts " << config.join_max_restarts << "\n";
  out << "leavewatchdog " << fmt(config.leave_watchdog_ms) << "\n";
  out << "leaveretries " << config.leave_max_retries << "\n";
  out << "healrounds " << config.heal_rounds << "\n";
  out << "minlive " << config.min_live << "\n";
  // Misbehaving-node tier (parser-optional keys, appended after the
  // original set so pre-adversary tooling diffs stay aligned).
  out << "defend " << config.defend << "\n";
  out << "advdropmask " << config.adv_drop_mask << "\n";
  out << "latencymodel " << config.latency_model << "\n";
  // Equilibrium-churn tier (parser-optional keys, same contract).
  out << "degrade " << config.degrade << "\n";
  out << "maxbacklog " << config.max_backlog << "\n";
  out << "probeevery " << fmt(config.probe_every_ms) << "\n";
  // Sharded-execution tier (parser-optional key, same contract).
  out << "shards " << config.shards << "\n";
  for (const ChurnStep& s : steps) {
    out << "step " << to_string(s.kind) << " " << fmt(s.gap_ms) << " "
        << s.id_index << " " << s.pick << " " << fmt(s.duration_ms);
    // Rate-window lines carry their arrival rates as trailing fields; the
    // kind-token dispatch keeps pre-equilibrium parsers' line shape intact
    // for every other kind.
    if (is_rate_window(s.kind))
      out << " " << fmt(s.rate_join) << " " << fmt(s.rate_leave);
    out << "\n";
  }
  out << "end\n";
  return out.str();
}

std::optional<ChurnScript> ChurnScript::parse(const std::string& text,
                                              std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<ChurnScript> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "hchaos v1")
    return fail("missing 'hchaos v1' header");
  ChurnScript script;
  bool ended = false;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    const std::string where = "line " + std::to_string(line_no);
    const auto want = [&](auto& field) {
      ls >> field;
      return !ls.fail();
    };
    if (key == "end") {
      ended = true;
      break;
    } else if (key == "step") {
      std::string kind_token;
      ChurnStep s;
      if (!want(kind_token)) return fail(where + ": step kind missing");
      const auto kind = step_kind_from(kind_token);
      if (!kind) return fail(where + ": unknown step kind " + kind_token);
      s.kind = *kind;
      if (!want(s.gap_ms) || !want(s.id_index) || !want(s.pick) ||
          !want(s.duration_ms))
        return fail(where + ": malformed step fields");
      if (is_rate_window(s.kind) &&
          (!want(s.rate_join) || !want(s.rate_leave)))
        return fail(where + ": rate step missing rate fields");
      if (s.kind == StepKind::kMisbehave &&
          (s.id_index & ~AdversaryEngine::kAllProfiles) != 0)
        return fail(where + ": misbehave mask " + std::to_string(s.id_index) +
                    " has bits outside stale | dropper (" +
                    std::to_string(AdversaryEngine::kAllProfiles) + ")");
      script.steps.push_back(s);
    } else {
      ChaosConfig& c = script.config;
      bool ok = false;
      if (key == "base") ok = want(c.params.base);
      else if (key == "digits") ok = want(c.params.num_digits);
      else if (key == "nseed") ok = want(c.n_seed);
      else if (key == "idseed") ok = want(c.id_seed);
      else if (key == "latencyseed") ok = want(c.latency_seed);
      else if (key == "faultseed") ok = want(c.fault_seed);
      else if (key == "drop") ok = want(c.drop);
      else if (key == "dup") ok = want(c.duplicate);
      else if (key == "rto") ok = want(c.rto_ms);
      else if (key == "backoff") ok = want(c.backoff);
      else if (key == "retries") ok = want(c.max_retries);
      else if (key == "joinwatchdog") ok = want(c.join_watchdog_ms);
      else if (key == "joinrestarts") ok = want(c.join_max_restarts);
      else if (key == "leavewatchdog") ok = want(c.leave_watchdog_ms);
      else if (key == "leaveretries") ok = want(c.leave_max_retries);
      else if (key == "healrounds") ok = want(c.heal_rounds);
      else if (key == "minlive") ok = want(c.min_live);
      else if (key == "defend") ok = want(c.defend);
      else if (key == "advdropmask") ok = want(c.adv_drop_mask);
      // The removed slow-peer delay: older artifacts carry it; it is read
      // and dropped so they still replay.
      else if (double slow_ms; key == "advslow") ok = want(slow_ms);
      else if (key == "latencymodel") ok = want(c.latency_model);
      else if (key == "degrade") ok = want(c.degrade);
      else if (key == "maxbacklog") ok = want(c.max_backlog);
      else if (key == "probeevery") ok = want(c.probe_every_ms);
      else if (key == "shards") ok = want(c.shards);
      else return fail(where + ": unknown key " + key);
      if (!ok) return fail(where + ": bad value for " + key);
    }
  }
  if (!ended) return fail("missing 'end' terminator");
  if (script.config.n_seed == 0) return fail("nseed must be positive");
  if (std::string why = shard_config_error(script.config); !why.empty())
    return fail(why);
  return script;
}

std::string shard_config_error(const ChaosConfig& config) {
  if (config.shards > kMaxShardLanes)
    return "shards " + std::to_string(config.shards) + " exceeds the " +
           std::to_string(kMaxShardLanes) + "-lane maximum";
  if (config.shards > 1 &&
      (config.drop != 0.0 || config.duplicate != 0.0 || config.degrade != 0))
    return "shards " + std::to_string(config.shards) +
           " requires drop = dup = 0 and degrade = 0 (probabilistic fault "
           "streams and mid-epoch backlog reads need one lane)";
  return "";
}

const std::vector<ChurnProfile>& profiles() {
  static const std::vector<ChurnProfile> kProfiles = [] {
    std::vector<ChurnProfile> v;
    {
      ChurnProfile p;
      p.name = "mixed";
      p.w_join = 5;
      p.w_leave = 2;
      p.w_crash = 2;
      p.w_restart = 2;
      p.w_partition = 1;
      p.mean_gap_ms = 30.0;
      p.partition_ms = 1200.0;
      p.barrier_every = 12;
      v.push_back(p);
    }
    {
      ChurnProfile p;
      p.name = "partition";
      p.w_join = 3;
      p.w_leave = 1;
      p.w_crash = 1;
      p.w_restart = 1;
      p.w_partition = 4;
      p.mean_gap_ms = 25.0;
      p.partition_ms = 1500.0;
      p.barrier_every = 10;
      p.config.n_seed = 28;
      p.config.drop = 0.01;
      p.config.duplicate = 0.005;
      v.push_back(p);
    }
    {
      // Mixed churn with a misbehaving-node tier: settled S-nodes are
      // progressively marked stale-responder/reply-dropper while joins,
      // leaves and crashes continue around them. Defensive hardening is on
      // (the quarantine oracles require the honest remainder to converge),
      // partitions are off (a partitioned dropper is indistinguishable
      // from a partition), latency is the planet map.
      ChurnProfile p;
      p.name = "adversary";
      p.w_join = 5;
      p.w_leave = 2;
      p.w_crash = 2;
      p.w_restart = 1;
      p.w_partition = 0;
      p.w_misbehave = 2;
      p.mean_gap_ms = 30.0;
      p.barrier_every = 12;
      p.config.n_seed = 30;
      p.config.drop = 0.01;
      p.config.duplicate = 0.005;
      p.config.defend = 1;
      p.config.latency_model = 1;
      v.push_back(p);
    }
    {
      // Flash crowd: a pure join flood onto a tiny seed overlay over
      // planet-scale latencies. --steps 4·n_seed gives the m ≫ n regime
      // (the CI quick mode runs --steps 32 against n_seed = 8).
      ChurnProfile p;
      p.name = "flashcrowd";
      p.w_join = 1;
      p.mean_gap_ms = 8.0;
      p.barrier_every = 16;
      p.config.n_seed = 8;
      p.config.drop = 0.01;
      p.config.duplicate = 0.005;
      p.config.latency_model = 1;
      v.push_back(p);
    }
    {
      // Equilibrium: the open-loop sustained-turnover regime. The step
      // weights are irrelevant (tools/hchaos feeds this config to
      // sample_equilibrium_script, not sample_script); what the profile
      // carries is the world: planet latency, light loss, the defensive
      // hardening AND the graceful-degradation knobs on, and a watchdog
      // short enough that restarts genuinely happen mid-window.
      ChurnProfile p;
      p.name = "equilibrium";
      p.w_join = 1;
      p.config.n_seed = 32;
      p.config.drop = 0.01;
      p.config.duplicate = 0.005;
      p.config.join_watchdog_ms = 2000.0;
      p.config.defend = 1;
      p.config.degrade = 1;
      p.config.latency_model = 1;
      v.push_back(p);
    }
    return v;
  }();
  return kProfiles;
}

const ChurnProfile* find_profile(std::string_view name) {
  for (const ChurnProfile& p : profiles())
    if (name == p.name) return &p;
  return nullptr;
}

ChurnScript sample_script(std::uint64_t seed, const ChurnProfile& profile,
                          std::uint32_t num_steps) {
  ChurnScript script;
  script.config = profile.config;
  // Derive every world seed from the run seed so distinct seeds vary the
  // latencies and fault draws along with the churn, while (seed, profile)
  // still pins the whole script.
  std::uint64_t sm = seed;
  script.config.id_seed = splitmix64_next(sm);
  script.config.latency_seed = splitmix64_next(sm);
  script.config.fault_seed = splitmix64_next(sm);
  Rng rng(splitmix64_next(sm));

  // Enum order (the drawn index casts straight to StepKind). Profiles with
  // w_misbehave = 0 draw exactly as they did before the misbehave kind
  // existed — the total is unchanged and the new weight is never reached.
  const std::uint64_t weights[] = {profile.w_join,      profile.w_leave,
                                   profile.w_crash,     profile.w_restart,
                                   profile.w_partition, profile.w_misbehave};
  std::uint64_t total = 0;
  for (std::uint64_t w : weights) total += w;
  HCUBE_CHECK_MSG(total > 0, "churn profile has no step weights");

  std::uint32_t next_join_id = 0;
  std::uint32_t since_barrier = 0;
  script.steps.reserve(num_steps + num_steps / std::max(1u, profile.barrier_every) + 1);
  for (std::uint32_t i = 0; i < num_steps; ++i) {
    std::uint64_t draw = rng.next_below(total);
    std::size_t kind_index = 0;
    while (draw >= weights[kind_index]) {
      draw -= weights[kind_index];
      ++kind_index;
    }
    ChurnStep s;
    s.kind = static_cast<StepKind>(kind_index);
    s.gap_ms = rng.next_exponential(profile.mean_gap_ms);
    s.pick = rng();
    if (s.kind == StepKind::kJoin) s.id_index = next_join_id++;
    if (s.kind == StepKind::kPartition) s.duration_ms = profile.partition_ms;
    if (s.kind == StepKind::kMisbehave) {
      // Profile mask draw, 2:1 stale-responder (mask 1) to reply-dropper
      // (mask 2) — matching AdversaryEngine::kStaleTable/kReplyDropper.
      s.id_index = rng.next_below(3) < 2 ? 1u : 2u;
    }
    script.steps.push_back(s);
    if (profile.barrier_every > 0 && ++since_barrier >= profile.barrier_every) {
      since_barrier = 0;
      script.steps.push_back(
          ChurnStep{StepKind::kBarrier, profile.mean_gap_ms, 0, 0, 0.0});
    }
  }
  if (script.steps.empty() || script.steps.back().kind != StepKind::kBarrier)
    script.steps.push_back(
        ChurnStep{StepKind::kBarrier, profile.mean_gap_ms, 0, 0, 0.0});
  return script;
}

ChurnScript sample_equilibrium_script(std::uint64_t seed,
                                      const EquilibriumSpec& spec) {
  ChurnScript script;
  script.config = spec.config;
  std::uint64_t sm = seed;
  script.config.id_seed = splitmix64_next(sm);
  script.config.latency_seed = splitmix64_next(sm);
  script.config.fault_seed = splitmix64_next(sm);
  Rng rng(splitmix64_next(sm));

  if (script.config.probe_every_ms <= 0.0)
    script.config.probe_every_ms = spec.window_ms / 4.0;
  if (script.config.max_backlog == 0) {
    // Runaway bound, not a tail bound: 8x the expected arrivals per steady
    // window. At equilibrium the in-flight backlog hovers around
    // rate x latency — far below a whole window's worth of arrivals — so
    // only a genuinely stuck regime (joins arriving faster than they ever
    // complete) trips this.
    const double per_window =
        (spec.rate_join + spec.rate_leave) * spec.window_ms / 1000.0;
    script.config.max_backlog = static_cast<std::uint32_t>(
        8.0 * std::max(1.0, per_window) * std::max(1.0, spec.spike_mult)) + 16;
  }

  std::uint32_t next_join_id = 0;
  const auto push_window = [&](StepKind kind, double rj, double rl) {
    ChurnStep s;
    s.kind = kind;
    s.gap_ms = 0.0;
    s.id_index = next_join_id;
    s.pick = rng();
    s.duration_ms = spec.window_ms;
    s.rate_join = rj;
    s.rate_leave = rl;
    next_join_id += window_join_count(s);
    script.steps.push_back(s);
  };
  // Linear ramp: window w of R runs at (w+1)/R of the steady rates, ending
  // exactly at them so the steady phase starts from a warmed-up backlog.
  for (std::uint32_t w = 0; w < spec.ramp_windows; ++w) {
    const double f = static_cast<double>(w + 1) /
                     static_cast<double>(spec.ramp_windows + 1);
    push_window(StepKind::kRateWindow, spec.rate_join * f,
                spec.rate_leave * f);
  }
  for (std::uint32_t w = 0; w < spec.steady_windows; ++w)
    push_window(StepKind::kRateWindow, spec.rate_join, spec.rate_leave);
  if (spec.spike_mult > 1.0) {
    push_window(StepKind::kSpike, spec.rate_join * spec.spike_mult,
                spec.rate_leave * spec.spike_mult);
    for (std::uint32_t w = 0; w < spec.recovery_windows; ++w)
      push_window(StepKind::kRateWindow, spec.rate_join, spec.rate_leave);
  }
  // The one barrier: final drain, strict oracles, leaked-state audit.
  script.steps.push_back(ChurnStep{StepKind::kBarrier, 0.0, 0, 0, 0.0});
  return script;
}

}  // namespace hcube::chaos
