// hclint: repo-specific static analysis for the hcube source tree.
//
// A self-contained scanner (no libclang) that enforces the determinism,
// hygiene, layering and shared-state rules generic linters cannot express.
// Message-type and node-status coverage is not among them: the compiler
// checks it (hcube_proto builds with -Werror=switch, MessageBody visits
// use one Overloaded arm per alternative, proto/conformance.h pins the
// counts; DESIGN.md §10).
//
//   no-rand                  std::rand/srand/random_device (determinism:
//                            all randomness flows through util/rng.h)
//   no-wall-clock            time()/clock()/chrono clocks (simulated time
//                            only; wall-clock reads break replayability)
//   no-naked-new             naked new expression (pooling rules: the hot
//                            path is allocation-free; owned memory goes
//                            through containers or make_unique)
//   no-naked-delete          naked delete expression ("= delete" is fine)
//   dcheck-side-effect       HCUBE_DCHECK argument contains ++/--/assignment
//                            (the expression vanishes under NDEBUG)
//   dense-id-no-heap-map     std::unordered_map/set or std::map/set keyed by
//                            NodeId in src/core/ (allocator-order iteration
//                            leaks nondeterminism and wastes memory; use
//                            FlatNodeSet/FlatNodeMap from ids/node_set.h)
//   obs-metric-registered    an HCUBE_METRIC(...) declaration site whose
//                            name is not a string literal, or whose name
//                            collides with another declaration anywhere in
//                            the scanned set (registry names are canonical
//                            and globally unique; the macro's static_assert
//                            checks the ^[a-z0-9_.]+$ grammar)
//
// v2 adds multi-pass rules (a function-definition index and the cross-file
// include graph are built first, then rules consume them):
//
//   layering-acyclic-includes  an #include whose target module sits in a
//                            higher layer than the including module, or a
//                            same-layer include cycle. The layer DAG
//                            (DESIGN.md §15): util(0) → ids,topology(1) →
//                            proto(2) → sim,net(3) → core(4) →
//                            obs,analysis,chaos,dht,baseline(5). A file's
//                            module is the path segment after the last
//                            "src/"; files outside src/ are out of scope.
//   shared-state-annotated   a file-scope / static-storage mutable object
//                            in src/ with none of: a capability annotation
//                            (HCUBE_GUARDED_BY / HCUBE_PT_GUARDED_BY /
//                            HCUBE_INTERNALLY_SYNCHRONIZED), const /
//                            constexpr / constinit, thread_local, or a
//                            waiver. Keeps the sharding-readiness audit
//                            (util/thread_safety.h) exhaustive: no mutable
//                            static slips in unannotated.
//   digest-nondeterminism    iteration state from a pointer-keyed
//                            map/set/unordered_* used inside a function
//                            that feeds the FNV-1a run digest or the
//                            metrics export (name or body mentions
//                            digest / fnv / to_json): iteration order
//                            depends on addresses and silently breaks
//                            bit-reproducibility.
//   waiver-unused            an "hclint: allow(<rule>)" comment that did
//                            not suppress anything in this run — stale
//                            waivers rot into false documentation and must
//                            be deleted (this rule is not waivable).
//
// Comments and string/char literals are stripped before any rule runs, so
// prose never trips a rule (the include scan reads raw lines, since
// stripping blanks the include path itself). A violation can be suppressed
// by putting "hclint: allow(<rule>)" in a comment on the offending line;
// every waiver must suppress at least one finding or waiver-unused fires.
//
// The scanner keys on this repo's idioms (macro names, src/ module paths),
// and every rule works on whatever files it is given, so fixtures can be
// single files.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hclint {

struct SourceFile {
  std::string path;
  std::string raw;  // original text (line lookup, suppression comments)
};

struct Issue {
  std::string file;
  std::size_t line;  // 1-based
  std::string rule;
  std::string message;
};

// One "hclint: allow(<rule>)" comment found in the scanned set. `used`
// records whether it suppressed at least one finding in this run.
struct Waiver {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  bool used = false;
};

// Issues plus the full waiver inventory (for `hclint --report-waivers`).
// Unused waivers also appear in `issues` as waiver-unused.
struct LintResult {
  std::vector<Issue> issues;
  std::vector<Waiver> waivers;
};

// Replaces //, /* */ comments and string/char literal contents with spaces,
// preserving line structure. Exposed for tests.
std::string strip_comments_and_strings(const std::string& src);

// Runs every rule over the given files (cross-file rules see all of them).
std::vector<Issue> lint_files(const std::vector<SourceFile>& files);
LintResult lint_files_full(const std::vector<SourceFile>& files);

// Loads every .h/.cpp/.cc under the given paths (files or directories,
// recursively; deterministic path order) and lints them.
std::vector<Issue> lint_paths(const std::vector<std::string>& paths);
LintResult lint_paths_full(const std::vector<std::string>& paths);

// "path:line: [rule] message" per issue.
std::string format_issues(const std::vector<Issue>& issues);

// "path:line: allow(rule) -- used|UNUSED" per waiver.
std::string format_waivers(const std::vector<Waiver>& waivers);

}  // namespace hclint
