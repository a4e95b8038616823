#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace hclint {
namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t line_of(const std::string& text, std::size_t pos) {
  return static_cast<std::size_t>(
             std::count(text.begin(), text.begin() + static_cast<long>(pos),
                        '\n')) +
         1;
}

// Whole-word occurrence of `word` in `code` at or after `from`.
std::size_t find_word(const std::string& code, const std::string& word,
                      std::size_t from = 0) {
  while (true) {
    const std::size_t pos = code.find(word, from);
    if (pos == std::string::npos) return std::string::npos;
    const bool left_ok = pos == 0 || !is_ident_char(code[pos - 1]);
    const std::size_t after = pos + word.size();
    const bool right_ok = after >= code.size() || !is_ident_char(code[after]);
    if (left_ok && right_ok) return pos;
    from = pos + 1;
  }
}

std::size_t skip_ws(const std::string& code, std::size_t pos) {
  while (pos < code.size() &&
         std::isspace(static_cast<unsigned char>(code[pos])) != 0)
    ++pos;
  return pos;
}

// Position just past the matching close for the opener at `open_pos`.
// Returns npos when unbalanced.
std::size_t match_balanced(const std::string& code, std::size_t open_pos,
                           char open, char close) {
  std::size_t depth = 0;
  for (std::size_t i = open_pos; i < code.size(); ++i) {
    if (code[i] == open) {
      ++depth;
    } else if (code[i] == close) {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

struct StrippedFile {
  const SourceFile* src = nullptr;
  std::string code;  // comments and literal contents blanked
};

// ---- v2 multi-pass infrastructure ----

// A brace-delimited function definition found textually: a ')' whose
// backward-matched '(' is preceded by an identifier (not a control
// keyword), followed — across qualifiers, trailing return types and
// attribute macros — by '{'. Constructor init-lists yield one extra FnDef
// per member initializer sharing the ctor's body; harmless for the
// consumer (digest-nondeterminism only asks "does this body mention X").
struct FnDef {
  std::string name;
  std::size_t name_pos = 0;  // index of the identifier
  std::size_t open = 0;      // index of '{'
  std::size_t close = 0;     // index just past '}'
};

bool is_control_keyword(const std::string& w) {
  static const char* const kWords[] = {"if",     "for",     "while",
                                       "switch", "catch",   "return",
                                       "sizeof", "alignof", "decltype",
                                       "new",    "noexcept"};
  for (const char* k : kWords)
    if (w == k) return true;
  return false;
}

std::vector<FnDef> collect_function_defs(const std::string& code) {
  std::vector<FnDef> defs;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] != ')') continue;
    // Backward-match to the opening '(' of this parameter list.
    std::size_t depth = 1;
    std::size_t j = i;
    while (j > 0 && depth > 0) {
      --j;
      if (code[j] == ')')
        ++depth;
      else if (code[j] == '(')
        --depth;
    }
    if (depth != 0) continue;
    // The identifier immediately before '('.
    std::size_t e = j;
    while (e > 0 && std::isspace(static_cast<unsigned char>(code[e - 1])) != 0)
      --e;
    std::size_t b = e;
    while (b > 0 && is_ident_char(code[b - 1])) --b;
    if (b == e) continue;  // lambda, operator symbol, cast, ...
    const std::string name = code.substr(b, e - b);
    if (is_control_keyword(name)) continue;
    // Forward across qualifiers (const noexcept override), ctor
    // init-lists, trailing return types and attribute macros
    // (parenthesized groups) to '{'. Any other punctuation (';', '=')
    // means declaration / initializer, not a definition.
    std::size_t k = i + 1;
    bool is_def = false;
    while (k < code.size()) {
      const char c = code[k];
      if (c == '{') {
        is_def = true;
        break;
      }
      if (c == '(') {
        const std::size_t m = match_balanced(code, k, '(', ')');
        if (m == std::string::npos) break;
        k = m;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c)) != 0 ||
          is_ident_char(c) || c == ':' || c == '&' || c == '*' || c == '<' ||
          c == '>' || c == ',' || c == '-' || c == '[' || c == ']') {
        ++k;
        continue;
      }
      break;
    }
    if (!is_def) continue;
    const std::size_t end = match_balanced(code, k, '{', '}');
    if (end == std::string::npos) continue;
    defs.push_back({name, b, k, end});
  }
  return defs;
}

// ---- the layer DAG (layering-acyclic-includes) ----

// Layer ranks (DESIGN.md §15). An include must never point from a lower
// rank to a strictly higher one, and same-rank includes must stay acyclic
// (today: net→sim and obs→analysis, both one-way).
int layer_rank(const std::string& mod) {
  struct Entry {
    const char* mod;
    int rank;
  };
  static constexpr Entry kRanks[] = {
      {"util", 0},     {"ids", 1},   {"topology", 1}, {"proto", 2},
      {"sim", 3},      {"net", 3},   {"core", 4},     {"obs", 5},
      {"analysis", 5}, {"chaos", 5}, {"dht", 5},      {"baseline", 5}};
  for (const Entry& e : kRanks)
    if (mod == e.mod) return e.rank;
  return -1;
}

// Is this path inside a src/ tree? (The last "src/" segment anchors it, so
// fixture trees under tests/fixtures/hclint/src/ are in scope on purpose.)
bool under_src(const std::string& path) {
  const std::size_t src = path.rfind("src/");
  return src != std::string::npos && (src == 0 || path[src - 1] == '/');
}

// The module owning a file: the path segment after the last "src/" (empty
// when the file is not under src/ or sits directly in src/).
std::string module_of_path(const std::string& path) {
  const std::size_t src = path.rfind("src/");
  if (src == std::string::npos) return "";
  if (src != 0 && path[src - 1] != '/') return "";
  const std::size_t begin = src + 4;
  const std::size_t slash = path.find('/', begin);
  if (slash == std::string::npos) return "";
  return path.substr(begin, slash - begin);
}

// Start of the statement around `pos`: just past the previous ';', '{'
// or '}'.
std::size_t stmt_begin(const std::string& code, std::size_t pos) {
  const std::size_t b = code.find_last_of(";{}", pos);
  return b == std::string::npos ? 0 : b + 1;
}

// The scanner's one lexer: copies src with every character outside the
// kept part blanked to a space (newlines survive, so offsets and line
// numbers match the raw text). `comments` false keeps the code, literal
// quotes included; true keeps only the text inside comments.
std::string blank_except(const std::string& src, bool comments) {
  std::string out;
  out.reserve(src.size());
  auto put = [&out](char c, bool keep) {
    out += (keep || c == '\n') ? c : ' ';
  };
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else {
          if (c == '"') state = State::kString;
          if (c == '\'') state = State::kChar;
          put(c, !comments);
        }
        break;
      case State::kLineComment:
        if (c == '\n') state = State::kCode;
        put(c, comments);
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          put(c, comments);
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out += "  ";
          ++i;
        } else if (c == (state == State::kString ? '"' : '\'')) {
          state = State::kCode;
          put(c, !comments);
        } else {
          put(c, false);
        }
        break;
    }
  }
  return out;
}

class Linter {
 public:
  explicit Linter(const std::vector<SourceFile>& files) {
    for (const SourceFile& f : files)
      stripped_.push_back({&f, strip_comments_and_strings(f.raw)});
    for (const StrippedFile& f : stripped_)
      fndefs_.push_back(collect_function_defs(f.code));
  }

  LintResult run() {
    collect_waivers();
    check_metric_registrations();
    check_layering();
    check_digest_nondeterminism();
    for (const StrippedFile& f : stripped_) {
      check_determinism_tokens(f);
      check_dense_id_containers(f);
      check_dcheck_side_effects(f);
      check_shared_state(f);
    }
    // Drop issues suppressed by an "hclint: allow(<rule>)" comment on the
    // offending line — marking the waiver used — then flag stale waivers
    // and order deterministically.
    std::vector<Issue> kept;
    for (Issue& issue : issues_) {
      bool suppressed = false;
      for (Waiver& w : waivers_) {
        if (w.file == issue.file && w.line == issue.line &&
            w.rule == issue.rule) {
          w.used = true;
          suppressed = true;
        }
      }
      if (!suppressed) kept.push_back(std::move(issue));
    }
    for (const Waiver& w : waivers_) {
      if (!w.used) {
        kept.push_back(
            {w.file, w.line, "waiver-unused",
             "waiver allow(" + w.rule +
                 ") suppresses nothing in this run; delete the stale "
                 "comment (waiver-unused is itself not waivable)"});
      }
    }
    std::sort(kept.begin(), kept.end(), [](const Issue& a, const Issue& b) {
      if (a.file != b.file) return a.file < b.file;
      if (a.line != b.line) return a.line < b.line;
      return a.rule < b.rule;
    });
    std::sort(waivers_.begin(), waivers_.end(),
              [](const Waiver& a, const Waiver& b) {
                if (a.file != b.file) return a.file < b.file;
                return a.line < b.line;
              });
    return {std::move(kept), std::move(waivers_)};
  }

 private:
  void report(const SourceFile* src, std::size_t line, std::string rule,
              std::string message) {
    issues_.push_back({src->path, line, std::move(rule), std::move(message)});
  }

  // Every HCUBE_METRIC(ident, "name") declaration site must carry a string
  // literal, unique across the whole scanned set — registry names are
  // canonical, and a duplicate means two stats fields silently merge into
  // one time series. (The name's grammar is the macro's own static_assert,
  // util/metric.h.) The literal is read out of the raw source at the
  // stripped offsets (stripping blanks literal contents but preserves the
  // quotes and every offset). The macro's own #define line is exempt.
  void check_metric_registrations() {
    std::map<std::string, std::pair<const SourceFile*, std::size_t>> seen;
    for (const StrippedFile& f : stripped_) {
      std::size_t from = 0;
      while (true) {
        const std::size_t pos = find_word(f.code, "HCUBE_METRIC", from);
        if (pos == std::string::npos) break;
        from = pos + 12;
        // Skip the macro definition itself (#define HCUBE_METRIC...).
        std::size_t line_start = f.code.rfind('\n', pos);
        line_start = line_start == std::string::npos ? 0 : line_start + 1;
        if (f.code.find("#define", line_start) < pos) continue;
        const std::size_t open = skip_ws(f.code, from);
        if (open >= f.code.size() || f.code[open] != '(') continue;
        const std::size_t end = match_balanced(f.code, open, '(', ')');
        if (end == std::string::npos) continue;
        const std::size_t line = line_of(f.code, pos);
        // The name is the first string literal between the parens; the
        // stripped text keeps the quote characters in place.
        const std::size_t q1 = f.code.find('"', open);
        const std::size_t q2 =
            q1 == std::string::npos ? std::string::npos
                                    : f.code.find('"', q1 + 1);
        if (q1 == std::string::npos || q2 == std::string::npos || q2 >= end) {
          report(f.src, line, "obs-metric-registered",
                 "HCUBE_METRIC name must be a string literal");
          continue;
        }
        const std::string name = f.src->raw.substr(q1 + 1, q2 - q1 - 1);
        const auto [it, inserted] = seen.emplace(
            name, std::make_pair(f.src, line));
        if (!inserted) {
          report(f.src, line, "obs-metric-registered",
                 "metric name \"" + name + "\" already declared at " +
                     it->second.first->path + ":" +
                     std::to_string(it->second.second));
        }
      }
    }
  }

  // ---- v2 multi-pass rules ----

  // Every "hclint: allow(<rule>)" marker inside a comment in the scanned
  // set, read from the comment text alone: a marker in a string literal
  // or in code is no waiver. Malformed rule names (the lint.h prose's
  // "<rule>" placeholder, say) are ignored.
  void collect_waivers() {
    static const std::string kMarker = "hclint: allow(";
    for (const StrippedFile& f : stripped_) {
      const std::string text = blank_except(f.src->raw, /*comments=*/true);
      std::size_t from = 0;
      while (true) {
        const std::size_t pos = text.find(kMarker, from);
        if (pos == std::string::npos) break;
        from = pos + kMarker.size();
        const std::size_t close = text.find(')', from);
        if (close == std::string::npos) break;
        const std::string rule = text.substr(from, close - from);
        const bool well_formed =
            !rule.empty() && std::all_of(rule.begin(), rule.end(), [](char c) {
              return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                     c == '-';
            });
        if (well_formed)
          waivers_.push_back({f.src->path, line_of(text, pos), rule, false});
      }
    }
  }

  // layering-acyclic-includes: back-edges in the layer DAG are errors;
  // same-rank includes are legal only while that subgraph stays acyclic.
  // Include paths are read from the RAW text — stripping blanks string
  // literal contents, which is exactly where the path lives.
  void check_layering() {
    struct Edge {
      const SourceFile* src;
      std::size_t line;
      std::string from, to;
    };
    std::vector<Edge> same_rank;
    std::map<std::string, std::vector<std::string>> adj;
    for (const StrippedFile& f : stripped_) {
      const std::string mod = module_of_path(f.src->path);
      const int rank = layer_rank(mod);
      if (rank < 0) continue;
      const std::string& raw = f.src->raw;
      std::size_t from = 0;
      while (true) {
        const std::size_t pos = raw.find("#include", from);
        if (pos == std::string::npos) break;
        from = pos + 8;
        const std::size_t q1 = raw.find_first_not_of(" \t", from);
        if (q1 == std::string::npos || raw[q1] != '"') continue;  // <system>
        const std::size_t q2 = raw.find('"', q1 + 1);
        if (q2 == std::string::npos) continue;
        const std::string inc = raw.substr(q1 + 1, q2 - q1 - 1);
        const std::size_t slash = inc.find('/');
        if (slash == std::string::npos) continue;  // sibling header
        const std::string target = inc.substr(0, slash);
        const int target_rank = layer_rank(target);
        if (target_rank < 0 || target == mod) continue;
        const std::size_t line = line_of(raw, pos);
        if (target_rank > rank) {
          report(f.src, line, "layering-acyclic-includes",
                 "include of \"" + inc + "\" is a layering back-edge: " + mod +
                     "/ (layer " + std::to_string(rank) +
                     ") must not depend on " + target + "/ (layer " +
                     std::to_string(target_rank) +
                     "); see the layer DAG in DESIGN.md §15");
        } else if (target_rank == rank) {
          same_rank.push_back({f.src, line, mod, target});
          adj[mod].push_back(target);
        }
      }
    }
    for (const Edge& e : same_rank) {
      // DFS from e.to over same-rank edges: reaching e.from closes a cycle.
      std::vector<std::string> stack{e.to};
      std::set<std::string> seen;
      bool cyclic = false;
      while (!stack.empty()) {
        const std::string cur = stack.back();
        stack.pop_back();
        if (cur == e.from) {
          cyclic = true;
          break;
        }
        if (!seen.insert(cur).second) continue;
        const auto it = adj.find(cur);
        if (it != adj.end())
          for (const std::string& nxt : it->second) stack.push_back(nxt);
      }
      if (cyclic) {
        report(e.src, e.line, "layering-acyclic-includes",
               "same-layer include cycle: " + e.from + "/ -> " + e.to +
                   "/ closes a loop back to " + e.from +
                   "/; break it or move the shared piece down a layer");
      }
    }
  }

  // shared-state-annotated: see lint.h. Function-local statics count —
  // they are shared across callers just the same (the IdTable singleton
  // carries HCUBE_INTERNALLY_SYNCHRONIZED for exactly this reason).
  void check_shared_state(const StrippedFile& f) {
    if (!under_src(f.src->path)) return;
    std::set<std::size_t> reported;
    static const char* const kStorage[] = {"static", "inline"};
    static const char* const kExempt[] = {
        "const",    "constexpr", "constinit", "thread_local",
        "using",    "typedef",   "namespace", "class",
        "struct",   "union",     "enum",      "template",
        "extern",   "operator",  "friend"};
    for (const char* kw : kStorage) {
      std::size_t from = 0;
      while (true) {
        const std::size_t pos = find_word(f.code, kw, from);
        if (pos == std::string::npos) break;
        from = pos + std::strlen(kw);
        const std::size_t decl_end =
            std::min(f.code.find(';', pos), f.code.find('{', pos));
        if (decl_end == std::string::npos) continue;
        // The declaration runs from the statement start (so "constinit
        // static" and "const static" orderings are seen) to the
        // initializer or terminator.
        const std::size_t decl_start = stmt_begin(f.code, pos);
        const std::size_t head_end = std::min(decl_end, f.code.find('=', pos));
        const std::string head = f.code.substr(decl_start, head_end - decl_start);
        bool exempt = false;
        for (const char* ok : kExempt)
          if (find_word(head, ok) != std::string::npos) {
            exempt = true;
            break;
          }
        if (exempt) continue;
        // Annotated shared state is the whole point — accept it before the
        // function test (the annotation macros carry parens).
        const std::string decl = f.code.substr(pos, decl_end - pos);
        if (find_word(decl, "HCUBE_GUARDED_BY") != std::string::npos ||
            find_word(decl, "HCUBE_PT_GUARDED_BY") != std::string::npos ||
            find_word(decl, "HCUBE_INTERNALLY_SYNCHRONIZED") !=
                std::string::npos)
          continue;
        // Functions (a '(' before the initializer / terminator) are fine.
        if (f.code.find('(', pos) < head_end) continue;
        const std::size_t line = line_of(f.code, pos);
        if (!reported.insert(line).second) continue;
        report(f.src, line, "shared-state-annotated",
               "mutable static-storage object: annotate with "
               "HCUBE_GUARDED_BY(...) / HCUBE_INTERNALLY_SYNCHRONIZED "
               "(util/thread_safety.h), make it const/constinit, or waive "
               "with a rationale");
      }
    }
  }

  // digest-nondeterminism: see lint.h. Pass A records every name declared
  // as a pointer-keyed associative container anywhere in the scanned set
  // (members included); pass B flags digest/export functions that declare
  // or mention one.
  void check_digest_nondeterminism() {
    struct PtrDecl {
      std::size_t file;
      std::size_t pos;
      std::size_t line;
      std::string name;  // may be empty (parameter-less / anonymous)
    };
    std::vector<PtrDecl> decls;
    std::set<std::string> tainted;
    static const char* const kContainers[] = {"map",          "set",
                                              "unordered_map", "unordered_set",
                                              "multimap",      "multiset"};
    for (std::size_t fi = 0; fi < stripped_.size(); ++fi) {
      const std::string& code = stripped_[fi].code;
      for (const char* cont : kContainers) {
        std::size_t from = 0;
        while (true) {
          const std::size_t pos = find_word(code, cont, from);
          if (pos == std::string::npos) break;
          from = pos + std::strlen(cont);
          const std::size_t open = skip_ws(code, from);
          if (open >= code.size() || code[open] != '<') continue;
          // First template argument, at angle-depth 1.
          std::size_t depth = 1;
          std::size_t i = open + 1;
          std::size_t arg_end = std::string::npos;
          for (; i < code.size(); ++i) {
            const char c = code[i];
            if (c == '<') {
              ++depth;
            } else if (c == '>') {
              if (--depth == 0) {
                arg_end = i;
                break;
              }
            } else if (c == ',' && depth == 1) {
              arg_end = i;
              break;
            }
          }
          if (arg_end == std::string::npos) continue;
          const std::string key = code.substr(open + 1, arg_end - open - 1);
          if (key.find('*') == std::string::npos) continue;
          // Pointer-keyed: remember the declared name, if one follows.
          std::size_t close = i;
          if (code[i] == ',') {
            std::size_t d2 = 1;
            for (close = i; close < code.size(); ++close) {
              if (code[close] == '<')
                ++d2;
              else if (code[close] == '>' && --d2 == 0)
                break;
            }
            if (close >= code.size()) continue;
          }
          std::size_t p = skip_ws(code, close + 1);
          while (p < code.size() && (code[p] == '&' || code[p] == '*'))
            p = skip_ws(code, p + 1);
          std::size_t q = p;
          while (q < code.size() && is_ident_char(code[q])) ++q;
          PtrDecl d{fi, pos, line_of(code, pos), code.substr(p, q - p)};
          if (!d.name.empty()) tainted.insert(d.name);
          decls.push_back(std::move(d));
        }
      }
    }
    if (decls.empty()) return;
    std::set<std::pair<std::string, std::size_t>> seen;
    auto flag = [&](const SourceFile* src, std::size_t line,
                    const std::string& what) {
      if (!seen.insert({src->path, line}).second) return;
      report(src, line, "digest-nondeterminism",
             what +
                 " in a digest/export function: iteration order depends on "
                 "addresses and breaks FNV-1a run-digest reproducibility; "
                 "key by dense ids or sort before hashing");
    };
    for (std::size_t fi = 0; fi < stripped_.size(); ++fi) {
      const StrippedFile& f = stripped_[fi];
      std::string lower = f.code;
      std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
        return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      });
      for (const FnDef& d : fndefs_[fi]) {
        std::string lname = d.name;
        std::transform(lname.begin(), lname.end(), lname.begin(), [](char c) {
          return static_cast<char>(
              std::tolower(static_cast<unsigned char>(c)));
        });
        const auto body_has = [&](const char* token) {
          const std::size_t at = lower.find(token, d.open);
          return at != std::string::npos && at < d.close;
        };
        const bool feeds = lname.find("digest") != std::string::npos ||
                           lname.find("fnv") != std::string::npos ||
                           lname.find("to_json") != std::string::npos ||
                           body_has("digest") || body_has("fnv") ||
                           body_has("to_json");
        if (!feeds) continue;
        for (const PtrDecl& pd : decls)
          if (pd.file == fi && d.open < pd.pos && pd.pos < d.close)
            flag(f.src, pd.line,
                 "pointer-keyed container declared (\"" + pd.name + "\")");
        for (const std::string& name : tainted) {
          std::size_t from = d.open;
          while (true) {
            const std::size_t q = find_word(f.code, name, from);
            if (q == std::string::npos || q >= d.close) break;
            from = q + name.size();
            flag(f.src, line_of(f.code, q),
                 "pointer-keyed container \"" + name + "\" used");
          }
        }
      }
    }
  }

  // ---- per-file determinism / pooling hygiene ----

  bool called_like_function(const std::string& code, std::size_t pos,
                            std::size_t len) const {
    const std::size_t after = skip_ws(code, pos + len);
    if (after >= code.size() || code[after] != '(') return false;
    // Member calls (x.time(), p->clock()) name our own simulated-time
    // accessors, not the C library.
    std::size_t before = pos;
    while (before > 0 && std::isspace(static_cast<unsigned char>(
                             code[before - 1])) != 0)
      --before;
    if (before > 0 && code[before - 1] == '.') return false;
    if (before > 1 && code[before - 2] == '-' && code[before - 1] == '>')
      return false;
    return true;
  }

  void scan_word(const StrippedFile& f, const std::string& word,
                 bool must_be_call, const std::string& rule,
                 const std::string& message) {
    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_word(f.code, word, from);
      if (pos == std::string::npos) return;
      if (!must_be_call || called_like_function(f.code, pos, word.size()))
        report(f.src, line_of(f.code, pos), rule, message);
      from = pos + word.size();
    }
  }

  void check_determinism_tokens(const StrippedFile& f) {
    scan_word(f, "rand", true, "no-rand",
              "std::rand is non-deterministic; use util/rng.h");
    scan_word(f, "srand", false, "no-rand",
              "srand is non-deterministic; use util/rng.h");
    scan_word(f, "random_device", false, "no-rand",
              "std::random_device is non-deterministic; use util/rng.h");
    scan_word(f, "time", true, "no-wall-clock",
              "wall-clock time() breaks replayability; use simulated time");
    scan_word(f, "clock", true, "no-wall-clock",
              "wall-clock clock() breaks replayability; use simulated time");
    scan_word(f, "gettimeofday", false, "no-wall-clock",
              "gettimeofday breaks replayability; use simulated time");
    scan_word(f, "system_clock", false, "no-wall-clock",
              "std::chrono::system_clock breaks replayability");
    scan_word(f, "steady_clock", false, "no-wall-clock",
              "std::chrono::steady_clock breaks replayability");
    scan_word(f, "high_resolution_clock", false, "no-wall-clock",
              "std::chrono::high_resolution_clock breaks replayability");

    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_word(f.code, "new", from);
      if (pos == std::string::npos) break;
      report(f.src, line_of(f.code, pos), "no-naked-new",
             "naked new: hot paths are pooled; use containers or make_unique");
      from = pos + 3;
    }
    from = 0;
    while (true) {
      const std::size_t pos = find_word(f.code, "delete", from);
      if (pos == std::string::npos) break;
      std::size_t before = pos;
      while (before > 0 &&
             std::isspace(static_cast<unsigned char>(f.code[before - 1])) != 0)
        --before;
      if (before == 0 || f.code[before - 1] != '=') {  // "= delete" is fine
        report(f.src, line_of(f.code, pos), "no-naked-delete",
               "naked delete: ownership goes through containers/unique_ptr");
      }
      from = pos + 6;
    }
  }

  // Node-keyed heap hash/tree containers are banned in src/core/: their
  // iteration order is either allocator-dependent (unordered_*, leaking
  // nondeterminism into event ordering) or log-time pointer-chasing
  // (map/set), and the dense-index refactor provides FlatNodeSet /
  // FlatNodeMap with deterministic insertion-order iteration and
  // cache-friendly storage. Fires on `std::unordered_map<NodeId, ...>`,
  // `std::unordered_set<NodeId>`, `std::map<NodeId, ...>`, `std::set<NodeId>`
  // (containers keyed by something else are fine).
  void check_dense_id_containers(const StrippedFile& f) {
    if (f.src->path.find("src/core/") == std::string::npos) return;
    static const char* const kContainers[] = {"unordered_map", "unordered_set",
                                              "map", "set"};
    for (const char* container : kContainers) {
      std::size_t from = 0;
      while (true) {
        const std::size_t pos = find_word(f.code, container, from);
        if (pos == std::string::npos) break;
        from = pos + std::strlen(container);
        const std::size_t open = skip_ws(f.code, from);
        if (open >= f.code.size() || f.code[open] != '<') continue;
        const std::size_t key = skip_ws(f.code, open + 1);
        if (find_word(f.code, "NodeId", key) != key) continue;
        // `NodeIdSet` etc. must not match; find_word already rejects a
        // longer identifier, so reaching here means the key type is NodeId.
        report(f.src, line_of(f.code, pos), "dense-id-no-heap-map",
               std::string("std::") + container +
                   "<NodeId, ...> in src/core/: use FlatNodeSet/FlatNodeMap "
                   "(ids/node_set.h) for deterministic dense-index storage");
      }
    }
  }

  void check_dcheck_side_effects(const StrippedFile& f) {
    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_word(f.code, "HCUBE_DCHECK", from);
      if (pos == std::string::npos) return;
      from = pos + 12;
      const std::size_t open = skip_ws(f.code, from);
      if (open >= f.code.size() || f.code[open] != '(') continue;
      const std::size_t end = match_balanced(f.code, open, '(', ')');
      if (end == std::string::npos) continue;
      const std::string arg = f.code.substr(open + 1, end - open - 2);
      if (has_side_effect(arg)) {
        report(f.src, line_of(f.code, pos), "dcheck-side-effect",
               "HCUBE_DCHECK argument has a side effect; it vanishes under "
               "NDEBUG");
      }
      from = end;
    }
  }

  static bool has_side_effect(const std::string& expr) {
    for (std::size_t i = 0; i < expr.size(); ++i) {
      const char c = expr[i];
      if ((c == '+' || c == '-') && i + 1 < expr.size() && expr[i + 1] == c)
        return true;  // ++ or --
      if (c != '=') continue;
      if (i + 1 < expr.size() && expr[i + 1] == '=') {
        ++i;  // "==" comparison
        continue;
      }
      if (i == 0) continue;
      const char prev = expr[i - 1];
      if (prev == '=' || prev == '!') continue;  // second char of == / !=
      if (prev == '<' || prev == '>') {
        // "<=" / ">=" compare; "<<=" / ">>=" assign.
        if (i >= 2 && expr[i - 2] == prev) return true;
        continue;
      }
      if (prev == '[') continue;  // lambda [=] capture
      return true;  // plain or compound assignment
    }
    return false;
  }

  std::vector<StrippedFile> stripped_;
  std::vector<std::vector<FnDef>> fndefs_;  // parallel to stripped_
  std::vector<Issue> issues_;
  std::vector<Waiver> waivers_;
};

}  // namespace

std::string strip_comments_and_strings(const std::string& src) {
  return blank_except(src, /*comments=*/false);
}

LintResult lint_files_full(const std::vector<SourceFile>& files) {
  return Linter(files).run();
}

std::vector<Issue> lint_files(const std::vector<SourceFile>& files) {
  return lint_files_full(files).issues;
}

namespace {

std::vector<SourceFile> load_paths(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> found;
  auto wants = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cpp" || ext == ".cc";
  };
  for (const std::string& path : paths) {
    if (fs::is_directory(path)) {
      for (const auto& entry : fs::recursive_directory_iterator(path))
        if (entry.is_regular_file() && wants(entry.path()))
          found.push_back(entry.path().string());
    } else {
      found.push_back(path);
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<SourceFile> files;
  for (const std::string& path : found) {
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;
    std::ostringstream content;
    content << in.rdbuf();
    files.push_back({path, content.str()});
  }
  return files;
}

}  // namespace

LintResult lint_paths_full(const std::vector<std::string>& paths) {
  return lint_files_full(load_paths(paths));
}

std::vector<Issue> lint_paths(const std::vector<std::string>& paths) {
  return lint_paths_full(paths).issues;
}

std::string format_issues(const std::vector<Issue>& issues) {
  std::ostringstream os;
  for (const Issue& issue : issues) {
    os << issue.file << ':' << issue.line << ": [" << issue.rule << "] "
       << issue.message << '\n';
  }
  return os.str();
}

std::string format_waivers(const std::vector<Waiver>& waivers) {
  std::ostringstream os;
  for (const Waiver& w : waivers) {
    os << w.file << ':' << w.line << ": allow(" << w.rule << ") -- "
       << (w.used ? "used" : "UNUSED") << '\n';
  }
  return os.str();
}

}  // namespace hclint
