// Strict command-line flags, shared by the bench binaries and the CLIs in
// tools/ (hcube-sim, hchaos).
//
// Each program declares the flags it reads: `--name` switches, or `--name
// VALUE` flags whose value is an unsigned integer, a decimal, free text, or
// one of a fixed set of choices. An unknown flag, a missing or malformed
// value ("12x", "-1", "1.5.2"), an unknown choice, or --help prints the
// usage line to stderr and exits 2 before any work starts: a mistyped flag
// must not silently run the default workload (bench_scale's builds 10^6
// nodes).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "util/check.h"

namespace hcube::bench {

class Flags {
 public:
  enum Kind : std::uint8_t {
    kUnsigned,  // std::uint64_t, decimal digits only
    kDecimal,   // finite double
    kText,      // any non-empty string
    kChoice,    // one of the '|'-separated words of the placeholder
  };
  struct Spec {
    const char* name;             // "--n"
    const char* value = nullptr;  // placeholder ("N", "a|b|c"); null = switch
    Kind kind = kUnsigned;        // ignored for switches
  };

  Flags(int argc, char** argv, std::vector<Spec> specs)
      : Flags(argv[0], argc, argv, 1, std::move(specs)) {}

  // A subcommand's flags: parses argv[2..]; the usage line names the
  // program and the subcommand ("hcube-sim wave").
  static Flags subcommand(int argc, char** argv, std::vector<Spec> specs) {
    return Flags(std::string(argv[0]) + " " + argv[1], argc, argv, 2,
                 std::move(specs));
  }

  // Whether the flag was given (switches and value flags alike).
  bool present(const char* name) const {
    HCUBE_CHECK_MSG(find(name) != nullptr, "undeclared flag");
    return last(name) != nullptr;
  }

  // The flag's value (the last one given), or `fallback` when absent.
  std::uint64_t u64(const char* name, std::uint64_t fallback) const {
    const Given* g = value_of(name, kUnsigned);
    return g != nullptr ? g->u64 : fallback;
  }
  double decimal(const char* name, double fallback) const {
    const Given* g = value_of(name, kDecimal);
    return g != nullptr ? g->decimal : fallback;
  }
  // kText and kChoice flags.
  std::string text(const char* name, const std::string& fallback) const {
    const Spec* spec = find(name);
    HCUBE_CHECK_MSG(spec != nullptr && spec->value != nullptr &&
                        (spec->kind == kText || spec->kind == kChoice),
                    "undeclared text flag");
    const Given* g = last(name);
    return g != nullptr ? g->text : fallback;
  }

  // Rejects input the flags parse but the program cannot run (a value out
  // of range, conflicting flags) the same way: error, usage line, exit 2.
  [[noreturn]] void fail(const std::string& error) const {
    if (!error.empty())
      std::fprintf(stderr, "%s: %s\n", program_.c_str(), error.c_str());
    std::fprintf(stderr, "usage: %s", program_.c_str());
    for (const Spec& s : specs_) {
      if (s.value != nullptr)
        std::fprintf(stderr, " [%s %s]", s.name, s.value);
      else
        std::fprintf(stderr, " [%s]", s.name);
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

 private:
  struct Given {
    std::string_view name;
    std::uint64_t u64 = 0;
    double decimal = 0.0;
    std::string text;
  };

  Flags(std::string program, int argc, char** argv, int first,
        std::vector<Spec> specs)
      : program_(std::move(program)), specs_(std::move(specs)) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") fail("");
      const Spec* spec = find(arg);
      if (spec == nullptr) fail("unknown flag " + arg);
      Given g;
      g.name = spec->name;
      if (spec->value != nullptr) {
        if (i + 1 >= argc) fail("missing value for " + arg);
        g.text = argv[++i];
        if (!parse(*spec, g))
          fail(arg + " needs " + expected(*spec) + ", got \"" + g.text +
               "\"");
      }
      given_.push_back(std::move(g));
    }
  }

  static bool parse(const Spec& spec, Given& g) {
    const char* begin = g.text.data();
    const char* end = begin + g.text.size();
    if (begin == end) return false;
    switch (spec.kind) {
      case kUnsigned: {
        const auto r = std::from_chars(begin, end, g.u64);
        return r.ec == std::errc{} && r.ptr == end;
      }
      case kDecimal: {
        const auto r = std::from_chars(begin, end, g.decimal);
        return r.ec == std::errc{} && r.ptr == end && std::isfinite(g.decimal);
      }
      case kText: return true;
      case kChoice: {
        std::string_view rest = spec.value;
        while (true) {
          const std::size_t bar = rest.find('|');
          if (rest.substr(0, bar) == g.text) return true;
          if (bar == std::string_view::npos) return false;
          rest.remove_prefix(bar + 1);
        }
      }
    }
    return false;
  }

  static std::string expected(const Spec& spec) {
    switch (spec.kind) {
      case kUnsigned: return "an unsigned integer";
      case kDecimal: return "a decimal number";
      case kText: return "a value";
      case kChoice: return std::string("one of ") + spec.value;
    }
    return "a value";
  }

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

  const Given* value_of(const char* name, Kind kind) const {
    const Spec* spec = find(name);
    HCUBE_CHECK_MSG(spec != nullptr && spec->value != nullptr &&
                        spec->kind == kind,
                    "undeclared value flag");
    return last(name);
  }

  std::string program_;
  std::vector<Spec> specs_;
  std::vector<Given> given_;
};

}  // namespace hcube::bench
