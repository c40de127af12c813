#include "lint/lint.h"

#include <algorithm>
#include <array>
#include <cctype>

#include "lint/lexer.h"

namespace cmcp::lint {
namespace {

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

/// Hot-path directories where storage layout is part of the performance
/// contract (docs/performance.md).
bool in_hot_dirs(std::string_view path) {
  return starts_with(path, "src/mm/") || starts_with(path, "src/sim/") ||
         starts_with(path, "src/core/") || starts_with(path, "src/policy/");
}

bool in_src(std::string_view path) { return starts_with(path, "src/"); }

bool in_src_tools_bench(std::string_view path) {
  return starts_with(path, "src/") || starts_with(path, "tools/") ||
         starts_with(path, "bench/");
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

using Tokens = std::vector<Token>;

bool is_ident(const Tokens& ts, std::size_t i, std::string_view name) {
  return i < ts.size() && ts[i].kind == TokKind::kIdent && ts[i].text == name;
}

bool is_punct(const Tokens& ts, std::size_t i, std::string_view text) {
  return i < ts.size() && ts[i].kind == TokKind::kPunct && ts[i].text == text;
}

template <std::size_t N>
bool ident_in(const Tokens& ts, std::size_t i,
              const std::array<std::string_view, N>& set) {
  if (i >= ts.size() || ts[i].kind != TokKind::kIdent) return false;
  return std::find(set.begin(), set.end(), ts[i].text) != set.end();
}

/// `ts[i]` must be "<". Returns the token range [i+1, end) of the FIRST
/// top-level template argument (up to `,` or the matching close), and sets
/// `after_close` to the index just past the matching ">" (or npos if
/// unbalanced). Token-level angle matching is sound here because callers
/// only invoke it right after a known container name.
std::pair<std::size_t, std::size_t> first_template_arg(
    const Tokens& ts, std::size_t i, std::size_t* after_close = nullptr) {
  if (after_close != nullptr) *after_close = std::string::npos;
  int depth = 1;
  int paren = 0;
  std::size_t first_end = std::string::npos;
  std::size_t j = i + 1;
  for (; j < ts.size() && depth > 0; ++j) {
    const Token& t = ts[j];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(" || t.text == "[") ++paren;
    else if (t.text == ")" || t.text == "]") --paren;
    else if (paren == 0 && t.text == "<") ++depth;
    else if (paren == 0 && t.text == ">") --depth;
    else if (paren == 0 && t.text == ">>") depth -= 2;
    else if (paren == 0 && t.text == "," && depth == 1 &&
             first_end == std::string::npos) {
      first_end = j;
    }
    if (depth <= 0) {
      if (first_end == std::string::npos) first_end = j;
      if (after_close != nullptr) *after_close = j + 1;
      return {i + 1, first_end};
    }
  }
  return {i + 1, first_end == std::string::npos ? j : first_end};
}

/// Strip leading cv-qualifiers and `ns::` qualifications from a template
/// argument range; returns the start of the unqualified part.
std::size_t strip_qualifiers(const Tokens& ts, std::size_t begin,
                             std::size_t end) {
  std::size_t b = begin;
  while (b < end && (is_ident(ts, b, "const") || is_ident(ts, b, "typename")))
    ++b;
  while (b + 1 < end && ts[b].kind == TokKind::kIdent && is_punct(ts, b + 1, "::"))
    b += 2;
  return b;
}

/// Call-expression context for a free function: `ts[i]` is the callee
/// identifier and `ts[i+1]` is "(". Returns false for member calls
/// (`x.time(`), qualified non-std calls (`Foo::time(`), and declarations
/// (`Cycles clock(`), true for plain or `std::`-qualified calls.
bool is_free_call(const Tokens& ts, std::size_t i) {
  if (i == 0) return true;
  const Token& prev = ts[i - 1];
  if (prev.kind == TokKind::kIdent) {
    // Keywords that legally precede a call expression still mean a call;
    // any other identifier means `ReturnType name(` — a declaration.
    constexpr std::array<std::string_view, 6> kCallContextKeywords = {
        "return", "else", "do", "throw", "co_return", "co_yield"};
    return std::find(kCallContextKeywords.begin(), kCallContextKeywords.end(),
                     prev.text) != kCallContextKeywords.end();
  }
  if (prev.kind == TokKind::kPunct) {
    if (prev.text == "." || prev.text == "->") return false;  // member call
    if (prev.text == "::")
      return i >= 2 && is_ident(ts, i - 2, "std");  // std::time(..) only
    if (prev.text == "~" || prev.text == "&") return false;  // dtor/addr-of
  }
  return true;
}

struct Ctx {
  std::string_view path;
  const Tokens& ts;
  std::vector<Finding>& out;

  void report(unsigned line, std::string_view rule, std::string message) const {
    out.push_back(
        Finding{std::string(path), line, std::string(rule), std::move(message)});
  }
};

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

constexpr std::array<std::string_view, 4> kHashContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};
constexpr std::array<std::string_view, 4> kOrderedContainers = {
    "map", "set", "multimap", "multiset"};
constexpr std::array<std::string_view, 4> kIndexTypes = {"UnitIdx", "Pfn",
                                                         "Vpn", "CoreId"};

/// hash-keyed-index: unordered container keyed by a dense simulation index
/// in a hot-path directory. The repo's storage discipline (docs/
/// performance.md, PR "dense direct-indexed storage") is a direct-indexed
/// vector; a hash map both costs more per access and leaks hash iteration
/// order into anything that walks it.
void rule_hash_keyed_index(const Ctx& c) {
  if (!in_hot_dirs(c.path)) return;
  for (std::size_t i = 0; i + 1 < c.ts.size(); ++i) {
    if (!ident_in(c.ts, i, kHashContainers) || !is_punct(c.ts, i + 1, "<"))
      continue;
    auto [begin, end] = first_template_arg(c.ts, i + 1);
    std::size_t b = strip_qualifiers(c.ts, begin, end);
    if (b + 1 == end && ident_in(c.ts, b, kIndexTypes)) {
      c.report(c.ts[i].line, "hash-keyed-index",
               "std::" + c.ts[i].text + " keyed by " + c.ts[b].text +
                   ": use dense direct-indexed storage on hot paths "
                   "(docs/performance.md)");
    }
  }
}

/// ordered-pointer-key / hashed-pointer-key: container keyed by a pointer.
/// Pointer order (and pointer hash) follows the allocator, which is not
/// deterministic across runs — any walk of such a container can leak
/// address-dependent order into results (docs/invariants.md).
void rule_pointer_keys(const Ctx& c) {
  if (!in_src(c.path)) return;
  for (std::size_t i = 0; i + 1 < c.ts.size(); ++i) {
    const bool hashed = ident_in(c.ts, i, kHashContainers);
    const bool ordered = ident_in(c.ts, i, kOrderedContainers) && i >= 2 &&
                         is_punct(c.ts, i - 1, "::") &&
                         is_ident(c.ts, i - 2, "std");
    if ((!hashed && !ordered) || !is_punct(c.ts, i + 1, "<")) continue;
    auto [begin, end] = first_template_arg(c.ts, i + 1);
    if (end > begin && end <= c.ts.size() && is_punct(c.ts, end - 1, "*")) {
      c.report(c.ts[i].line, hashed ? "hashed-pointer-key" : "ordered-pointer-key",
               "std::" + c.ts[i].text +
                   " keyed by a pointer: address order is nondeterministic "
                   "across runs; key by a stable id instead");
    }
  }
}

/// pointer-address-cast: converting a pointer to an integer. An address is
/// run-dependent; once it is an integer it can silently flow into traces,
/// hashes or tie-breaks.
void rule_pointer_address_cast(const Ctx& c) {
  if (!in_src(c.path)) return;
  constexpr std::array<std::string_view, 2> kIntPtr = {"uintptr_t",
                                                       "intptr_t"};
  for (std::size_t i = 0; i + 1 < c.ts.size(); ++i) {
    if (is_ident(c.ts, i, "reinterpret_cast") && is_punct(c.ts, i + 1, "<")) {
      auto [begin, end] = first_template_arg(c.ts, i + 1);
      for (std::size_t j = begin; j < end && j < c.ts.size(); ++j) {
        if (ident_in(c.ts, j, kIntPtr)) {
          c.report(c.ts[i].line, "pointer-address-cast",
                   "pointer cast to " + c.ts[j].text +
                       ": addresses are run-dependent and must not reach "
                       "simulation state or output");
          break;
        }
      }
    }
    // C-style: (uintptr_t)p or (std::uintptr_t)p
    if (is_punct(c.ts, i, "(")) {
      std::size_t j = i + 1;
      if (is_ident(c.ts, j, "std") && is_punct(c.ts, j + 1, "::")) j += 2;
      if (ident_in(c.ts, j, kIntPtr) && is_punct(c.ts, j + 1, ")")) {
        c.report(c.ts[i].line, "pointer-address-cast",
                 "C-style pointer-to-" + c.ts[j].text +
                     " cast: addresses are run-dependent");
      }
    }
  }
}

/// wallclock-time: reading the host clock anywhere but the wallclock
/// benchmark. Simulated time comes exclusively from core clocks (`Cycles`);
/// wall-clock reads make runs irreproducible.
void rule_wallclock_time(const Ctx& c) {
  if (!in_src_tools_bench(c.path)) return;
  if (c.path == "bench/wallclock.cpp") return;  // the sanctioned consumer
  constexpr std::array<std::string_view, 4> kClockTypes = {
      "steady_clock", "system_clock", "high_resolution_clock", "chrono"};
  constexpr std::array<std::string_view, 8> kClockCalls = {
      "time",      "clock",     "clock_gettime", "gettimeofday",
      "localtime", "gmtime",    "mktime",        "difftime"};
  for (std::size_t i = 0; i < c.ts.size(); ++i) {
    if (ident_in(c.ts, i, kClockTypes)) {
      c.report(c.ts[i].line, "wallclock-time",
               "wall-clock source std::" + c.ts[i].text +
                   " outside bench/wallclock.cpp: simulated time must come "
                   "from core clocks only");
      continue;
    }
    if (ident_in(c.ts, i, kClockCalls) && is_punct(c.ts, i + 1, "(") &&
        is_free_call(c.ts, i)) {
      c.report(c.ts[i].line, "wallclock-time",
               "call to " + c.ts[i].text +
                   "() outside bench/wallclock.cpp reads the host clock");
    }
  }
}

/// unseeded-entropy: raw entropy sources outside the seeded common::Rng.
/// Every random stream must derive from the run's logged seed so any run
/// can be replayed bit-for-bit (docs/invariants.md).
void rule_unseeded_entropy(const Ctx& c) {
  if (!in_src_tools_bench(c.path)) return;
  if (c.path == "src/common/rng.cpp" || c.path == "src/common/rng.h")
    return;  // the sanctioned wrapper
  constexpr std::array<std::string_view, 9> kEngines = {
      "random_device", "mt19937",       "mt19937_64",
      "minstd_rand",   "minstd_rand0",  "default_random_engine",
      "ranlux24",      "ranlux48",      "knuth_b"};
  constexpr std::array<std::string_view, 7> kCalls = {
      "rand", "srand", "random", "srandom", "rand_r", "drand48", "lrand48"};
  for (std::size_t i = 0; i < c.ts.size(); ++i) {
    if (ident_in(c.ts, i, kEngines)) {
      c.report(c.ts[i].line, "unseeded-entropy",
               "raw entropy source " + c.ts[i].text +
                   " outside common::Rng: randomness must flow from the "
                   "run's logged seed");
      continue;
    }
    if (ident_in(c.ts, i, kCalls) && is_punct(c.ts, i + 1, "(") &&
        is_free_call(c.ts, i)) {
      c.report(c.ts[i].line, "unseeded-entropy",
               "call to " + c.ts[i].text +
                   "() bypasses the seeded common::Rng");
    }
  }
}

/// float-virtual-time: virtual time is integral `Cycles` by contract —
/// float accumulation drifts with evaluation order and breaks the
/// byte-identical trace invariant. Two shapes: a float variable named like
/// a time quantity, and a float literal initializing a Cycles variable.
void rule_float_virtual_time(const Ctx& c) {
  if (!in_src(c.path)) return;
  auto names_time = [](std::string_view name) {
    std::string lower(name);
    for (char& ch : lower) ch = static_cast<char>(std::tolower(
        static_cast<unsigned char>(ch)));
    return lower.find("cycle") != std::string::npos ||
           (lower.find("tick") != std::string::npos &&
            lower.find("stick") == std::string::npos);  // "sticky" != a tick
  };
  for (std::size_t i = 0; i + 1 < c.ts.size(); ++i) {
    // (a) `double fetch_cycles` — but not `double cycles_to_seconds(...)`,
    // which converts OUT of virtual time and is a function anyway.
    if ((is_ident(c.ts, i, "double") || is_ident(c.ts, i, "float")) &&
        c.ts[i + 1].kind == TokKind::kIdent && names_time(c.ts[i + 1].text) &&
        !is_punct(c.ts, i + 2, "(")) {
      c.report(c.ts[i].line, "float-virtual-time",
               "floating-point variable '" + c.ts[i + 1].text +
                   "' holds virtual time: use integral Cycles "
                   "(docs/invariants.md)");
    }
    // (b) `Cycles x = <init containing a float literal>` without an
    // explicit static_cast acknowledging the rounding.
    if (is_ident(c.ts, i, "Cycles") && c.ts[i + 1].kind == TokKind::kIdent &&
        is_punct(c.ts, i + 2, "=")) {
      bool has_float = false;
      bool has_cast = false;
      for (std::size_t j = i + 3; j < c.ts.size() && !is_punct(c.ts, j, ";");
           ++j) {
        if (c.ts[j].kind == TokKind::kNumber && is_float_literal(c.ts[j].text))
          has_float = true;
        if (is_ident(c.ts, j, "static_cast")) has_cast = true;
      }
      if (has_float && !has_cast) {
        c.report(c.ts[i].line, "float-virtual-time",
                 "float literal assigned into Cycles '" + c.ts[i + 1].text +
                     "': virtual time is integral; make rounding explicit");
      }
    }
  }
}

/// check-side-effect: a mutation inside a check macro argument. CMCP_CHECK
/// is always-on but SimCheck points compile out in Release — any side
/// effect inside either splits behaviour between build modes and violates
/// the "checking is observation-only" invariant.
void rule_check_side_effect(const Ctx& c) {
  if (!in_src_tools_bench(c.path)) return;
  constexpr std::array<std::string_view, 4> kMacros = {
      "CMCP_CHECK", "CMCP_CHECK_MSG", "CMCP_SIMCHECK_POINT", "CMCP_ASSERT"};
  constexpr std::array<std::string_view, 13> kMutators = {
      "++", "--", "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
      "<<=", ">>="};
  for (std::size_t i = 0; i + 1 < c.ts.size(); ++i) {
    if (!ident_in(c.ts, i, kMacros) || !is_punct(c.ts, i + 1, "(")) continue;
    int depth = 1;
    for (std::size_t j = i + 2; j < c.ts.size() && depth > 0; ++j) {
      const Token& t = c.ts[j];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "(") ++depth;
      else if (t.text == ")") --depth;
      else if (std::find(kMutators.begin(), kMutators.end(), t.text) !=
               kMutators.end()) {
        // `[=]` / `[x = y]` lambda captures are not argument mutations.
        if (t.text == "=" && j > 0 && (is_punct(c.ts, j - 1, "[") ||
                                       is_punct(c.ts, j - 1, "&")))
          continue;
        c.report(t.line, "check-side-effect",
                 "side effect ('" + t.text + "') inside " + c.ts[i].text +
                     " argument: checks must be observation-only "
                     "(docs/invariants.md)");
        break;
      }
    }
  }
}

/// raw-mutex: std synchronization primitives anywhere. The tree holds no
/// host lock: a simulation runs on one host thread, and each parallel-runner
/// job owns its result and error slot. The paper's one lock, the
/// invalidation-request slot, is modelled in virtual time by
/// sim::Interconnect.
void rule_raw_mutex(const Ctx& c) {
  if (!in_src_tools_bench(c.path)) return;
  constexpr std::array<std::string_view, 14> kSync = {
      "mutex",         "timed_mutex",   "recursive_mutex",
      "recursive_timed_mutex",          "shared_mutex",
      "shared_timed_mutex",             "lock_guard",
      "unique_lock",   "scoped_lock",   "shared_lock",
      "condition_variable",             "condition_variable_any",
      "call_once",     "once_flag"};
  for (std::size_t i = 2; i < c.ts.size(); ++i) {
    if (ident_in(c.ts, i, kSync) && is_punct(c.ts, i - 1, "::") &&
        is_ident(c.ts, i - 2, "std")) {
      c.report(c.ts[i].line, "raw-mutex",
               "std::" + c.ts[i].text +
                   ": the tree holds no host lock; give each thread its own "
                   "slot instead of sharing guarded state");
    }
  }
}

/// stray-thread: threading primitives outside the one sanctioned
/// parallelism entry point, metrics/parallel_runner (independent runs in
/// parallel). Everything else in the simulation core is single-threaded by
/// contract; keeping thread creation in one audited file is what makes that
/// contract checkable.
void rule_stray_thread(const Ctx& c) {
  if (!in_src(c.path)) return;
  if (c.path == "src/metrics/parallel_runner.cpp" ||
      c.path == "src/metrics/parallel_runner.h")
    return;
  constexpr std::array<std::string_view, 16> kThreading = {
      "thread",       "jthread",       "async",
      "future",       "shared_future", "promise",
      "packaged_task", "atomic",       "atomic_flag",
      "atomic_bool",  "barrier",       "latch",
      "counting_semaphore",            "binary_semaphore",
      "stop_source",  "stop_token"};
  for (std::size_t i = 2; i < c.ts.size(); ++i) {
    if (ident_in(c.ts, i, kThreading) && is_punct(c.ts, i - 1, "::") &&
        is_ident(c.ts, i - 2, "std")) {
      c.report(c.ts[i].line, "stray-thread",
               "std::" + c.ts[i].text +
                   " outside metrics/parallel_runner: "
                   "the simulation core is single-threaded by contract");
    }
  }
}

/// volatile-qualifier: volatile is neither atomicity nor ordering; in this
/// codebase it can only hide host state shared between threads.
void rule_volatile(const Ctx& c) {
  if (!in_src_tools_bench(c.path)) return;
  for (std::size_t i = 0; i < c.ts.size(); ++i) {
    if (is_ident(c.ts, i, "volatile")) {
      c.report(c.ts[i].line, "volatile-qualifier",
               "volatile is not a synchronization mechanism; give each "
               "thread its own state or redesign");
    }
  }
}

/// unordered-iteration: walking an unordered container declared in the same
/// file. Iteration order is unspecified; anything derived from the walk
/// (output rows, tie-breaks, accumulation into floats) becomes
/// run-dependent. The sanctioned pattern is collect-then-sort — suppress
/// with an allow() comment at such sites.
void rule_unordered_iteration(const Ctx& c) {
  if (!in_src(c.path)) return;
  // Pass 1: names declared with an unordered container type in this file.
  std::vector<std::string_view> names;
  for (std::size_t i = 0; i + 1 < c.ts.size(); ++i) {
    if (!ident_in(c.ts, i, kHashContainers) || !is_punct(c.ts, i + 1, "<"))
      continue;
    std::size_t after = std::string::npos;
    first_template_arg(c.ts, i + 1, &after);
    if (after != std::string::npos && after < c.ts.size() &&
        c.ts[after].kind == TokKind::kIdent) {
      names.push_back(c.ts[after].text);
    }
  }
  if (names.empty()) return;
  auto is_tracked = [&](const Token& t) {
    return t.kind == TokKind::kIdent &&
           std::find(names.begin(), names.end(), t.text) != names.end();
  };
  for (std::size_t i = 0; i + 1 < c.ts.size(); ++i) {
    // `name.begin()` / `name.cbegin()`
    if (is_tracked(c.ts[i]) &&
        (is_punct(c.ts, i + 1, ".") || is_punct(c.ts, i + 1, "->")) &&
        (is_ident(c.ts, i + 2, "begin") || is_ident(c.ts, i + 2, "cbegin")) &&
        is_punct(c.ts, i + 3, "(")) {
      c.report(c.ts[i].line, "unordered-iteration",
               "iterating unordered container '" + c.ts[i].text +
                   "': order is unspecified — collect and sort first "
                   "(docs/invariants.md)");
      continue;
    }
    // `for ( ... : name )`
    if (!is_ident(c.ts, i, "for") || !is_punct(c.ts, i + 1, "(")) continue;
    int depth = 1;
    std::size_t colon = std::string::npos;
    std::size_t close = std::string::npos;
    for (std::size_t j = i + 2; j < c.ts.size() && depth > 0; ++j) {
      const Token& t = c.ts[j];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "(") ++depth;
      else if (t.text == ")") {
        --depth;
        if (depth == 0) close = j;
      } else if (t.text == ":" && depth == 1 && colon == std::string::npos) {
        colon = j;
      }
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    if (close - colon > 4) continue;  // range expr more complex than x/this->x
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (is_tracked(c.ts[j])) {
        c.report(c.ts[i].line, "unordered-iteration",
                 "range-for over unordered container '" + c.ts[j].text +
                     "': order is unspecified — collect and sort first "
                     "(docs/invariants.md)");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// An allowance covers its own line and the next code line after the
/// comment (not merely line+1: the justification prose may continue over
/// several comment lines before the code it excuses).
bool allowed(const std::vector<Allowance>& allows, const Tokens& ts,
             const Finding& f) {
  for (const Allowance& a : allows) {
    if (a.rule != "*" && a.rule != f.rule) continue;
    if (a.line == f.line) return true;
    unsigned next_code_line = 0;
    for (const Token& t : ts) {
      if (t.line > a.line) {
        next_code_line = t.line;
        break;
      }
    }
    if (next_code_line != 0 && f.line == next_code_line) return true;
  }
  return false;
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"hash-keyed-index",
       "unordered container keyed by UnitIdx/Pfn/Vpn/CoreId in hot-path dirs"},
      {"ordered-pointer-key", "std::map/set keyed by a pointer"},
      {"hashed-pointer-key", "unordered container keyed by a pointer"},
      {"pointer-address-cast", "pointer cast to uintptr_t/intptr_t"},
      {"wallclock-time", "host clock read outside bench/wallclock.cpp"},
      {"unseeded-entropy", "raw entropy source outside common::Rng"},
      {"float-virtual-time", "floating-point values holding virtual time"},
      {"check-side-effect", "mutation inside CMCP_CHECK/SIMCHECK arguments"},
      {"raw-mutex", "std synchronization primitive (the tree holds no lock)"},
      {"stray-thread", "threading primitive outside metrics/parallel_runner"},
      {"volatile-qualifier", "volatile used as a synchronization tool"},
      {"unordered-iteration", "iteration over an unordered container"},
  };
  return kCatalog;
}

std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view content) {
  const LexResult lexed = lex(content);
  std::vector<Finding> raw;
  const Ctx c{path, lexed.tokens, raw};
  rule_hash_keyed_index(c);
  rule_pointer_keys(c);
  rule_pointer_address_cast(c);
  rule_wallclock_time(c);
  rule_unseeded_entropy(c);
  rule_float_virtual_time(c);
  rule_check_side_effect(c);
  rule_raw_mutex(c);
  rule_stray_thread(c);
  rule_volatile(c);
  rule_unordered_iteration(c);

  std::vector<Finding> kept;
  for (Finding& f : raw) {
    if (!allowed(lexed.allows, lexed.tokens, f)) kept.push_back(std::move(f));
  }
  sort_findings(kept);
  return kept;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

}  // namespace cmcp::lint
