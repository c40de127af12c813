// cmcp_bench — the simulator's end-to-end and per-layer benchmark.
//
//   cmcp_bench run [--workload NAME[,NAME...]] [--seed N] [--rounds N |
//                  --seconds S] [--trace 0|1] [--smoke] [--peer BINARY]
//                  [--json FILE]
//   cmcp_bench sample --workload NAME --seed N --mode untraced|spans|events
//   cmcp_bench provenance
//
// `run` is a closed loop with one simulation in flight: every sample is one
// full simulation in a child process (`sample`), so the child's peak RSS
// belongs to one workload. Samples go round-robin across the workloads and
// the start workload rotates each round, so a host-wide slow episode lands
// on every workload instead of on one workload's whole series. Host metrics
// are medians over the rounds; simulated metrics must repeat exactly, and a
// sample that fails any output check counts as failed (exit 1).
//
// --trace 0 runs untraced samples and prints the end-to-end metrics;
// --trace 1 rotates untraced, spans and events samples and prints the
// per-layer metrics; without --trace the timed rounds are followed by one
// spans and one events sample per workload and both sets are printed.
// --peer interleaves a second build's samples with this build's, pairwise,
// alternating which side runs first, and reports an A/B verdict per metric.
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>  // cmcp-lint: allow(wallclock-time) — the run's time box
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sim_api.h"

extern char** environ;

namespace bench {
namespace {

// --- metric catalogue -------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" | "higher"
  double bound = 0.0;  ///< end-to-end only: allowed worsening, share of median
};

// Mirrors BENCHMARK.json; README.md gives the measured spreads behind the
// bounds. failed_share is reported beside these rather than as one of
// them: it is 0 on every passing run.
constexpr MetricDef kEndToEnd[] = {
    {"host_ns_per_ref", "ns", "lower", 0.24},
    {"setup_s", "s", "lower", 0.25},
    {"peak_rss_mb", "MB", "lower", 0.08},
    {"sim_makespan_cycles", "cycles", "lower", 0.15},
};
enum E2e : std::size_t { kHostNsPerRef, kSetupS, kPeakRssMb, kMakespan };

constexpr MetricDef kPerLayer[] = {
    {"workloads.build_ms", "ms", "lower"},
    {"workloads.drain_ns_per_ref", "ns", "lower"},
    {"core.build_ms", "ms", "lower"},
    {"core.residual_ns_per_ref", "ns", "lower"},
    {"policy.on_insert.calls", "count", "lower"},
    {"policy.on_insert.self_ns", "ns", "lower"},
    {"policy.on_evict.calls", "count", "lower"},
    {"policy.on_evict.self_ns", "ns", "lower"},
    {"policy.pick_victim.calls", "count", "lower"},
    {"policy.pick_victim.self_ns", "ns", "lower"},
    {"policy.on_core_map_grow.calls", "count", "lower"},
    {"policy.on_core_map_grow.self_ns", "ns", "lower"},
    {"policy.on_scan.calls", "count", "lower"},
    {"policy.on_scan.self_ns", "ns", "lower"},
    {"policy.on_tick.calls", "count", "lower"},
    {"policy.on_tick.self_ns", "ns", "lower"},
    {"policy.self_pct", "%", "lower"},
    {"policy.evictions", "count", "lower"},
    {"sim.tlb.misses_per_kref", "1/kref", "lower"},
    {"mm.pt.minor_faults", "count", "lower"},
    {"core.fault.major", "count", "lower"},
    {"core.fault.service_cycles.p50", "cycles", "lower"},
    {"core.fault.service_cycles.p99", "cycles", "lower"},
    {"sim.machine.shootdowns", "count", "lower"},
    {"sim.machine.remote_invals", "count", "lower"},
    {"sim.machine.ipis", "count", "lower"},
    {"sim.machine.slot_wait_cycles.p50", "cycles", "lower"},
    {"sim.machine.slot_wait_cycles.p99", "cycles", "lower"},
    {"sim.pcie.bytes_in", "B", "lower"},
    {"sim.pcie.bytes_out", "B", "lower"},
    {"sim.pcie.queue_wait_cycles.p50", "cycles", "lower"},
    {"sim.pcie.queue_wait_cycles.p99", "cycles", "lower"},
    {"core.scanner.passes", "count", "lower"},
    {"core.scanner.pages_cleared", "count", "lower"},
    {"mm.partition.jain", "ratio", "higher"},
    {"sim.cycles.compute_pct", "%", "higher"},
    {"sim.cycles.mem_pct", "%", "lower"},
    {"sim.cycles.fault_pct", "%", "lower"},
    {"sim.cycles.pcie_wait_pct", "%", "lower"},
    {"sim.cycles.shootdown_pct", "%", "lower"},
    {"sim.cycles.interrupt_pct", "%", "lower"},
    {"sim.cycles.lock_wait_pct", "%", "lower"},
    {"sim.cycles.barrier_pct", "%", "lower"},
    {"sim.cycles.syscall_pct", "%", "lower"},
    {"sim.cycles.recovery_pct", "%", "lower"},
    {"sim.cycles.straggler_pct", "%", "lower"},
    {"sim.trace.events", "count", "lower"},
    {"sim.trace.emit_overhead_pct", "%", "lower"},
    {"sim.trace.export_ms", "ms", "lower"},
    {"bench.span_cost_ns", "ns", "lower"},
    {"bench.instrument_overhead_pct", "%", "lower"},
};

// --- formatting -------------------------------------------------------------

/// Shortest text that reads back as the same double: all its digits.
std::string fmt(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_number(double v) { return std::isfinite(v) ? fmt(v) : "null"; }

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

/// Builds one JSON object, field by field.
class Json {
 public:
  Json& raw(std::string_view key, std::string_view json) {
    if (out_.size() > 1) out_ += ',';
    out_ += quote(key);
    out_ += ':';
    out_ += json;
    return *this;
  }
  Json& str(std::string_view key, std::string_view value) {
    return raw(key, quote(value));
  }
  Json& num(std::string_view key, double value) {
    return raw(key, json_number(value));
  }
  Json& obj(std::string_view key, const Json& value) {
    return raw(key, value.text());
  }
  std::string text() const { return out_ + '}'; }

 private:
  std::string out_ = "{";
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) out += ',';
    out += item;
  }
  out += ']';
  return out;
}

template <typename T>
bool parse_number(std::string_view text, T* out) {
  const auto res = std::from_chars(text.data(), text.data() + text.size(), *out);
  return res.ec == std::errc() && res.ptr == text.data() + text.size();
}

// --- statistics -------------------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return NAN;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

/// First and third quartile as Python's statistics.quantiles(xs, n=4).
std::pair<double, double> quartiles(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n == 0) return {NAN, NAN};
  if (n == 1) return {xs[0], xs[0]};
  const auto q = [&](std::size_t i) {
    std::size_t j = (n + 1) * i / 4;
    std::size_t delta = (n + 1) * i % 4;
    if (j < 1) {
      j = 1;
      delta = 0;
    } else if (j > n - 1) {
      j = n - 1;
      delta = 4;
    }
    return (xs[j - 1] * static_cast<double>(4 - delta) +
            xs[j] * static_cast<double>(delta)) /
           4.0;
  };
  return {q(1), q(3)};
}

/// A metric's value with the spread behind it. A metric derived from
/// several medians has no quartiles; n is then the samples behind it.
struct Stat {
  double value = NAN;
  double q1 = NAN;
  double q3 = NAN;
  double min = NAN;
  std::size_t n = 0;
};

Stat stat_of(const std::vector<double>& xs) {
  Stat s;
  s.n = xs.size();
  if (xs.empty()) return s;
  s.value = median(xs);
  std::tie(s.q1, s.q3) = quartiles(xs);
  s.min = *std::min_element(xs.begin(), xs.end());
  return s;
}

Json json_stat(const Stat& s, const MetricDef& def) {
  Json j;
  j.num("value", s.value).str("unit", def.unit).str("better", def.better);
  if (def.bound > 0) j.num("bound", def.bound);
  j.num("q1", s.q1).num("q3", s.q3).num("min", s.min).num(
      "n", static_cast<double>(s.n));
  return j;
}

// --- provenance -------------------------------------------------------------

std::string shell_output(const std::string& command) {
  std::string out;
  if (FILE* p = popen(command.c_str(), "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos)
      return line.substr(std::min(colon + 2, line.size()));
  }
  return "unknown";
}

using Pairs = std::vector<std::pair<std::string, std::string>>;

/// Which build produced the numbers, so two outputs show whether they can
/// be compared at all. The commit is read from the source tree at run time:
/// "unknown" outside a git checkout.
Pairs provenance() {
  const std::string git =
      std::string("git -C '") + CMCP_BENCH_SOURCE_DIR + "' ";
  std::string commit = shell_output(git + "rev-parse HEAD 2>/dev/null");
  std::string dirty = "unknown";
  if (commit.empty()) {
    commit = "unknown";
  } else {
    const std::string status = shell_output(
        git + "status --porcelain --untracked-files=no 2>/dev/null");
    dirty = status.empty() ? "false" : "true";
  }
  return {
      {"commit", commit},
      {"dirty", dirty},
      {"compiler", CMCP_BENCH_COMPILER},
      {"build_type", CMCP_BENCH_BUILD_TYPE},
      {"cxx_flags", CMCP_BENCH_CXX_FLAGS},
      {"simcheck", simcheck_compiled_in() ? "on" : "off"},
      {"cpu_model", cpu_model()},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
  };
}

Json json_pairs(const Pairs& pairs) {
  Json j;
  for (const auto& [k, v] : pairs) j.str(k, v);
  return j;
}

/// Numbers from a build with SimCheck or assertions compiled in, or without
/// optimisation, say nothing about the simulator's speed.
bool build_is_benchmarkable() {
  bool ok = true;
  if (simcheck_compiled_in()) {
    std::fprintf(stderr, "cmcp_bench: SimCheck is compiled in; rebuild with "
                         "CMCP_SIMCHECK=OFF\n");
    ok = false;
  }
  if (std::string_view(CMCP_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "cmcp_bench: build type is '%s'; rebuild as Release\n",
                 CMCP_BENCH_BUILD_TYPE);
    ok = false;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "cmcp_bench: assertions are compiled in (no NDEBUG)\n");
  ok = false;
#endif
  return ok;
}

// --- vCPU choice ------------------------------------------------------------

using Clock = std::chrono::steady_clock;  // cmcp-lint: allow(wallclock-time)
using Seconds = std::chrono::duration<double>;  // cmcp-lint: allow(wallclock-time)

/// On a shared host one vCPU can run a simulation 2x slower than another for
/// seconds at a time while a neighbour loads its physical core. A
/// single-threaded sample therefore runs pinned to the vCPU on which a short
/// fixed probe (a pointer chase through 1 MiB) just ran fastest. On a 4-vCPU
/// Xeon VM shared with other tenants that halved the run-to-run spread of
/// host_ns_per_ref. Samples of a multi-threaded engine use every vCPU.
class CpuPicker {
 public:
  CpuPicker() : next_(1u << 18) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    // One random cycle through the buffer, from a fixed seed.
    std::vector<std::uint32_t> order(next_.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    for (std::size_t i = 0; i < order.size(); ++i)
      next_[order[i]] = order[(i + 1) % order.size()];
  }

  /// Pins this process (and so the next child it starts) to the quietest
  /// vCPU.
  void pin_quietest() {
    if (cpus_.size() < 2) return;
    int best_cpu = cpus_[0];
    double best = INFINITY;
    for (int cpu : cpus_) {
      if (!pin({cpu})) return;
      double t = INFINITY;
      for (int r = 0; r < 3; ++r) t = std::min(t, probe());
      if (t < best) {
        best = t;
        best_cpu = cpu;
      }
    }
    pin({best_cpu});
  }

  void unpin() { pin(cpus_); }

 private:
  static bool pin(const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0;
  }

  double probe() {
    std::uint32_t i = 0;
    const auto t0 = Clock::now();
    for (int k = 0; k < 100000; ++k) i = next_[i];
    const double t = Seconds(Clock::now() - t0).count();
    sink_ += i;
    return t;
  }

  std::vector<int> cpus_;
  std::vector<std::uint32_t> next_;
  std::uint64_t sink_ = 0;  ///< keeps the chase observable
};

// --- child samples ----------------------------------------------------------

/// One sample as the runner sees it.
struct Record {
  std::size_t workload = 0;  ///< index into workloads()
  Mode mode = Mode::kUntraced;
  int side = 0;              ///< 0 = this build, 1 = the peer
  unsigned round = 0;
  bool timed = true;         ///< false: taken only as a reference
  std::map<std::string, double> values;
  Pairs summary;
  double rss_kb = 0.0;
  std::string failure;       ///< empty = every check passed

  double get(const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? NAN : it->second;
  }
};

int cmd_sample(const WorkloadDef& w, std::uint64_t seed, Mode mode) {
  const Sample s = run_sample(w, seed, mode);
  std::string out;
  for (const auto& [name, value] : s.values)
    out += "value " + name + ' ' + fmt(value) + '\n';
  for (const auto& [name, value] : s.summary)
    out += "summary " + name + ' ' + std::to_string(value) + '\n';
  return std::fwrite(out.data(), 1, out.size(), stdout) == out.size() ? 0 : 1;
}

/// A sample whose process is running; pid -1 when it could not start (the
/// record then says why).
struct Child {
  pid_t pid = -1;
  int fd = -1;
  Record record;
};

/// Starts `binary sample ...` with its standard output on a pipe. The child
/// inherits this process's CPU affinity.
Child start_sample(const std::string& binary, std::size_t workload,
                   std::uint64_t seed, Mode mode) {
  Child c;
  c.record.workload = workload;
  c.record.mode = mode;
  std::vector<std::string> args = {
      binary,   "sample", "--workload", workloads()[workload].name,
      "--seed", std::to_string(seed), "--mode", std::string(to_string(mode))};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) {
    c.record.failure = "pipe failed";
    return c;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const int err = posix_spawn(&c.pid, binary.c_str(), &actions, nullptr,
                              argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (err != 0) {
    close(fds[0]);
    c.pid = -1;
    c.record.failure = "cannot start " + binary + ": " + std::strerror(err);
    return c;
  }
  c.fd = fds[0];
  return c;
}

/// Reads the child's output and waits for it; the child's rusage gives the
/// peak RSS of exactly one simulation.
Record finish_sample(Child c) {
  Record& r = c.record;
  if (c.pid < 0) return r;
  std::string text;
  char buf[65536];
  for (;;) {
    const ssize_t n = read(c.fd, buf, sizeof buf);
    if (n > 0)
      text.append(buf, static_cast<std::size_t>(n));
    else if (n == 0 || errno != EINTR)
      break;
  }
  close(c.fd);
  int status = 0;
  rusage usage{};
  while (wait4(c.pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  r.rss_kb = static_cast<double>(usage.ru_maxrss);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r.failure = "sample process failed (wait status " +
                std::to_string(status) + ")";
    return r;
  }
  std::istringstream in(text);
  std::string kind, name, value;
  while (in >> kind >> name >> value) {
    double v = 0.0;
    if (kind == "value" && parse_number(value, &v)) {
      r.values[name] = v;
    } else if (kind == "summary") {
      r.summary.emplace_back(name, value);
    } else {
      r.failure = "malformed sample output near '" + kind + "'";
      return r;
    }
  }
  if (r.values.count("run_ns") == 0) r.failure = "sample output incomplete";
  return r;
}

// --- the run ----------------------------------------------------------------

struct Options {
  std::vector<std::size_t> workloads;
  std::uint64_t seed = 1234;
  unsigned rounds = 20;
  double seconds = 0.0;  ///< > 0: run rounds until this much time has passed
  int trace = -1;        ///< -1: timed rounds, then one instrumented round
  std::string peer;
  std::string json_path;
  bool smoke = false;
};

/// One workload's metrics.
struct Report {
  std::map<std::string, Stat> end_to_end;
  std::map<std::string, Stat> per_layer;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

class Runner {
 public:
  Runner(Options opt, std::string self)
      : opt_(std::move(opt)), self_(std::move(self)) {}

  void run();
  int finish() const;

 private:
  struct Job {
    std::size_t workload;
    Mode mode;
    int side;
    unsigned round;
    bool timed;
  };
  void execute(const std::vector<Job>& jobs);
  void check(Record& r);
  std::vector<const Record*> select(std::size_t w, Mode mode, int side) const;
  std::vector<double> series(std::size_t w, Mode mode,
                             const std::string& key, double scale = 1.0) const;
  Report report(std::size_t w) const;
  Json peer_report(std::string* text) const;
  std::string json_document(const std::vector<Report>& reports,
                            const Json& peer) const;

  Options opt_;
  std::string self_;
  CpuPicker picker_;
  std::vector<Record> records_;
  /// Reference summary per (workload, or the twin it must match; side).
  std::map<std::pair<std::string, int>, Pairs> reference_;
  unsigned rounds_done_ = 0;
  double elapsed_s_ = 0.0;
};

void Runner::check(Record& r) {
  if (!r.failure.empty()) return;
  const WorkloadDef& w = workloads()[r.workload];
  const double refs = r.get("refs");
  const bool pinned = opt_.seed == 1234;
  if (refs != r.get("drain_refs")) {
    r.failure = "simulated references " + fmt(refs) +
                " != references the workload emits standalone " +
                fmt(r.get("drain_refs"));
  } else if (r.mode == Mode::kSpans && refs != r.get("stream_refs")) {
    r.failure = "simulated references " + fmt(refs) +
                " != references pulled through the streams " +
                fmt(r.get("stream_refs"));
  } else if (pinned && w.golden_makespan != 0 &&
             r.get("makespan") != static_cast<double>(w.golden_makespan)) {
    r.failure = "makespan " + fmt(r.get("makespan")) + " != pinned " +
                std::to_string(w.golden_makespan);
  } else if (pinned && refs != static_cast<double>(w.golden_refs)) {
    r.failure = "references " + fmt(refs) + " != pinned " +
                std::to_string(w.golden_refs);
  }
  if (!r.failure.empty()) return;

  const std::string key = w.twin != nullptr ? w.twin : w.name;
  const auto [it, inserted] = reference_.try_emplace({key, r.side}, r.summary);
  if (!inserted && it->second != r.summary)
    r.failure = "result summary differs from the first " + key + " sample";
}

/// Runs the jobs in order. Timed runs keep one simulation in flight, each
/// single-threaded one pinned to the quietest vCPU; --smoke checks outputs
/// rather than timing them and runs up to four engine threads at once.
void Runner::execute(const std::vector<Job>& jobs) {
  const unsigned slots = opt_.smoke ? 4 : 1;
  struct Running {
    Job job;
    unsigned threads;
    Child child;
  };
  std::deque<Running> running;
  unsigned busy = 0;
  const auto reap = [&] {
    Running done = std::move(running.front());
    running.pop_front();
    busy -= done.threads;
    Record r = finish_sample(std::move(done.child));
    r.side = done.job.side;
    r.round = done.job.round;
    r.timed = done.job.timed;
    check(r);
    if (!r.failure.empty())
      std::fprintf(stderr, "FAIL %s %s%s round %u: %s\n",
                   workloads()[r.workload].name,
                   std::string(to_string(r.mode)).c_str(),
                   r.side == 1 ? " (peer)" : "", r.round, r.failure.c_str());
    records_.push_back(std::move(r));
  };
  for (const Job& job : jobs) {
    const unsigned engine_threads = workloads()[job.workload].threads;
    const unsigned threads = std::min(engine_threads, slots);
    while (!running.empty() && busy + threads > slots) reap();
    const bool pin = slots == 1 && engine_threads == 1;
    if (pin) picker_.pin_quietest();
    running.push_back({job, threads,
                       start_sample(job.side == 0 ? self_ : opt_.peer,
                                    job.workload, opt_.seed, job.mode)});
    if (pin) picker_.unpin();
    busy += threads;
  }
  while (!running.empty()) reap();
}

void Runner::run() {
  const auto t0 = Clock::now();
  const auto elapsed = [&] { return Seconds(Clock::now() - t0).count(); };
  const int sides = opt_.peer.empty() ? 1 : 2;
  const auto selected = [&](std::size_t w) {
    return std::find(opt_.workloads.begin(), opt_.workloads.end(), w) !=
           opt_.workloads.end();
  };

  // A twin outside the selected set still provides the reference its
  // workload must reproduce.
  for (std::size_t w : opt_.workloads) {
    if (workloads()[w].twin == nullptr) continue;
    const auto twin = static_cast<std::size_t>(
        find_workload(workloads()[w].twin) - workloads().data());
    if (selected(twin)) continue;
    for (int side = 0; side < sides; ++side)
      execute({{twin, Mode::kUntraced, side, 0, /*timed=*/false}});
  }

  std::vector<Mode> modes = {Mode::kUntraced};
  if (opt_.trace == 1) modes = {Mode::kUntraced, Mode::kSpans, Mode::kEvents};
  // Section 8 of the choosing-metrics guide: at least ten A/B pairs.
  const unsigned min_rounds = sides == 2 ? 10 : 1;
  const std::size_t n = opt_.workloads.size();
  double round_s = 0.0;  // how long the last round took
  for (unsigned round = 0;; ++round) {
    // A time box starts no round it expects to end past the deadline.
    const double start = elapsed();
    const bool more = opt_.seconds > 0.0
                          ? round < min_rounds || start + round_s <= opt_.seconds
                          : round < opt_.rounds;
    if (!more) break;
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t w = opt_.workloads[(i + round) % n];
      for (std::size_t m = 0; m < modes.size(); ++m) {
        const Mode mode = modes[(m + round) % modes.size()];
        const int first = static_cast<int>((round + i) % sides);
        for (int s = 0; s < sides; ++s)
          jobs.push_back({w, mode, (first + s) % sides, round, true});
      }
    }
    execute(jobs);
    rounds_done_ = round + 1;
    round_s = elapsed() - start;
  }
  if (opt_.trace == -1) {
    std::vector<Job> jobs;
    for (std::size_t w : opt_.workloads)
      for (Mode mode : {Mode::kSpans, Mode::kEvents})
        jobs.push_back({w, mode, 0, rounds_done_, true});
    execute(jobs);
  }
  elapsed_s_ = elapsed();
}

std::vector<const Record*> Runner::select(std::size_t w, Mode mode,
                                          int side) const {
  std::vector<const Record*> out;
  for (const Record& r : records_)
    if (r.workload == w && r.mode == mode && r.side == side && r.timed &&
        r.failure.empty())
      out.push_back(&r);
  return out;
}

std::vector<double> Runner::series(std::size_t w, Mode mode,
                                   const std::string& key, double scale) const {
  std::vector<double> xs;
  for (const Record* r : select(w, mode, 0)) {
    const double v = r->get(key);
    if (!std::isnan(v)) xs.push_back(v * scale);
  }
  return xs;
}

double e2e_sample(const Record& r, std::size_t metric) {
  switch (metric) {
    case kHostNsPerRef: return r.get("run_ns") / r.get("refs");
    case kSetupS: return r.get("setup_ns") / 1e9;
    case kPeakRssMb: return r.rss_kb / 1024.0;
    default: return r.get("makespan");
  }
}

Report Runner::report(std::size_t w) const {
  Report rep;
  for (const Record& r : records_) {
    if (r.workload != w) continue;
    ++rep.attempted;
    rep.failed += r.failure.empty() ? 0 : 1;
  }
  const auto untraced = select(w, Mode::kUntraced, 0);
  for (std::size_t m = 0; m < std::size(kEndToEnd); ++m) {
    std::vector<double> xs;
    for (const Record* r : untraced) xs.push_back(e2e_sample(*r, m));
    rep.end_to_end[kEndToEnd[m].name] = stat_of(xs);
  }

  // Every value a sample reports under a metric's name: counters from the
  // untraced samples, hook spans from the spans samples, event statistics
  // from the events samples.
  std::map<std::string, Stat>& out = rep.per_layer;
  for (const MetricDef& m : kPerLayer) {
    out[m.name] = Stat{};  // stays empty when every sample of its kind failed
    for (Mode mode : {Mode::kUntraced, Mode::kSpans, Mode::kEvents}) {
      const auto xs = series(w, mode, m.name);
      if (!xs.empty()) {
        out[m.name] = stat_of(xs);
        break;
      }
    }
  }
  out["workloads.build_ms"] =
      stat_of(series(w, Mode::kUntraced, "workload_build_ns", 1e-6));
  out["core.build_ms"] = stat_of(series(w, Mode::kUntraced, "core_build_ns", 1e-6));
  out["sim.trace.export_ms"] =
      stat_of(series(w, Mode::kEvents, "trace_export_ns", 1e-6));
  std::vector<double> drain;
  for (const Record* r : untraced)
    drain.push_back(r->get("drain_ns") / r->get("drain_refs"));
  out["workloads.drain_ns_per_ref"] = stat_of(drain);

  // Shares of the untraced run: the spans and events samples time the same
  // work with probes attached, so they only contribute their differences.
  const auto med = [&](Mode mode, const std::string& key) {
    return median(series(w, mode, key));
  };
  const auto derived = [&](double value, Mode mode) {
    Stat s;
    s.value = value;
    s.n = select(w, mode, 0).size();
    return s;
  };
  const double run_ns = med(Mode::kUntraced, "run_ns");
  double policy_ns = 0.0;  // the policy.<hook>.self_ns metrics
  for (const MetricDef& m : kPerLayer)
    if (std::string_view(m.name).ends_with(".self_ns"))
      policy_ns += med(Mode::kSpans, m.name);
  out["policy.self_pct"] = derived(policy_ns / run_ns * 100.0, Mode::kSpans);
  out["core.residual_ns_per_ref"] =
      derived((run_ns - policy_ns - med(Mode::kUntraced, "drain_ns")) /
                  med(Mode::kUntraced, "refs"),
              Mode::kSpans);
  out["bench.instrument_overhead_pct"] = derived(
      (med(Mode::kSpans, "run_ns") / run_ns - 1.0) * 100.0, Mode::kSpans);
  out["sim.trace.emit_overhead_pct"] = derived(
      (med(Mode::kEvents, "run_ns") / run_ns - 1.0) * 100.0, Mode::kEvents);

  // Statistics whose names depend on the policy: JSON report only.
  if (!untraced.empty())
    for (const auto& [name, value] : untraced.front()->values)
      if (name.rfind("policy.stat.", 0) == 0) out[name] = stat_of({value});
  return rep;
}

/// Pairwise A/B per end-to-end metric (choosing-metrics guide, section 8):
/// "better" needs this build to win at least 9 of 10 pairs and the medians
/// to differ by more than the peer's own quartile spread; "worse" is the
/// mirror image; "same" means every pair tied; anything else is unresolved.
Json Runner::peer_report(std::string* text) const {
  *text = "\nA/B: this build vs the peer, pairs of one round (lower is better)\n";
  Json all;
  for (std::size_t w : opt_.workloads) {
    const auto mine = select(w, Mode::kUntraced, 0);
    const auto theirs = select(w, Mode::kUntraced, 1);
    Json per_metric;
    for (std::size_t m = 0; m < std::size(kEndToEnd); ++m) {
      std::vector<double> a, b;
      unsigned wins = 0, losses = 0, pairs = 0;
      for (const Record* x : mine) a.push_back(e2e_sample(*x, m));
      for (const Record* y : theirs) b.push_back(e2e_sample(*y, m));
      for (const Record* x : mine) {
        for (const Record* y : theirs) {
          if (y->round != x->round) continue;
          const double va = e2e_sample(*x, m), vb = e2e_sample(*y, m);
          ++pairs;
          wins += va < vb ? 1 : 0;
          losses += va > vb ? 1 : 0;
        }
      }
      const Stat sa = stat_of(a), sb = stat_of(b);
      const double spread = sb.q3 - sb.q1;
      const double gain = sb.value - sa.value;  // > 0: this build is lower
      const double win_share = pairs ? double(wins) / pairs : 0.0;
      const double loss_share = pairs ? double(losses) / pairs : 0.0;
      const char* verdict = "unresolved";
      if (pairs > 0 && wins == 0 && losses == 0)
        verdict = "same";
      else if (win_share >= 0.9 && gain > spread)
        verdict = "better";
      else if (loss_share >= 0.9 && -gain > spread)
        verdict = "worse";
      const bool within = sa.value <= sb.value * (1.0 + kEndToEnd[m].bound);
      char line[512];
      std::snprintf(line, sizeof line,
                    "  %-20s %-20s %12.6g [%.6g, %.6g]  peer %12.6g [%.6g, "
                    "%.6g]  wins %u/%u  %s%s\n",
                    workloads()[w].name, kEndToEnd[m].name, sa.value, sa.q1,
                    sa.q3, sb.value, sb.q1, sb.q3, wins, pairs, verdict,
                    within ? "" : " (beyond bound)");
      *text += line;
      Json j;
      j.num("median", sa.value).num("q1", sa.q1).num("q3", sa.q3);
      j.num("peer_median", sb.value).num("peer_q1", sb.q1).num("peer_q3", sb.q3);
      j.num("pairs", pairs).num("win_share", win_share).str("verdict", verdict);
      j.raw("within_bound", within ? "true" : "false");
      per_metric.obj(kEndToEnd[m].name, j);
    }
    all.obj(workloads()[w].name, per_metric);
  }
  return all;
}

std::string Runner::json_document(const std::vector<Report>& reports,
                                  const Json& peer) const {
  Json doc;
  doc.obj("provenance", json_pairs(provenance()));
  doc.obj("settings", json_pairs({{"seed", std::to_string(opt_.seed)},
                                  {"rounds", std::to_string(rounds_done_)},
                                  {"seconds", fmt(opt_.seconds)},
                                  {"trace", std::to_string(opt_.trace)},
                                  {"smoke", opt_.smoke ? "true" : "false"},
                                  {"peer", opt_.peer},
                                  {"elapsed_s", fmt(elapsed_s_)}}));
  if (!opt_.peer.empty()) {
    Pairs pairs;
    std::istringstream in(shell_output("'" + opt_.peer + "' provenance"));
    std::string line;
    while (std::getline(in, line)) {
      const auto tab = line.find('\t');
      if (tab != std::string::npos)
        pairs.emplace_back(line.substr(0, tab), line.substr(tab + 1));
    }
    doc.obj("peer_provenance", json_pairs(pairs));
    doc.obj("peer", peer);
  }

  std::vector<std::string> failures;
  for (const Record& r : records_)
    if (!r.failure.empty())
      failures.push_back(quote(std::string(workloads()[r.workload].name) + ' ' +
                               std::string(to_string(r.mode)) + ": " +
                               r.failure));
  Json checks;
  checks.num("attempted", static_cast<double>(records_.size()))
      .num("failed", static_cast<double>(failures.size()))
      .raw("failures", json_array(failures));
  doc.obj("checks", checks);

  Json per_workload;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Report& rep = reports[i];
    Json e2e, layers;
    for (const MetricDef& def : kEndToEnd)
      e2e.obj(def.name, json_stat(rep.end_to_end.at(def.name), def));
    for (const auto& [metric, s] : rep.per_layer) {
      MetricDef def{metric.c_str(), "count", "lower"};
      for (const MetricDef& d : kPerLayer)
        if (metric == d.name) def = d;
      layers.obj(metric, json_stat(s, def));
    }
    Json w;
    w.num("failed_share",
          static_cast<double>(rep.failed) / static_cast<double>(rep.attempted));
    w.obj("end_to_end", e2e).obj("per_layer", layers);
    per_workload.obj(workloads()[opt_.workloads[i]].name, w);
  }
  doc.obj("workloads", per_workload);

  std::vector<std::string> samples;
  for (const Record& r : records_) {
    Json s;
    s.str("workload", workloads()[r.workload].name)
        .str("mode", to_string(r.mode))
        .num("side", r.side)
        .num("round", r.round)
        .raw("timed", r.timed ? "true" : "false")
        .num("rss_kb", r.rss_kb)
        .str("failure", r.failure);
    for (const auto& [k, v] : r.values) s.num(k, v);
    samples.push_back(s.text());
  }
  doc.raw("samples", json_array(samples));
  return doc.text() + '\n';
}

int Runner::finish() const {
  std::vector<Report> reports;
  for (std::size_t w : opt_.workloads) reports.push_back(report(w));
  std::size_t failed = 0;
  for (const Record& r : records_) failed += r.failure.empty() ? 0 : 1;

  // The closing line carries one metric set: end-to-end (--trace 0),
  // per-layer (--trace 1) or both; names are prefixed by the workload when
  // several ran.
  const bool prefixed = opt_.workloads.size() > 1;
  Json line_metrics;
  std::printf("%-20s %-34s %16s %-7s %-6s %12s %12s %4s\n", "workload",
              "metric", "value", "unit", "better", "q1", "q3", "n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Report& rep = reports[i];
    const std::string name = workloads()[opt_.workloads[i]].name;
    const auto emit = [&](const MetricDef& def, const Stat& s) {
      std::printf("%-20s %-34s %16.6g %-7s %-6s %12.6g %12.6g %4zu\n",
                  name.c_str(), def.name, s.value, def.unit, def.better, s.q1,
                  s.q3, s.n);
      Json m;
      m.num("value", s.value).str("unit", def.unit);
      line_metrics.obj(prefixed ? name + '.' + def.name : def.name, m);
    };
    if (opt_.trace != 1)
      for (const MetricDef& def : kEndToEnd) emit(def, rep.end_to_end.at(def.name));
    std::printf("%-20s %-34s %16.6g %-7s %-6s\n", name.c_str(), "failed_share",
                static_cast<double>(rep.failed) /
                    static_cast<double>(rep.attempted),
                "ratio", "lower");
    if (opt_.trace != 0)
      for (const MetricDef& def : kPerLayer) emit(def, rep.per_layer.at(def.name));
  }

  Json peer;
  if (!opt_.peer.empty()) {
    std::string text;
    peer = peer_report(&text);
    std::fputs(text.c_str(), stdout);
  }
  std::printf("\n%zu samples, %zu failed, %u rounds, %.1f s\n", records_.size(),
              failed, rounds_done_, elapsed_s_);

  if (!opt_.json_path.empty()) {
    std::ofstream out(opt_.json_path, std::ios::trunc);
    out << json_document(reports, peer);
    if (!out.good()) {
      std::fprintf(stderr, "cmcp_bench: cannot write %s\n",
                   opt_.json_path.c_str());
      return 2;
    }
  }

  Json line;
  line.raw("correct", failed == 0 ? "true" : "false")
      .num("attempted", static_cast<double>(records_.size()))
      .num("failed", static_cast<double>(failed))
      .obj("metrics", line_metrics);
  std::printf("%s\n", line.text().c_str());
  return failed == 0 ? 0 : 1;
}

// --- command line -----------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cmcp_bench: %s\n"
               "usage: cmcp_bench run [--workload NAME[,NAME...]] [--seed N]\n"
               "                      [--rounds N | --seconds S] [--trace 0|1]\n"
               "                      [--smoke] [--peer BINARY] [--json FILE]\n"
               "       cmcp_bench sample --workload NAME --seed N "
               "--mode untraced|spans|events\n"
               "       cmcp_bench provenance\n"
               "workloads:",
               why);
  for (const WorkloadDef& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string self_path() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string();
}

int main_impl(int argc, char** argv) {
  // The library must be a pure function of the configuration built here,
  // so its environment hooks are cleared for every sample.
  unsetenv("CMCP_CHAOS_FAULTS");
  unsetenv("CMCP_SIM_THREADS");

  if (argc < 2) usage("missing command");
  const std::string_view command = argv[1];
  if (command == "provenance") {
    for (const auto& [k, v] : provenance())
      std::printf("%s\t%s\n", k.c_str(), v.c_str());
    return 0;
  }
  if (command != "run" && command != "sample") usage("unknown command");
  if (!build_is_benchmarkable()) return 2;

  Options opt;
  std::optional<Mode> mode;
  bool rounds_given = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("flag without a value");
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      for (std::size_t start = 0; start <= value.size();) {
        const std::size_t end = std::min(value.find(',', start), value.size());
        const WorkloadDef* w = find_workload(value.substr(start, end - start));
        if (w == nullptr) usage("unknown workload");
        opt.workloads.push_back(static_cast<std::size_t>(w - workloads().data()));
        start = end + 1;
      }
    } else if (flag == "--seed") {
      if (!parse_number(value, &opt.seed)) usage("--seed needs an integer");
    } else if (flag == "--rounds") {
      if (!parse_number(value, &opt.rounds) || opt.rounds == 0)
        usage("--rounds needs a positive integer");
      rounds_given = true;
    } else if (flag == "--seconds") {
      if (!parse_number(value, &opt.seconds) || !(opt.seconds > 0.0) ||
          !std::isfinite(opt.seconds))
        usage("--seconds needs a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1" ? 1 : 0;
    } else if (flag == "--peer") {
      opt.peer = std::string(value);
    } else if (flag == "--json") {
      opt.json_path = std::string(value);
    } else if (flag == "--mode") {
      Mode m{};
      if (!parse_mode(value, &m)) usage("unknown --mode");
      mode = m;
    } else {
      usage("unknown flag");
    }
  }

  if (command == "sample") {
    if (opt.workloads.size() != 1 || !mode)
      usage("sample needs one --workload and a --mode");
    return cmd_sample(workloads()[opt.workloads[0]], opt.seed, *mode);
  }

  if (opt.workloads.empty())
    for (std::size_t w = 0; w < workloads().size(); ++w) opt.workloads.push_back(w);
  if (opt.smoke) {
    if (!opt.peer.empty()) usage("--smoke and --peer do not combine");
    opt.rounds = 1;
    opt.seconds = 0.0;
    opt.trace = -1;
  }
  if (!opt.peer.empty()) {
    if (opt.trace == 1) usage("--peer compares untraced samples only");
    if (rounds_given && opt.rounds < 10) usage("--peer needs at least 10 rounds");
    opt.trace = 0;
  }
  const std::string self = self_path();
  if (self.empty()) {
    std::fprintf(stderr, "cmcp_bench: cannot locate its own binary\n");
    return 2;
  }
  Runner runner(opt, self);
  runner.run();
  return runner.finish();
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) { return bench::main_impl(argc, argv); }
