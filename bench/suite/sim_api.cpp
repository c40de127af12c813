// Adapter between cmcp_bench's runner (main.cpp) and the cmcp library:
// builds each workload from the seed, runs one simulation, and measures it
// from the outside. The per-layer spans are recorded here, around the library's
// public virtual interfaces (policy::ReplacementPolicy, wl::Workload,
// wl::AccessStream); nothing inside src/ is instrumented.
#include "sim_api.h"

#include <algorithm>
#include <array>
#include <chrono>  // cmcp-lint: allow(wallclock-time) — host time is measured here
#include <cmath>
#include <memory>
#include <ostream>
#include <streambuf>

#include "core/multi_tenant.h"
#include "core/simulation.h"
#include "metrics/experiment.h"
#include "metrics/tenant_report.h"
#include "policy/policy_factory.h"
#include "sim/trace.h"
#include "workloads/multi_tenant.h"
#include "workloads/workload_factory.h"

namespace bench {
namespace {

using namespace cmcp;
// The host clock: only host-time measurements read it, never the simulation.
using Clock = std::chrono::steady_clock;  // cmcp-lint: allow(wallclock-time)

double ns_between(Clock::time_point a, Clock::time_point b) {
  using Ns = std::chrono::duration<double, std::nano>;  // cmcp-lint: allow(wallclock-time)
  return Ns(b - a).count();
}

// --- workload table ---------------------------------------------------------

constexpr CoreId kCores = 56;

struct Shape {
  wl::PaperWorkload workload;
  PageTableKind pt;
  PolicyKind policy;
  double memory_fraction;
  /// 0 = one workload on all kCores; else alternating cg/bt tenants that
  /// split the cores evenly under proportional-share partitioning.
  unsigned tenants;
};

// Why each workload is here is documented in README.md; the makespans are
// BENCH_10.json's fig6_bt_sharing, fig7_bt_cmcp, fig7_bt_lru and
// mt4_cg_bt_prop rows, the reference counts those of the standalone drain.
constexpr std::array<WorkloadDef, 6> kDefs = {{
    {"bt56_cmcp_local", 1, nullptr, 612'154'344, 702'102},
    {"bt56_cmcp_local_t4", 4, "bt56_cmcp_local", 612'154'344, 702'102},
    {"bt56_cmcp_evict", 1, nullptr, 816'018'198, 702'102},
    {"bt56_lru_scan", 1, nullptr, 1'148'087'952, 702'102},
    {"cg56_fifo_regular", 1, nullptr, 0, 324'390},
    {"mt4_cg_bt_prop", 1, nullptr, 2'647'468'295, 2'021'830},
}};

constexpr std::array<Shape, 6> kShapes = {{
    {wl::PaperWorkload::kBt, PageTableKind::kPspt, PolicyKind::kCmcp, 1.0, 0},
    {wl::PaperWorkload::kBt, PageTableKind::kPspt, PolicyKind::kCmcp, 1.0, 0},
    {wl::PaperWorkload::kBt, PageTableKind::kPspt, PolicyKind::kCmcp, 0.64, 0},
    {wl::PaperWorkload::kBt, PageTableKind::kPspt, PolicyKind::kLru, 0.64, 0},
    {wl::PaperWorkload::kCg, PageTableKind::kRegular, PolicyKind::kFifo, 0.37, 0},
    {wl::PaperWorkload::kCg, PageTableKind::kPspt, PolicyKind::kCmcp, 0.5, 4},
}};

const Shape& shape_of(const WorkloadDef& def) {
  return kShapes[static_cast<std::size_t>(&def - kDefs.data())];
}

policy::PolicyParams policy_for(PolicyKind kind, wl::PaperWorkload workload) {
  policy::PolicyParams params;
  params.kind = kind;
  params.cmcp.p = wl::paper_best_p(workload);
  return params;
}

// --- spans around the policy and the workload streams -----------------------

enum Hook : unsigned {
  kOnInsert,
  kOnEvict,
  kPickVictim,
  kOnCoreMapGrow,
  kOnScan,
  kOnTick,
  kNumHooks
};
constexpr std::array<const char*, kNumHooks> kHookNames = {
    "on_insert", "on_evict", "pick_victim", "on_core_map_grow", "on_scan",
    "on_tick"};

/// A span costs more than most policy hooks, so only every kSampleEvery-th
/// call of a hook is timed (deterministically: the 1st, 9th, 17th, ...).
constexpr std::uint64_t kSampleEvery = 8;

struct HookTally {
  std::uint64_t calls = 0;
  std::uint64_t timed = 0;
  double timed_ns = 0.0;
};
using PolicyTally = std::array<HookTally, kNumHooks>;

class HookSpan {
 public:
  explicit HookSpan(HookTally& tally)
      : tally_(tally), timed_(tally.calls++ % kSampleEvery == 0) {
    if (timed_) start_ = Clock::now();
  }
  ~HookSpan() {
    if (!timed_) return;
    tally_.timed_ns += ns_between(start_, Clock::now());
    ++tally_.timed;
  }
  HookSpan(const HookSpan&) = delete;
  HookSpan& operator=(const HookSpan&) = delete;

 private:
  HookTally& tally_;
  const bool timed_;
  Clock::time_point start_{};
};

/// Forwards every call to the policy the library would have built, timing
/// the hooks. Policy hooks run on the engine thread only, so the tally needs
/// no synchronization even under the parallel engine.
class SpannedPolicy final : public policy::ReplacementPolicy {
 public:
  SpannedPolicy(std::unique_ptr<policy::ReplacementPolicy> inner,
                PolicyTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  std::string_view name() const override { return inner_->name(); }
  void on_insert(mm::ResidentPage& page) override {
    HookSpan span(tally_[kOnInsert]);
    inner_->on_insert(page);
  }
  void on_core_map_grow(mm::ResidentPage& page) override {
    HookSpan span(tally_[kOnCoreMapGrow]);
    inner_->on_core_map_grow(page);
  }
  mm::ResidentPage* pick_victim(CoreId core, Cycles& extra) override {
    HookSpan span(tally_[kPickVictim]);
    return inner_->pick_victim(core, extra);
  }
  void on_evict(mm::ResidentPage& page) override {
    HookSpan span(tally_[kOnEvict]);
    inner_->on_evict(page);
  }
  void on_scan(mm::ResidentPage& page, bool referenced) override {
    HookSpan span(tally_[kOnScan]);
    inner_->on_scan(page, referenced);
  }
  void on_tick(Cycles now) override {
    HookSpan span(tally_[kOnTick]);
    inner_->on_tick(now);
  }
  bool wants_scanner() const override { return inner_->wants_scanner(); }
  bool parallel_local_safe() const override {
    return inner_->parallel_local_safe();
  }
  void stats(const policy::StatVisitor& visit) const override {
    inner_->stats(visit);
  }
  std::int64_t tracked_pages() const override { return inner_->tracked_pages(); }

 private:
  std::unique_ptr<policy::ReplacementPolicy> inner_;
  PolicyTally& tally_;
};

/// Per-stream counts; one heap object per stream because the parallel engine
/// pulls different cores' streams on different threads.
struct alignas(64) StreamTally {
  std::uint64_t refs = 0;
};

/// Counts the references the engine pulls from a stream. Calls are not
/// timed: a span per op costs ~100x the op, so the workload layer is timed
/// by draining its streams standalone instead (drain()).
class CountingStream final : public wl::AccessStream {
 public:
  CountingStream(std::unique_ptr<wl::AccessStream> inner, StreamTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  wl::Op next() override {
    const wl::Op op = inner_->next();
    if (op.kind == wl::OpKind::kAccess)
      tally_.refs += std::uint64_t{op.count} * op.repeat;
    return op;
  }

 private:
  std::unique_ptr<wl::AccessStream> inner_;
  StreamTally& tally_;
};

/// State shared by the tenants of one run: when the engine asked for its
/// first stream (the end of set-up), and the stream tallies in spans mode.
struct RunMarks {
  bool started = false;
  Clock::time_point first_stream{};
  bool count_streams = false;
  std::vector<std::unique_ptr<StreamTally>> streams;
};

/// Presents a generated workload to the simulator unchanged, stamping the
/// first make_stream call and, in spans mode, counting each stream.
class MarkedWorkload final : public wl::Workload {
 public:
  MarkedWorkload(const wl::Workload& inner, RunMarks& marks)
      : inner_(inner), marks_(marks) {}

  std::string_view name() const override { return inner_.name(); }
  CoreId num_cores() const override { return inner_.num_cores(); }
  std::uint64_t footprint_base_pages() const override {
    return inner_.footprint_base_pages();
  }
  std::unique_ptr<wl::AccessStream> make_stream(CoreId core) const override {
    if (!marks_.started) {
      marks_.started = true;
      marks_.first_stream = Clock::now();
    }
    auto stream = inner_.make_stream(core);
    if (!marks_.count_streams) return stream;
    marks_.streams.push_back(std::make_unique<StreamTally>());
    return std::make_unique<CountingStream>(std::move(stream),
                                            *marks_.streams.back());
  }

 private:
  const wl::Workload& inner_;
  RunMarks& marks_;
};

/// Cost of one span seen from outside (`total_ns`) and the duration an empty
/// span reports (`empty_ns`), calibrated in the sample that uses them.
struct SpanCost {
  double total_ns = 0.0;
  double empty_ns = 0.0;
};

SpanCost calibrate_spans() {
  constexpr std::size_t kSpans = 20000;
  std::vector<double> empty(kSpans);
  const auto t0 = Clock::now();
  for (double& d : empty) {
    const auto a = Clock::now();
    d = ns_between(a, Clock::now());
  }
  const auto t1 = Clock::now();
  std::nth_element(empty.begin(), empty.begin() + kSpans / 2, empty.end());
  return {ns_between(t0, t1) / kSpans, empty[kSpans / 2]};
}

// --- simulated outcome ------------------------------------------------------

struct Outcome {
  Clock::time_point run_end{};
  Cycles makespan = 0;
  metrics::CoreCounters app;
  metrics::CoreCounters scanner;
  std::uint64_t scans = 0;
  double jain = 1.0;
  /// Policy statistics by name, summed over tenants.
  std::vector<std::pair<std::string, std::uint64_t>> policy_stats;
  sim::trace::Summary summary;
};

void add_policy_stats(
    const std::vector<std::pair<std::string, std::uint64_t>>& stats,
    Outcome& out) {
  for (const auto& [name, value] : stats) {
    auto it = std::find_if(out.policy_stats.begin(), out.policy_stats.end(),
                           [&](const auto& s) { return s.first == name; });
    if (it == out.policy_stats.end())
      out.policy_stats.emplace_back(name, value);
    else
      it->second += value;
  }
}

/// What the mode attaches to a run.
struct Probes {
  RunMarks marks;
  PolicyTally policy{};
  sim::trace::EventSink* sink = nullptr;
  bool spans = false;
};

core::PolicyFactory spanned_factory(const policy::PolicyParams& params,
                                    PolicyTally& tally) {
  return [params, &tally](policy::PolicyHost& host) {
    return std::make_unique<SpannedPolicy>(policy::make_policy(host, params),
                                           tally);
  };
}

Outcome run_single(const Shape& shape, unsigned threads,
                   const wl::Workload& workload, Probes& probes) {
  core::SimulationConfig config;
  config.machine.num_cores = kCores;
  config.pt_kind = shape.pt;
  config.policy = policy_for(shape.policy, shape.workload);
  config.memory_fraction = shape.memory_fraction;
  config.threads = threads;
  config.simcheck = false;
  config.trace = probes.sink;
  if (probes.spans)
    config.custom_policy = spanned_factory(config.policy, probes.policy);

  const MarkedWorkload marked(workload, probes.marks);
  core::Simulation sim(config, marked);
  const core::SimulationResult result = sim.run();
  Outcome out;
  out.run_end = Clock::now();
  out.makespan = result.makespan;
  out.app = result.app_total;
  out.scanner = result.scanner;
  out.scans = result.scans;
  add_policy_stats(result.policy_stats, out);
  out.summary = metrics::result_summary(result);
  return out;
}

Outcome run_multi(const Shape& shape,
                  const std::vector<std::unique_ptr<wl::Workload>>& tenants,
                  Probes& probes) {
  wl::MultiTenantSpec spec;
  std::vector<core::TenantRunConfig> configs(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    spec.add(std::make_unique<MarkedWorkload>(*tenants[t], probes.marks));
    const wl::PaperWorkload w =
        t % 2 == 0 ? wl::PaperWorkload::kCg : wl::PaperWorkload::kBt;
    configs[t].pt_kind = shape.pt;
    configs[t].policy = policy_for(shape.policy, w);
    if (probes.spans)
      configs[t].custom_policy = spanned_factory(configs[t].policy, probes.policy);
  }
  core::MultiTenantConfig config;
  config.partition = mm::PartitionKind::kProportionalShare;
  config.memory_fraction = shape.memory_fraction;
  config.simcheck = false;
  config.trace = probes.sink;

  const core::MultiTenantResult result =
      core::run_multi_tenant(config, spec, configs);
  Outcome out;
  out.run_end = Clock::now();
  out.makespan = result.makespan;
  out.summary.emplace_back("makespan", result.makespan);
  std::vector<double> progress;
  for (std::size_t t = 0; t < result.tenants.size(); ++t) {
    const core::TenantResult& tr = result.tenants[t];
    out.app += tr.total;
    out.scanner += tr.scanner;
    out.scans += tr.scans;
    add_policy_stats(tr.policy_stats, out);
    progress.push_back(tr.makespan > 0
                           ? static_cast<double>(tr.total.accesses) * 1e3 /
                                 static_cast<double>(tr.makespan)
                           : 0.0);
    std::string p = "t";
    p += std::to_string(t);
    p += '.';
    out.summary.emplace_back(p + "makespan", tr.makespan);
    out.summary.emplace_back(p + "accesses", tr.total.accesses);
    out.summary.emplace_back(p + "major_faults", tr.total.major_faults);
    out.summary.emplace_back(p + "minor_faults", tr.total.minor_faults);
    out.summary.emplace_back(p + "remote_invals",
                             tr.total.remote_invalidations_received);
    out.summary.emplace_back(p + "evictions", tr.total.evictions);
    out.summary.emplace_back(p + "pcie_bytes_in", tr.total.pcie_bytes_in);
    out.summary.emplace_back(p + "pcie_bytes_out", tr.total.pcie_bytes_out);
    out.summary.emplace_back(p + "resident_units_end", tr.resident_units_end);
    for (const auto& [name, value] : tr.policy_stats)
      out.summary.emplace_back(p + "policy." + name, value);
  }
  for (std::size_t i = 0; i < result.interference.size(); ++i)
    out.summary.emplace_back("interference." + std::to_string(i),
                             result.interference[i]);
  out.jain = metrics::jain_fairness(progress);
  return out;
}

// --- derived numbers --------------------------------------------------------

/// References the workload layer emits, pulled standalone from fresh
/// streams: its whole host cost without the simulator around it.
struct Drain {
  std::uint64_t refs = 0;
  double ns = 0.0;
};

Drain drain(const std::vector<std::unique_ptr<wl::Workload>>& workloads) {
  Drain d;
  const auto t0 = Clock::now();
  for (const auto& w : workloads) {
    for (CoreId c = 0; c < w->num_cores(); ++c) {
      const auto stream = w->make_stream(c);
      for (wl::Op op = stream->next(); op.kind != wl::OpKind::kEnd;
           op = stream->next()) {
        if (op.kind == wl::OpKind::kAccess)
          d.refs += std::uint64_t{op.count} * op.repeat;
      }
    }
  }
  d.ns = ns_between(t0, Clock::now());
  return d;
}

/// Nearest-rank percentile of integer cycle counts (exact, repeatable).
double percentile(std::vector<std::uint64_t>& xs, double p) {
  if (xs.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(xs.size())));
  const std::size_t i = std::clamp<std::size_t>(rank, 1, xs.size()) - 1;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(i),
                   xs.end());
  return static_cast<double>(xs[i]);
}

/// Discards what it is given, counting the bytes.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes = 0;

 protected:
  int_type overflow(int_type c) override {
    ++bytes;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    return n;
  }
};

using Values = std::vector<std::pair<std::string, double>>;

void add_event_values(const sim::trace::EventSink& sink,
                      const sim::trace::Summary& summary, Values& v) {
  using sim::trace::EventKind;
  std::vector<std::uint64_t> service, slot_wait, queue_wait;
  std::uint64_t pages_cleared = 0;
  for (const sim::trace::Event& e : sink.events()) {
    switch (e.kind) {
      case EventKind::kMajorFault: service.push_back(e.duration); break;
      case EventKind::kShootdown: slot_wait.push_back(e.c); break;
      case EventKind::kPcieTransfer: queue_wait.push_back(e.c); break;
      case EventKind::kScanPass: pages_cleared += e.b; break;
      default: break;
    }
  }
  v.emplace_back("sim.trace.events", static_cast<double>(sink.size()));
  v.emplace_back("core.fault.service_cycles.p50", percentile(service, 0.50));
  v.emplace_back("core.fault.service_cycles.p99", percentile(service, 0.99));
  v.emplace_back("sim.machine.slot_wait_cycles.p50", percentile(slot_wait, 0.50));
  v.emplace_back("sim.machine.slot_wait_cycles.p99", percentile(slot_wait, 0.99));
  v.emplace_back("sim.pcie.queue_wait_cycles.p50", percentile(queue_wait, 0.50));
  v.emplace_back("sim.pcie.queue_wait_cycles.p99", percentile(queue_wait, 0.99));
  v.emplace_back("core.scanner.pages_cleared", static_cast<double>(pages_cleared));

  CountingBuf buf;
  std::ostream os(&buf);
  const auto t0 = Clock::now();
  sim::trace::export_jsonl(sink, {}, summary, os);
  v.emplace_back("trace_export_ns", ns_between(t0, Clock::now()));
  v.emplace_back("trace_export_bytes", static_cast<double>(buf.bytes));
}

void add_counter_values(const Outcome& out, Values& v) {
  const metrics::CoreCounters& a = out.app;
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  v.emplace_back("makespan", d(out.makespan));
  v.emplace_back("sim.tlb.misses_per_kref",
                 a.accesses > 0 ? d(a.dtlb_misses) * 1e3 / d(a.accesses) : 0.0);
  v.emplace_back("mm.pt.minor_faults", d(a.minor_faults));
  v.emplace_back("core.fault.major", d(a.major_faults));
  v.emplace_back("policy.evictions", d(a.evictions + out.scanner.evictions));
  v.emplace_back("sim.machine.shootdowns",
                 d(a.shootdowns_initiated + out.scanner.shootdowns_initiated));
  v.emplace_back("sim.machine.remote_invals", d(a.remote_invalidations_received));
  v.emplace_back("sim.machine.ipis", d(a.ipis_received));
  v.emplace_back("sim.pcie.bytes_in", d(a.pcie_bytes_in));
  v.emplace_back("sim.pcie.bytes_out", d(a.pcie_bytes_out));
  v.emplace_back("core.scanner.passes", d(out.scans));
  v.emplace_back("mm.partition.jain", out.jain);
  for (const auto& [name, value] : out.policy_stats)
    v.emplace_back("policy.stat." + name, d(value));

  const std::array<std::pair<const char*, Cycles>, 11> buckets = {{
      {"compute", a.cycles_compute},
      {"mem", a.cycles_mem},
      {"fault", a.cycles_fault},
      {"pcie_wait", a.cycles_pcie_wait},
      {"shootdown", a.cycles_shootdown},
      {"interrupt", a.cycles_interrupt},
      {"lock_wait", a.cycles_lock_wait},
      {"barrier", a.cycles_barrier},
      {"syscall", a.cycles_syscall},
      {"recovery", a.cycles_recovery},
      {"straggler", a.cycles_straggler},
  }};
  double total = 0.0;
  for (const auto& b : buckets) total += d(b.second);
  for (const auto& [name, cycles] : buckets)
    v.emplace_back(std::string("sim.cycles.") + name + "_pct",
                   total > 0.0 ? d(cycles) * 100.0 / total : 0.0);
}

}  // namespace

std::span<const WorkloadDef> workloads() { return kDefs; }

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& w : kDefs)
    if (name == w.name) return &w;
  return nullptr;
}

std::string_view to_string(Mode mode) {
  switch (mode) {
    case Mode::kUntraced: return "untraced";
    case Mode::kSpans: return "spans";
    case Mode::kEvents: return "events";
  }
  return "?";
}

bool parse_mode(std::string_view text, Mode* out) {
  for (Mode m : {Mode::kUntraced, Mode::kSpans, Mode::kEvents}) {
    if (text == to_string(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

bool simcheck_compiled_in() { return CMCP_SIMCHECK_ENABLED != 0; }

Sample run_sample(const WorkloadDef& def, std::uint64_t seed, Mode mode) {
  const Shape& shape = shape_of(def);
  Sample sample;
  Values& v = sample.values;
  const SpanCost span_cost =
      mode == Mode::kSpans ? calibrate_spans() : SpanCost{};

  Probes probes;
  probes.spans = mode == Mode::kSpans;
  probes.marks.count_streams = probes.spans;
  sim::trace::EventSink sink;
  if (mode == Mode::kEvents) probes.sink = &sink;

  const auto t0 = Clock::now();
  std::vector<std::unique_ptr<wl::Workload>> generated;
  wl::WorkloadParams base;
  base.seed = seed;
  if (shape.tenants == 0) {
    base.cores = kCores;
    generated.push_back(wl::make_paper_workload(shape.workload, base));
  } else {
    base.cores = kCores / shape.tenants;
    for (unsigned t = 0; t < shape.tenants; ++t)
      generated.push_back(wl::make_paper_workload(
          t % 2 == 0 ? wl::PaperWorkload::kCg : wl::PaperWorkload::kBt, base));
  }
  const auto t_generated = Clock::now();
  const Outcome out = shape.tenants == 0
                          ? run_single(shape, def.threads, *generated[0], probes)
                          : run_multi(shape, generated, probes);
  const auto t_run = probes.marks.first_stream;

  v.emplace_back("setup_ns", ns_between(t0, t_run));
  v.emplace_back("workload_build_ns", ns_between(t0, t_generated));
  v.emplace_back("core_build_ns", ns_between(t_generated, t_run));
  v.emplace_back("run_ns", ns_between(t_run, out.run_end));
  v.emplace_back("refs", static_cast<double>(out.app.accesses));
  const Drain d = drain(generated);
  v.emplace_back("drain_refs", static_cast<double>(d.refs));
  v.emplace_back("drain_ns", d.ns);
  add_counter_values(out, v);

  if (mode == Mode::kSpans) {
    v.emplace_back("bench.span_cost_ns", span_cost.total_ns);
    v.emplace_back("span_empty_ns", span_cost.empty_ns);
    for (unsigned h = 0; h < kNumHooks; ++h) {
      const HookTally& t = probes.policy[h];
      const std::string p = std::string("policy.") + kHookNames[h];
      // Each timed call reads empty_ns too long; scale the sample up to
      // every call of the hook.
      const double self =
          t.timed == 0 ? 0.0
                       : std::max(0.0, t.timed_ns - static_cast<double>(t.timed) *
                                                        span_cost.empty_ns) *
                             static_cast<double>(t.calls) /
                             static_cast<double>(t.timed);
      v.emplace_back(p + ".calls", static_cast<double>(t.calls));
      v.emplace_back(p + ".self_ns", self);
    }
    std::uint64_t refs = 0;
    for (const auto& s : probes.marks.streams) refs += s->refs;
    v.emplace_back("stream_refs", static_cast<double>(refs));
  }
  if (mode == Mode::kEvents) add_event_values(sink, out.summary, v);
  sample.summary = out.summary;
  return sample;
}

}  // namespace bench
