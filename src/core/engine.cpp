#include "core/engine.h"

#include <algorithm>
#include <array>

#include "common/assert.h"
#include "sim/trace.h"

namespace cmcp::core {

namespace {

// Heap keys pack (virtual time, core id) into one u64 so a single integer
// compare is the engine's event order: 11 low bits cover CoreMask::kMaxCores
// simulated cores; virtual times stay far below 2^53.
constexpr unsigned kCoreBits = 11;
constexpr std::uint64_t kCoreIdMask = (std::uint64_t{1} << kCoreBits) - 1;
constexpr std::uint64_t kMaxKey = ~std::uint64_t{0};

std::uint64_t pack(Cycles time, CoreId core) {
  return (time << kCoreBits) | core;
}

/// 4-ary min-heap over packed keys, one entry per runnable core. Unlike
/// the old lazy-push priority_queue there are no duplicate entries: a stale
/// root is corrected in place (replace_root), which only sifts down because
/// clocks are monotone. Four-way branching halves the sift depth of a
/// binary heap (3 levels instead of 6 at 56 cores) and the four children
/// of a node share one cache line; replace_root runs once per engine event,
/// so this is the engine loop's hottest data structure.
class EventHeap {
 public:
  void reserve(std::size_t n) { keys_.reserve(n); }
  bool empty() const { return keys_.empty(); }
  std::uint64_t root() const { return keys_[0]; }

  /// Smallest key other than the root (kMaxKey when the root is alone):
  /// the run-batching horizon. In any d-ary min-heap the second-smallest
  /// key is one of the root's children.
  std::uint64_t second_min() const {
    const std::size_t n = std::min<std::size_t>(keys_.size(), 5);
    std::uint64_t m = kMaxKey;
    for (std::size_t c = 1; c < n; ++c) m = std::min(m, keys_[c]);
    return m;
  }

  void push(std::uint64_t key) {
    keys_.push_back(key);
    std::size_t i = keys_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (keys_[parent] <= keys_[i]) break;
      std::swap(keys_[parent], keys_[i]);
      i = parent;
    }
  }

  void replace_root(std::uint64_t key) {
    keys_[0] = key;
    sift_down();
  }

  void pop_root() {
    keys_[0] = keys_.back();
    keys_.pop_back();
    if (!keys_.empty()) sift_down();
  }

 private:
  void sift_down() {
    const std::size_t n = keys_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) return;
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c)
        if (keys_[c] < keys_[best]) best = c;
      if (keys_[i] <= keys_[best]) return;
      std::swap(keys_[i], keys_[best]);
      i = best;
    }
  }

  std::vector<std::uint64_t> keys_;
};

enum class CoreState : std::uint8_t { kRunning, kAtBarrier, kDone };

struct PerCore {
  wl::AccessStream* stream = nullptr;
  Asid tenant = 0;
  Vpn area_base = 0;
  CoreId group = 0;
  CoreState state = CoreState::kRunning;
  wl::Op pending;              ///< in-progress access op
  std::uint32_t progress = 0;  ///< pages of `pending` already processed
  bool has_pending = false;
};

struct GroupState {
  CoreId first_core = 0;
  CoreId num_cores = 0;
  CoreId active = 0;      ///< cores not yet done
  CoreId at_barrier = 0;  ///< cores waiting at the group's current barrier
};

class Engine {
 public:
  Engine(sim::Machine& machine, MemoryManager& mm,
         std::span<EngineCoreInit> inits, std::span<const EngineGroup> groups)
      : machine_(machine), mm_(mm), cores_(machine.num_cores()) {
    const CoreId n = machine_.num_cores();
    CMCP_CHECK(inits.size() == n);
    CMCP_CHECK(n < (CoreId{1} << kCoreBits));
    groups_.reserve(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const EngineGroup& eg = groups[g];
      groups_.push_back({eg.first_core, eg.num_cores, eg.num_cores, 0});
      for (CoreId c = eg.first_core; c < eg.first_core + eg.num_cores; ++c)
        cores_[c].group = static_cast<CoreId>(g);
    }
    for (CoreId c = 0; c < n; ++c) {
      PerCore& pc = cores_[c];
      pc.stream = inits[c].stream.get();
      pc.tenant = inits[c].tenant;
      pc.area_base = inits[c].area_base;
    }
  }

  void run();

 private:
  void release_barrier_if_complete(CoreId group) {
    GroupState& g = groups_[group];
    if (g.active == 0 || g.at_barrier != g.active) return;
    const CoreId end = g.first_core + g.num_cores;
    Cycles tmax = 0;
    for (CoreId c = g.first_core; c < end; ++c) {
      if (cores_[c].state == CoreState::kAtBarrier)
        tmax = std::max(tmax, machine_.clock(c));
    }
    for (CoreId c = g.first_core; c < end; ++c) {
      if (cores_[c].state != CoreState::kAtBarrier) continue;
      machine_.counters(c).cycles_barrier += tmax - machine_.clock(c);
      if (sim::trace::EventSink* tr = machine_.trace())
        tr->emit({sim::trace::EventKind::kBarrierWait, c, machine_.clock(c),
                  tmax - machine_.clock(c), kInvalidUnit, 0, 0, 0,
                  cores_[c].tenant});
      machine_.set_clock(c, tmax);
      cores_[c].state = CoreState::kRunning;
      heap_.push(pack(tmax, c));
    }
    g.at_barrier = 0;
  }

  /// Execute ONE engine event for `core` (assumed at the heap root): one
  /// page of an in-progress access op, or the next stream op. Shared
  /// resources (PCIe link, page-table locks, invalidation slot) are thereby
  /// updated in near-global time order, so queueing is resolved at page
  /// granularity. Returns false when the core left the heap (barrier/end).
  bool execute_event(CoreId core) {
    PerCore& pc = cores_[core];
    if (pc.has_pending) {
      const wl::Op& op = pc.pending;
      const Vpn vpn =
          pc.area_base + op.vpn + static_cast<Vpn>(pc.progress) * op.stride;
      for (std::uint16_t r = 0; r < op.repeat; ++r) {
        const Cycles now = machine_.clock(core);
        machine_.advance(core, mm_.access(core, vpn, op.write, now));
      }
      if (op.cycles > 0) {
        machine_.counters(core).cycles_compute += op.cycles;
        machine_.advance(core, op.cycles);
      }
      if (++pc.progress >= op.count) pc.has_pending = false;
      return true;
    }

    const wl::Op op = pc.stream->next();
    switch (op.kind) {
      case wl::OpKind::kAccess: {
        CMCP_CHECK(op.count > 0);
        pc.pending = op;
        pc.progress = 0;
        pc.has_pending = true;
        return true;
      }
      case wl::OpKind::kCompute: {
        machine_.counters(core).cycles_compute += op.cycles;
        machine_.advance(core, op.cycles);
        return true;
      }
      case wl::OpKind::kSyscall: {
        // IHK offload: request over IKC/PCIe, host service, response back.
        // The calling core blocks for the whole round trip (paper section
        // 2.1: "heavy system calls are shipped to and executed on the
        // host"). The shared link makes a syscall-heavy tenant queue behind
        // (and delay) its neighbors' page traffic.
        const sim::CostModel& cost = machine_.cost();
        metrics::CoreCounters& ctr = machine_.counters(core);
        const Cycles start = machine_.clock(core) + cost.syscall_local;
        const sim::Machine::PcieTransferResult req = machine_.pcie_transfer(
            core, sim::PcieDir::kDeviceToHost, start,
            cost.syscall_message_bytes + op.count, kInvalidUnit, pc.tenant);
        const Cycles host_done =
            req.done + cost.syscall_host_dispatch + op.cycles;
        const sim::Machine::PcieTransferResult resp = machine_.pcie_transfer(
            core, sim::PcieDir::kHostToDevice, host_done,
            cost.syscall_message_bytes, kInvalidUnit, pc.tenant);
        ++ctr.syscalls;
        ctr.cycles_syscall += resp.done - machine_.clock(core);
        machine_.set_clock(core, resp.done);
        return true;
      }
      case wl::OpKind::kBarrier: {
        pc.state = CoreState::kAtBarrier;
        ++groups_[pc.group].at_barrier;
        heap_.pop_root();
        release_barrier_if_complete(pc.group);
        return false;
      }
      case wl::OpKind::kEnd: {
        pc.state = CoreState::kDone;
        --groups_[pc.group].active;
        heap_.pop_root();
        // A barrier pending among the group's remaining cores may now be
        // complete.
        release_barrier_if_complete(pc.group);
        return false;
      }
    }
    return true;  // unreachable
  }

  sim::Machine& machine_;
  MemoryManager& mm_;
  std::vector<PerCore> cores_;
  std::vector<GroupState> groups_;
  EventHeap heap_;
  Cycles next_due_ = 0;
};

void Engine::run() {
  const CoreId n = machine_.num_cores();
  heap_.reserve(n);
  for (CoreId c = 0; c < n; ++c) heap_.push(pack(0, c));
  next_due_ = mm_.next_periodic_due();
  machine_.set_engine_running(true);

  while (!heap_.empty()) {
    const std::uint64_t rootkey = heap_.root();
    const CoreId core = static_cast<CoreId>(rootkey & kCoreIdMask);
    const Cycles time = rootkey >> kCoreBits;
    const Cycles actual = machine_.clock(core);
    if (actual != time) {
      // Clock advanced (shootdown interrupts) since this key was set.
      heap_.replace_root(pack(actual, core));
      continue;
    }

    // Periodic work due at or before this event fires first, exactly as
    // when the old engine called run_periodic before every event — for
    // events below next_due_ that call was a no-op, so only batch starts
    // need it. Batches never cross next_due_ (the horizon caps them).
    if (actual >= next_due_) {
      mm_.run_periodic(actual);
      next_due_ = mm_.next_periodic_due();
    }

    // Run batching: keep executing THIS core's events while its packed
    // clock stays the global minimum. Other cores' keys can only be stale
    // LOW (their clocks move up, never down), so the horizon is
    // conservative: the batch can only end early, never late. The first
    // event always runs — the root is the true minimum, matching the old
    // engine's behavior even when run_periodic just advanced this clock.
    const std::uint64_t limit =
        std::min(heap_.second_min(), next_due_ << kCoreBits);
    bool requeue = true;
    do {
      if (!execute_event(core)) {
        requeue = false;
        break;
      }
    } while (pack(machine_.clock(core), core) < limit);

    if (requeue) heap_.replace_root(pack(machine_.clock(core), core));
  }

  machine_.set_engine_running(false);
  for (const GroupState& g : groups_)
    CMCP_CHECK_MSG(g.active == 0 && g.at_barrier == 0,
                   "engine deadlock: cores stuck at a barrier");
}

}  // namespace

void run_engine(sim::Machine& machine, MemoryManager& mm,
                std::span<EngineCoreInit> cores,
                std::span<const EngineGroup> groups) {
  Engine engine(machine, mm, cores, groups);
  engine.run();
}

}  // namespace cmcp::core
