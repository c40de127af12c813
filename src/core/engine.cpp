#include "core/engine.h"

#include <algorithm>
#include <cstdint>

#include "common/assert.h"
#include "core/event_tree.h"
#include "sim/trace.h"

namespace cmcp::core {

namespace {

// Event keys pack (virtual time, core id) into one u64 so a single integer
// compare is the engine's event order: 11 low bits cover CoreMask::kMaxCores
// simulated cores, which leaves 53 bits of virtual time.
constexpr unsigned kCoreBits = 11;
constexpr std::uint64_t kCoreIdMask = (std::uint64_t{1} << kCoreBits) - 1;

std::uint64_t pack(Cycles time, CoreId core) {
  CMCP_CHECK_MSG(time >> (64 - kCoreBits) == 0,
                 "virtual time reached 2^53 cycles, the engine's event-key "
                 "limit");
  return (time << kCoreBits) | core;
}

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
      : machine_(machine),
        mm_(mm),
        cores_(machine.num_cores()),
        events_(machine.num_cores()) {
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
        tmax = std::max(tmax, machine_.offset_free_clock(c));
    }
    for (CoreId c = g.first_core; c < end; ++c) {
      if (cores_[c].state != CoreState::kAtBarrier) continue;
      const Cycles wait = tmax - machine_.offset_free_clock(c);
      machine_.counters(c).cycles_barrier += wait;
      if (sim::trace::EventSink* tr = machine_.trace())
        tr->emit({sim::trace::EventKind::kBarrierWait, c, machine_.clock(c),
                  wait, kInvalidUnit, 0, 0, 0, cores_[c].tenant});
      machine_.advance(c, wait);
      cores_[c].state = CoreState::kRunning;
      events_.set(c, pack(tmax, c));
    }
    g.at_barrier = 0;
  }

  /// Execute ONE engine event for `core` (the event tree's root): one
  /// page of an in-progress access op, or the next stream op. Shared
  /// resources (PCIe link, page-table locks, invalidation slot) are thereby
  /// updated in near-global time order, so queueing is resolved at page
  /// granularity. Returns false when the core left the tree (barrier/end).
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
      case wl::OpKind::kBarrier: {
        pc.state = CoreState::kAtBarrier;
        ++groups_[pc.group].at_barrier;
        events_.set(core, EventTree::kMaxKey);
        release_barrier_if_complete(pc.group);
        return false;
      }
      case wl::OpKind::kEnd: {
        pc.state = CoreState::kDone;
        --groups_[pc.group].active;
        events_.set(core, EventTree::kMaxKey);
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
  EventTree events_;  ///< one leaf per core, kMaxKey while not runnable
  Cycles next_due_ = 0;
};

void Engine::run() {
  for (CoreId c = 0; c < machine_.num_cores(); ++c) events_.set(c, pack(0, c));
  next_due_ = mm_.next_periodic_due();

  // Keys hold offset-free clocks (Machine::offset_free_clock). A
  // machine-wide broadcast raises every app core's clock but the
  // initiator's through one shared offset, which changes no key; the
  // initiator re-keys itself after its event. Effective time
  // (Machine::clock) is read only where time leaves the engine: the `now`
  // of an access and the periodic watermark.
  //
  // A core keeps running exactly while its key stays the root, so run
  // batching needs no code of its own. Other cores' keys can only be stale
  // LOW (interrupts of a shootdown aimed at some of the cores advance their
  // clocks), so a non-stale root is the true earliest event. The keys are
  // unsigned, so the running core's offset-free clock must not fall. It
  // cannot: a broadcast takes its receivers' interrupt cost off the
  // initiator's offset-free clock, and the initiator waits as long for the
  // acks in the same event (ack_wait == receiver_cost). The check guards
  // that construction.
  while (!events_.empty()) {
    const std::uint64_t rootkey = events_.root();
    const CoreId core = static_cast<CoreId>(rootkey & kCoreIdMask);
    const Cycles actual = machine_.offset_free_clock(core);
    if (actual != rootkey >> kCoreBits) {
      events_.set(core, pack(actual, core));
      continue;
    }
    // Periodic work due at or before this event fires first. The event
    // still runs even if run_periodic advanced this core's clock.
    const Cycles now = machine_.clock(core);
    if (now >= next_due_) {
      mm_.run_periodic(now);
      next_due_ = mm_.next_periodic_due();
    }
    const bool runnable = execute_event(core);
    // A fall past zero wraps the unsigned clock, but as a signed difference
    // of two clocks below 2^53 it still reads negative.
    const Cycles after = machine_.offset_free_clock(core);
    CMCP_CHECK_MSG(static_cast<std::int64_t>(after - actual) >= 0,
                   "an app core's offset-free clock fell during one engine "
                   "event: a broadcast took back more than its initiator "
                   "waited");
    if (runnable) events_.set(core, pack(after, core));
  }

  for (const GroupState& g : groups_)
    CMCP_CHECK_MSG(g.active == 0 && g.at_barrier == 0,
                   "engine deadlock: cores stuck at a barrier");
  machine_.fold_broadcasts();
}

}  // namespace

void run_engine(sim::Machine& machine, MemoryManager& mm,
                std::span<EngineCoreInit> cores,
                std::span<const EngineGroup> groups) {
  Engine engine(machine, mm, cores, groups);
  engine.run();
}

}  // namespace cmcp::core
