#include "core/address_space.h"

#include <algorithm>
#include <vector>

#include "common/assert.h"
#include "core/memory_manager.h"
#include "mm/pspt.h"
#include "mm/regular_page_table.h"
#include "policy/policy_factory.h"
#include "sim/fault_plan.h"

namespace cmcp::core {

namespace {

/// A regular table spans the space's own core block: only those cores can
/// cache its units, so only they are shootdown targets. PSPT tables index
/// by machine core id and name exactly the mapping cores anyway.
std::unique_ptr<mm::PageTable> make_page_table(const AddressSpaceSpec& spec,
                                               CoreId machine_cores) {
  const UnitIdx units = spec.area.num_units();
  if (spec.config.pt_kind == PageTableKind::kRegular)
    return std::make_unique<mm::RegularPageTable>(spec.num_cores,
                                                  spec.first_core, units);
  return std::make_unique<mm::Pspt>(machine_cores, units);
}

}  // namespace

// SimCheck checkpoints compile out entirely in Release (CMCP_SIMCHECK=OFF):
// the fault path then carries no extra branch at all, which the
// trace-determinism CI step verifies byte-for-byte.
#if CMCP_SIMCHECK_ENABLED
#define CMCP_SIMCHECK_POINT(point)                 \
  do {                                             \
    if (sim::CheckRegistry* cr = mm_.check_registry(); cr != nullptr) \
      cr->run(sim::CheckPoint::point);             \
  } while (0)
#else
#define CMCP_SIMCHECK_POINT(point) \
  do {                             \
  } while (0)
#endif

AddressSpace::AddressSpace(MemoryManager& mm, Asid asid,
                           const AddressSpaceSpec& spec)
    : mm_(mm),
      machine_(mm.machine_),
      allocator_(mm.allocator_),
      asid_(asid),
      area_(spec.area),
      page_table_(make_page_table(spec, machine_.num_cores())),
      registry_(area_.num_units()),
      policy_capacity_units_(mm.partition().target_of(asid)),
      prefetch_degree_(spec.config.prefetch_degree) {
  const MemoryManagerConfig& config = spec.config;
  CMCP_CHECK(policy_capacity_units_ > 0);
  CMCP_CHECK_MSG(spec.num_cores > 0 &&
                     spec.first_core + spec.num_cores <= machine_.num_cores(),
                 "a space's core block must be a non-empty range of app cores");
  policy_ = config.custom_policy ? config.custom_policy(*this)
                                 : policy::make_policy(*this, config.policy);
  // Dense unit-indexed storage (docs/performance.md) is sized once, here,
  // in make_page_table and in the registry, so the per-access path never
  // grows a vector. Each app core only ever caches its own space's units,
  // so its TLB index is sized to this space. The scanner pseudo-cores
  // never cache a translation; their TLBs stay unsized.
  for (CoreId c = spec.first_core; c < spec.first_core + spec.num_cores; ++c) {
    machine_.set_core_space(c, asid_);
    machine_.tlb(c).size_units(area_.num_units());
  }
  scan_flush_.reserve(machine_.cost().scanner_flush_batch);
  // A zero period would spin run_periodic forever; past 2^53 cycles (the
  // engine's virtual-time bound) the tick overflows.
  CMCP_CHECK_MSG(machine_.cost().scan_period > 0 &&
                     machine_.cost().scan_period <= Cycles{1} << 53,
                 "cost.scan_period must be in [1, 2^53] cycles");
  next_tick_ = machine_.cost().scan_period;
  if (config.preload) {
    CMCP_CHECK_MSG(policy_capacity_units_ >= area_.num_units(),
                   "preload requires capacity covering the footprint");
    pinned_ = true;
    preload_all();
  }
}

AddressSpace::~AddressSpace() = default;

unsigned AddressSpace::num_cores() const { return machine_.num_cores(); }

void AddressSpace::preload_all() {
  // Residency without mappings: data was placed in device RAM up front, and
  // cores establish PTEs on first touch (minor faults, no PCIe traffic).
  for (UnitIdx unit = 0; unit < area_.num_units(); ++unit) {
    mm::ResidentPage* page = allocator_.allocate(asid_, unit);
    CMCP_CHECK(page != nullptr);
    registry_.insert(*page);
  }
}

Cycles AddressSpace::access(CoreId core, Vpn vpn, bool write, Cycles now) {
  const sim::CostModel& cost = machine_.cost();
  metrics::CoreCounters& ctr = machine_.counters(core);
  ++ctr.accesses;

  const UnitIdx unit = area_.unit_of(vpn);
  sim::Tlb& tlb = machine_.tlb(core);

  // Fast path: translation cached.
  if (tlb.lookup(unit)) {
    const Cycles c = cost.tlb_hit + cost.memory_access;
    if (write) page_table_->mark_dirty(core, unit);
    ctr.cycles_mem += c;
    return c;
  }

  // dTLB miss: hardware page walk.
  ++ctr.dtlb_misses;

  if (page_table_->has_mapping(core, unit)) {
    // Walk hit a valid PTE: refill the TLB, set attribute bits.
    page_table_->mark_accessed(core, unit);
    if (write) page_table_->mark_dirty(core, unit);
    tlb.insert(unit);
    const Cycles c = cost.walk_cost(area_.page_size()) + cost.memory_access;
    ctr.cycles_mem += c;
    return c;
  }

  // Walk found no valid PTE: page fault.
  const Cycles mem_cycles = cost.walk_cost(area_.page_size());
  ctr.cycles_mem += mem_cycles;
  Cycles fault_cycles = cost.fault_entry;
  Cycles lock_wait = 0;
  Cycles pcie_wait = 0;

  if (page_table_->kind() == PageTableKind::kRegular) {
    // Address-space-wide lock: every fault in the process serializes here.
    const Cycles at = now + mem_cycles + fault_cycles;
    const Cycles acquired = std::max(at, pt_lock_busy_until_);
    lock_wait = acquired - at;
  } else {
    // PSPT: synchronization only between affected cores; short hold.
    fault_cycles += cost.pspt_lock_hold;
  }

  sim::trace::EventSink* const tr = machine_.trace();
  bool was_major = false;
  std::uint64_t trace_map_count = 0;
  std::uint64_t trace_prefetch_hit = 0;
  std::uint64_t trace_evicted = 0;

  mm::ResidentPage* page = registry_.find(unit);
  if (page != nullptr) {
    // Resident but not mapped by this core (PSPT private PTE miss, a
    // preloaded unit's first touch, or a prefetched unit): copy the
    // translation — no data moves.
    ++ctr.minor_faults;
    fault_cycles += cost.pte_copy_lookup + cost.map_cost(area_.page_size());
    if (page->ready_at != 0) {
      // First touch of a prefetched unit: its transfer may still be in
      // flight; stall until the data lands.
      const Cycles at = now + mem_cycles + fault_cycles + lock_wait;
      if (page->ready_at > at) pcie_wait += page->ready_at - at;
      page->ready_at = 0;
      ++ctr.prefetch_hits;
      trace_prefetch_hit = 1;
    }
    page_table_->map(core, unit);
    trace_map_count = core_map_count(*page);
    if (!pinned_) policy_->on_core_map_grow(*page);
  } else {
    // Major fault: the unit lives in host memory.
    CMCP_CHECK_MSG(!pinned_, "pinned run should never take a major fault");
    ++ctr.major_faults;
    was_major = true;

    // Any tenant may take a free frame; when the pool is exhausted, the
    // partition picks which space must evict. Under PartitionKind::kNone
    // this reduces exactly to "allocate; if full, evict from yourself" —
    // the pre-refactor behavior. With a fault plan attached, ECC-poisoned
    // frames surfacing at allocation (and latent poison swallowing the
    // frame an eviction was meant to free) re-enter the loop; each
    // quarantine consumes its poison, so it terminates.
    mm::ResidentPage* fresh = allocate_frame(
        core, unit, now + mem_cycles + lock_wait, &fault_cycles);
    while (fresh == nullptr) {
      fault_cycles +=
          mm_.evict_for(asid_, core, now + mem_cycles + fault_cycles + lock_wait);
      trace_evicted = 1;
      fresh = allocate_frame(core, unit, now + mem_cycles + lock_wait,
                             &fault_cycles);
    }

    // Fetch the unit's data from the host.
    const Cycles ready = now + mem_cycles + fault_cycles + lock_wait;
    const sim::PcieTransferOutcome xfer = machine_.pcie_transfer(
        core, sim::PcieDir::kHostToDevice, ready, unit_bytes(area_.page_size()),
        unit, asid_);
    pcie_wait += xfer.done - ready;
    ctr.pcie_bytes_in += unit_bytes(area_.page_size());

    registry_.insert(*fresh);
    page_table_->map(core, unit);
    fault_cycles += cost.map_cost(area_.page_size()) + cost.policy_op;
    policy_->on_insert(*fresh);

    if (prefetch_degree_ > 0)
      fault_cycles += prefetch_after(core, unit, xfer.done);
  }

  if (page_table_->kind() == PageTableKind::kRegular) {
    // Lock is held across the table update (and any shootdown inside
    // evict_one), but not across the PCIe transfer.
    pt_lock_busy_until_ =
        now + mem_cycles + fault_cycles + lock_wait + cost.regular_pt_lock_hold;
    fault_cycles += cost.regular_pt_lock_hold;
  }

  page_table_->mark_accessed(core, unit);
  if (write) page_table_->mark_dirty(core, unit);
  tlb.insert(unit);

  ctr.cycles_fault += fault_cycles;
  ctr.cycles_lock_wait += lock_wait;
  ctr.cycles_pcie_wait += pcie_wait;
  const Cycles mem_tail = cost.memory_access;
  ctr.cycles_mem += mem_tail;
  const Cycles total = mem_cycles + fault_cycles + lock_wait + pcie_wait + mem_tail;
  if (tr != nullptr) {
    if (was_major)
      tr->emit({sim::trace::EventKind::kMajorFault, core, now, total, unit,
                trace_evicted, pcie_wait, 0, asid_});
    else
      tr->emit({sim::trace::EventKind::kMinorFault, core, now, total, unit,
                trace_map_count, trace_prefetch_hit, 0, asid_});
  }
  CMCP_SIMCHECK_POINT(kAfterFault);
  return total;
}

Cycles AddressSpace::prefetch_after(CoreId core, UnitIdx unit, Cycles now) {
  // Sequential readahead into free frames only: prefetch must never evict
  // (a wrong guess would then cost a real page its residency). The
  // transfers queue on the PCIe link asynchronously; the issuing core only
  // pays the per-request setup.
  const sim::CostModel& cost = machine_.cost();
  metrics::CoreCounters& ctr = machine_.counters(core);
  Cycles issue_cycles = 0;
  UnitIdx next = unit + 1;
  for (unsigned i = 0; i < prefetch_degree_; ++i, ++next) {
    if (next >= area_.num_units()) break;
    if (allocator_.full()) break;
    if (registry_.find(next) != nullptr) continue;
    if (page_table_->any_mapping(next)) continue;
    mm::ResidentPage* pg = allocate_frame(core, next, now, &issue_cycles);
    if (pg == nullptr) break;  // quarantines may have drained the pool
    const sim::PcieTransferOutcome xfer = machine_.pcie_transfer(
        core, sim::PcieDir::kHostToDevice, now, unit_bytes(area_.page_size()),
        next, asid_);
    registry_.insert(*pg);
    pg->ready_at = xfer.done;
    policy_->on_insert(*pg);
    ctr.pcie_bytes_in += unit_bytes(area_.page_size());
    ++ctr.prefetches;
    issue_cycles += cost.policy_op;  // request setup
  }
  return issue_cycles;
}

mm::ResidentPage* AddressSpace::allocate_frame(CoreId core, UnitIdx unit,
                                               Cycles base, Cycles* cycles) {
  sim::FaultPlan* const plan = machine_.fault_plan();
  for (;;) {
    mm::ResidentPage* frame = allocator_.allocate(asid_, unit);
    if (frame == nullptr || plan == nullptr ||
        !plan->surfaces_at_alloc(allocator_.pfn_of(*frame)))
      return frame;
    // ECC poison surfaced while the kernel scrubbed the fresh frame:
    // quarantine it and try the next free frame.
    *cycles += quarantine_frame(core, base + *cycles, *frame, kInvalidUnit);
  }
}

Cycles AddressSpace::quarantine_frame(CoreId core, Cycles at,
                                      mm::ResidentPage& frame, UnitIdx unit) {
  sim::FaultPlan* const plan = machine_.fault_plan();
  constexpr Cycles kDetect = sim::FaultPlanConfig::kEccDetectCycles;
  const Pfn pfn = allocator_.pfn_of(frame);
  allocator_.quarantine(frame);
  CMCP_CHECK_MSG(allocator_.usable_capacity() > 0,
                 "every device frame is quarantined");
  mm_.on_frames_quarantined();
  metrics::CoreCounters& ctr = machine_.counters(core);
  ++ctr.faults_injected;
  ctr.cycles_recovery += kDetect;
  plan->record(sim::FaultKind::kEccPoison, asid_, 1, 0, false, kDetect);
  plan->record_quarantine();
  if (sim::trace::EventSink* tr = machine_.trace()) {
    constexpr auto kEcc =
        static_cast<std::uint64_t>(sim::FaultKind::kEccPoison);
    tr->emit({sim::trace::EventKind::kFaultInject, core, at, kDetect, unit,
              kEcc, 1, pfn, asid_});
    tr->emit({sim::trace::EventKind::kQuarantine, core, at, kDetect, unit,
              pfn, allocator_.usable_capacity(), 0, asid_});
  }
  return kDetect;
}

Cycles AddressSpace::shootdown_unit(CoreId initiator, Cycles now,
                                    const mm::ShootdownSet& set, UnitIdx unit) {
  const sim::CostModel& cost = machine_.cost();
  const bool self = set.targets.test(initiator);
  // Cross-tenant interference accounting: every remote invalidation lands
  // on THIS space's cores (only they can map this space's units); the cause
  // is whoever initiates — under QoS priority eviction that can be a
  // faulting core of another space.
  if (mm_.num_spaces() > 1)
    mm_.record_interference(machine_.space_of_core(initiator), asid_,
                            set.targets.count() - (self ? 1u : 0u));
  if (!self)
    return machine_.shootdown(initiator, now, set.targets, set.holders, unit);
  // The initiator invalidates its own TLB directly (INVLPG, no IPI; its
  // TLB can hold the unit only if it is a holder); only this path pays
  // for a mask copy to drop the initiator bit.
  if (set.holders.test(initiator)) machine_.tlb(initiator).invalidate(unit);
  CoreMask remote = set.targets;
  remote.clear(initiator);
  return cost.invlpg +
         machine_.shootdown(initiator, now, remote, set.holders, unit);
}

Cycles AddressSpace::evict_one(CoreId faulting_core, Cycles now) {
  const sim::CostModel& cost = machine_.cost();
  metrics::CoreCounters& ctr = machine_.counters(faulting_core);

  Cycles cycles = cost.policy_op;
  eviction_start_ = now;
  mm::ResidentPage* victim = policy_->pick_victim(faulting_core, cycles);
  CMCP_CHECK_MSG(victim != nullptr, "no victim with resident pages present");

  sim::trace::EventSink* const tr = machine_.trace();
  if (tr != nullptr)
    tr->emit({sim::trace::EventKind::kVictimPick, faulting_core, now, cycles,
              victim->unit, core_map_count(*victim), 0, 0, asid_});

  const UnitIdx unit = victim->unit;
  const bool dirty = page_table_->test_dirty(unit);
  std::uint64_t trace_targets = 0;
  if (page_table_->any_mapping(unit)) {
    const mm::ShootdownSet affected = page_table_->unmap_all(unit);
    if (tr != nullptr) trace_targets = affected.targets.count();
    cycles += shootdown_unit(faulting_core, now + cycles, affected, unit);
  }
  // (Prefetched-but-never-touched units have no mappings to tear down.)

  if (dirty) {
    // Synchronous write-back of the evicted unit to host memory, as the
    // paper's kernel does: the evicting core waits for the transfer.
    const Cycles ready = now + cycles;
    const sim::PcieTransferOutcome xfer = machine_.pcie_transfer(
        faulting_core, sim::PcieDir::kDeviceToHost, ready,
        unit_bytes(area_.page_size()), unit, asid_);
    ctr.pcie_bytes_out += unit_bytes(area_.page_size());
    ++ctr.writebacks;
    ctr.cycles_pcie_wait += xfer.done - ready;
    cycles += xfer.done - ready;
  }

  policy_->on_evict(*victim);
  // Unindex first: freeing or quarantining the frame resets its entry.
  registry_.erase(*victim);
  sim::FaultPlan* const plan = machine_.fault_plan();
  if (plan != nullptr && plan->surfaces_at_evict(allocator_.pfn_of(*victim))) {
    // Latent ECC poison surfaces as the eviction path touches the frame:
    // quarantine instead of free. The faulting tenant's allocate loop sees
    // no frame and orders another eviction.
    cycles += quarantine_frame(faulting_core, now + cycles, *victim, unit);
  } else {
    allocator_.free(*victim);
  }
  ++ctr.evictions;
  if (tr != nullptr)
    tr->emit({sim::trace::EventKind::kEviction, faulting_core, now, cycles,
              unit, dirty ? 1u : 0u, trace_targets,
              dirty ? unit_bytes(area_.page_size()) : 0, asid_});
  CMCP_SIMCHECK_POINT(kAfterEviction);
  return cycles;
}

bool AddressSpace::unit_accessed(const mm::ResidentPage& page) const {
  return page_table_->test_accessed(page.unit, nullptr);
}

Cycles AddressSpace::eviction_start() const { return eviction_start_; }

Cycles AddressSpace::clear_accessed_and_shootdown(mm::ResidentPage& page,
                                                  CoreId initiator, Cycles now) {
  const bool was_set = page_table_->clear_accessed(page.unit);
  if (!was_set) return 0;
  // Cached TLB copies are now stale; x86 requires invalidating them on
  // every core that may hold one.
  return shootdown_unit(initiator, now,
                        {page_table_->mapping_cores(page.unit),
                         page_table_->tlb_holders(page.unit)},
                        page.unit);
}

void AddressSpace::run_periodic(Cycles watermark) {
  const sim::CostModel& cost = machine_.cost();
  while (watermark >= next_tick_) {
    const Cycles tick_time = next_tick_;
    next_tick_ += cost.scan_period;

    if (policy_->wants_scanner() && !pinned_) {
      // The scanner daemon runs on this space's dedicated hyperthread
      // (paper section 5.1): its cycles accrue to the pseudo-core, not to
      // the app cores — but every cleared bit shoots down the mapping
      // cores.
      const CoreId scanner = machine_.scanner_core(asid_);
      if (machine_.clock(scanner) < tick_time)
        machine_.set_clock(scanner, tick_time);
      Cycles read_cycles = 0;
      const unsigned sub_entries =
          area_.page_size() == PageSizeClass::k64K ? 16u : 1u;
      std::uint64_t scanned = 0;
      std::uint64_t cleared = 0;
      std::uint64_t flush_rounds = 0;
      // Reused across scan passes (reserved once in the constructor) so a
      // sweep allocates nothing.
      std::vector<sim::Machine::BatchItem>& flush = scan_flush_;
      flush.clear();
      const auto flush_batch = [&] {
        if (flush.empty()) return;
        ++flush_rounds;
        // One slot acquisition + one IPI round per run of cleared PTEs,
        // charged to the scanner's own clock as it happens so concurrent
        // shootdowns queue against a current timestamp.
        if (mm_.num_spaces() > 1) {
          std::uint64_t remote = 0;
          for (const sim::Machine::BatchItem& item : flush) {
            CoreMask t = item.targets;
            t.clear(scanner);
            remote += t.count();
          }
          mm_.record_interference(asid_, asid_, remote);
        }
        machine_.advance(scanner, machine_.shootdown_batch(
                                      scanner, machine_.clock(scanner), flush));
        flush.clear();
      };
      registry_.for_each([&](mm::ResidentPage& pg) {
        ++scanned;
        unsigned pte_reads = 0;
        const bool referenced = page_table_->test_accessed(pg.unit, &pte_reads);
        read_cycles += cost.scan_pte_read * std::max(1u, pte_reads) * sub_entries;
        if (referenced) {
          ++cleared;
          flush.push_back({pg.unit, page_table_->mapping_cores(pg.unit),
                           page_table_->tlb_holders(pg.unit)});
          page_table_->clear_accessed(pg.unit);
          if (flush.size() >= cost.scanner_flush_batch) flush_batch();
        }
        policy_->on_scan(pg, referenced);
      });
      flush_batch();
      // PTE reads parallelize over the dedicated scanner hyperthreads.
      machine_.advance(scanner, read_cycles / std::max(1u, cost.scanner_threads));
      ++scans_completed_;
      if (sim::trace::EventSink* tr = machine_.trace())
        tr->emit({sim::trace::EventKind::kScanPass, scanner, tick_time,
                  machine_.clock(scanner) - tick_time, kInvalidUnit, scanned,
                  cleared, flush_rounds, asid_});
      // Timer ticks that fire while the scanner is still busy are skipped
      // (a periodic timer cannot re-enter its own handler); without this the
      // scan backlog would grow without bound under heavy shootdown load.
      if (machine_.clock(scanner) > next_tick_) {
        const Cycles period = cost.scan_period;
        const Cycles behind = machine_.clock(scanner) - next_tick_;
        next_tick_ += (behind / period + 1) * period;
      }
      CMCP_SIMCHECK_POINT(kAfterScan);
    }

    policy_->on_tick(tick_time);
  }
}

std::vector<std::uint64_t> AddressSpace::sharing_histogram() const {
  std::vector<std::uint64_t> hist(machine_.num_cores() + 1, 0);
  // core_map_count is one indexed load per unit (dense directory), so this
  // whole histogram is a single linear sweep.
  for (UnitIdx unit = 0; unit < area_.num_units(); ++unit) {
    const unsigned c = page_table_->core_map_count(unit);
    if (c > 0) ++hist[std::min<std::size_t>(c, hist.size() - 1)];
  }
  return hist;
}

}  // namespace cmcp::core
