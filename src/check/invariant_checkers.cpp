#include "check/invariant_checkers.h"

#include <string>
#include <utility>
#include <vector>

#include "core/address_space.h"
#include "mm/page_table.h"

namespace cmcp::check {

namespace {

using sim::CheckPoint;
using sim::CheckViolation;

/// PSPT consistency (paper section 2.3): for every resident unit the
/// directory's core-map count must equal its mapping mask's population
/// (the mask is the private PTEs' valid bits), and the counts must sum to
/// the per-core PTE populations — CMCP's whole priority signal is this
/// number. One instance per address space (each space owns its own table
/// and registry).
class PsptConsistencyChecker final : public sim::Checker {
 public:
  PsptConsistencyChecker(const core::AddressSpace& space, std::string name)
      : space_(space), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  void check(CheckPoint /*point*/, std::vector<CheckViolation>& out) override {
    const mm::PageTable& pt = space_.page_table();
    std::uint64_t mapped_resident = 0;
    std::uint64_t count_sum = 0;
    space_.registry().for_each([&](const mm::ResidentPage& pg) {
      const unsigned count = pt.core_map_count(pg.unit);
      const CoreMask mask = pt.mapping_cores(pg.unit);
      const unsigned population = mask.count();
      count_sum += count;
      if (count > 0) ++mapped_resident;
      if (population != count)
        out.push_back({std::string(name()), "core-map-count",
                       "directory count " + std::to_string(count) +
                           " != mapping-mask population " +
                           std::to_string(population),
                       pg.unit, kInvalidCore});
      if (pt.any_mapping(pg.unit) != (count > 0))
        out.push_back({std::string(name()), "any-mapping",
                       "any_mapping() disagrees with core_map_count()",
                       pg.unit, kInvalidCore});
    });
    // Dangling-translation sweep: every mapped unit must be resident, so
    // the table may not hold more units than the registry accounts for.
    if (pt.mapped_units() != mapped_resident)
      out.push_back({std::string(name()), "dangling-translation",
                     "page table maps " + std::to_string(pt.mapped_units()) +
                         " units but only " + std::to_string(mapped_resident) +
                         " resident units are mapped",
                     kInvalidUnit, kInvalidCore});
    // PSPT cross-foot: the directory's counts must sum to the per-core
    // table populations (catches count drift that preserves the mask).
    if (pt.kind() == PageTableKind::kPspt) {
      std::uint64_t per_core_sum = 0;
      for (CoreId c = 0; c < space_.num_cores(); ++c)
        per_core_sum += pt.mapped_units_of_core(c);
      if (per_core_sum != count_sum)
        out.push_back({std::string(name()), "count-crossfoot",
                       "sum of directory counts " + std::to_string(count_sum) +
                           " != sum of per-core PTE populations " +
                           std::to_string(per_core_sum),
                       kInvalidUnit, kInvalidCore});
    }
  }

 private:
  const core::AddressSpace& space_;
  const std::string name_;
};

/// TLB/PTE coherence: a valid TLB entry without a live PTE would let a core
/// use a translation the protocol believes it tore down — the exact failure
/// shootdown targeting exists to prevent. The engine applies invalidations
/// synchronously, so at every checkpoint no invalidation is in flight and
/// the invariant is strict: cached => mapped. A cached entry's core must
/// also be among the table's tlb_holders() for the unit, since shootdowns
/// only drop the holders' entries; a core outside them would keep its
/// entry through the unmap. Each core's cached units are checked against
/// its OWN address space's table (unit indices are space-local; the core
/// -> space map disambiguates them).
class TlbConsistencyChecker final : public sim::Checker {
 public:
  TlbConsistencyChecker(const core::MemoryManager& mm,
                        const sim::Machine& machine)
      : mm_(mm), machine_(machine) {}

  std::string_view name() const override { return "tlb-consistency"; }

  void check(CheckPoint /*point*/, std::vector<CheckViolation>& out) override {
    for (CoreId core = 0; core < machine_.num_cores(); ++core) {
      const mm::PageTable& pt =
          mm_.space(machine_.space_of_core(core)).page_table();
      machine_.tlb(core).for_each_entry([&](UnitIdx unit) {
        if (!pt.has_mapping(core, unit))
          out.push_back({std::string(name()), "stale-tlb-entry",
                         "TLB caches a translation with no live PTE "
                         "(missed shootdown?)",
                         unit, core});
        if (!pt.tlb_holders(unit).test(core))
          out.push_back({std::string(name()), "entry-outside-holders",
                         "TLB caches a translation but the page table does "
                         "not list the core among the unit's TLB holders",
                         unit, core});
      });
    }
  }

 private:
  const core::MemoryManager& mm_;
  const sim::Machine& machine_;
};

/// Frame table (the coremap, docs/invariants.md): the coremap entry each
/// registry slot points at must name {the slot's space, the slot's unit,
/// resident}, and the coremap's state tallies must match the allocator's
/// counters — free (entries not yet built count as free), quarantined and
/// per-space in use — and each space's resident set. With the slot ->
/// entry match this makes resident pages and resident frames a bijection:
/// no frame is aliased, mis-owned, leaked or quarantined while resident.
/// The partition must also have seen the current usable capacity (the
/// MemoryManager::on_frames_quarantined hook fired). The partition's
/// victim choice is computed from these counters, and a frame leaking out
/// of quarantine re-exposes the ECC poison it contains.
class FrameTableChecker final : public sim::Checker {
 public:
  explicit FrameTableChecker(const core::MemoryManager& mm) : mm_(mm) {}

  std::string_view name() const override { return "frame-table"; }

  void check(CheckPoint /*point*/, std::vector<CheckViolation>& out) override {
    const mm::FrameAllocator& alloc = mm_.allocator();
    const Asid spaces = mm_.num_spaces();
    resident_by_.assign(spaces, 0);
    std::uint64_t free = alloc.capacity() - alloc.frames().size();
    std::uint64_t quarantined = 0;
    for (const mm::ResidentPage& f : alloc.frames()) {
      if (f.state == mm::FrameState::kFree)
        ++free;
      else if (f.state == mm::FrameState::kQuarantined)
        ++quarantined;
      else if (f.owner < spaces)
        ++resident_by_[f.owner];
    }
    const auto tally = [&](const char* kind, const std::string& what,
                           std::uint64_t entries, std::uint64_t counter) {
      if (entries != counter)
        out.push_back({std::string(name()), kind,
                       "coremap holds " + std::to_string(entries) + " " +
                           what + " frames but the allocator counts " +
                           std::to_string(counter),
                       kInvalidUnit, kInvalidCore});
    };
    tally("free-crossfoot", "free", free, alloc.free_count());
    tally("quarantine-crossfoot", "quarantined", quarantined,
          alloc.quarantined_count());

    std::uint64_t resident_total = 0;
    for (Asid s = 0; s < spaces; ++s) {
      const mm::PageRegistry& registry = mm_.space(s).registry();
      resident_total += registry.size();
      tally("ownership-crossfoot", "space " + std::to_string(s) + "'s",
            resident_by_[s], alloc.in_use_by(s));
      if (alloc.in_use_by(s) != registry.size())
        out.push_back({std::string(name()), "per-space-count",
                       "allocator says space " + std::to_string(s) +
                           " holds " + std::to_string(alloc.in_use_by(s)) +
                           " frames but its registry has " +
                           std::to_string(registry.size()) +
                           " resident pages",
                       kInvalidUnit, kInvalidCore});
      for (UnitIdx unit = 0; unit < registry.num_units(); ++unit)
        if (const mm::ResidentPage* pg = registry.find(unit))
          check_page(alloc, s, unit, *pg, out);
    }
    if (alloc.in_use() != resident_total)
      out.push_back({std::string(name()), "in-use-vs-resident",
                     "allocator has " + std::to_string(alloc.in_use()) +
                         " frames in use but " +
                         std::to_string(resident_total) +
                         " pages are resident",
                     kInvalidUnit, kInvalidCore});
    if (mm_.partition().capacity() != alloc.usable_capacity())
      out.push_back({std::string(name()), "stale-partition-capacity",
                     "partition targets computed for " +
                         std::to_string(mm_.partition().capacity()) +
                         " frames but usable capacity is " +
                         std::to_string(alloc.usable_capacity()),
                     kInvalidUnit, kInvalidCore});
  }

 private:
  /// Space `s`'s registry slot for `unit` against the coremap entry `f`
  /// it points at.
  void check_page(const mm::FrameAllocator& alloc, Asid s, UnitIdx unit,
                  const mm::ResidentPage& f,
                  std::vector<CheckViolation>& out) const {
    if (f.state == mm::FrameState::kResident && f.owner == s &&
        f.unit == unit)
      return;
    const std::string frame = "frame " + std::to_string(alloc.pfn_of(f));
    const auto report = [&](const char* kind, const std::string& message) {
      out.push_back({std::string(name()), kind, message, unit, kInvalidCore});
    };
    if (f.state == mm::FrameState::kQuarantined)
      report("resident-on-quarantined", "space " + std::to_string(s) +
                                            " holds quarantined " + frame +
                                            " resident");
    else if (f.state == mm::FrameState::kFree || f.owner != s)
      report("wrong-owner",
             frame + " is resident in space " + std::to_string(s) +
                 " but the coremap records owner " +
                 (f.state == mm::FrameState::kFree
                      ? std::string("<free>")
                      : std::to_string(f.owner)));
    else
      report("frame-aliased", frame + " backs unit " + std::to_string(unit) +
                                  " but the coremap records unit " +
                                  std::to_string(f.unit));
  }

  const core::MemoryManager& mm_;
  std::vector<std::uint64_t> resident_by_;  ///< scratch, reused across sweeps
};

/// Policy accounting: every built-in policy reports how many pages its
/// internal lists track; that number must equal the resident-set size of
/// the policy's own address space (pinned preload runs bypass policy
/// bookkeeping and are exempt).
class PolicyAccountingChecker final : public sim::Checker {
 public:
  PolicyAccountingChecker(const core::AddressSpace& space, std::string name)
      : space_(space), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  void check(CheckPoint /*point*/, std::vector<CheckViolation>& out) override {
    if (space_.pinned()) return;
    const std::int64_t tracked = space_.policy().tracked_pages();
    if (tracked < 0) return;  // custom policy without introspection
    const auto resident = static_cast<std::int64_t>(space_.registry().size());
    if (tracked != resident)
      out.push_back({std::string(name()), "list-size-vs-resident",
                     std::string(space_.policy().name()) + " tracks " +
                         std::to_string(tracked) + " pages but " +
                         std::to_string(resident) + " are resident",
                     kInvalidUnit, kInvalidCore});
  }

 private:
  const core::AddressSpace& space_;
  const std::string name_;
};

/// Virtual-time sanity: a core clock running backwards would silently
/// reorder every queueing decision after it (PCIe, invalidation slot, page
/// table locks) — the determinism guarantee would still "pass" while
/// modelling a different machine. Covers every scanner pseudo-core (one per
/// address space).
///
/// At the end of a run it also cross-foots each app core's cycle buckets
/// against its clock: every cycle a core spent must be charged to exactly
/// one bucket, or the per-layer breakdown misattributes the makespan. Only
/// then: mid-run, a fault has charged its buckets before the engine
/// advances the clock. Scanner pseudo-cores are exempt, since their clocks
/// also jump idle to each scan tick.
class ClockMonotonicityChecker final : public sim::Checker {
 public:
  explicit ClockMonotonicityChecker(const sim::Machine& machine)
      : machine_(machine),
        last_(static_cast<std::size_t>(machine.total_cores()), 0) {}

  std::string_view name() const override { return "clock-monotonic"; }

  void check(CheckPoint point, std::vector<CheckViolation>& out) override {
    for (CoreId core = 0; core < machine_.total_cores(); ++core) {
      const Cycles now = machine_.clock(core);
      if (now < last_[core])
        out.push_back({std::string(name()), "clock-regression",
                       "clock moved from " + std::to_string(last_[core]) +
                           " back to " + std::to_string(now),
                       kInvalidUnit, core});
      last_[core] = now;
    }
    if (point != CheckPoint::kEndOfRun) return;
    for (CoreId core = 0; core < machine_.num_cores(); ++core) {
      const Cycles buckets = machine_.counters(core).cycles_total();
      if (buckets != machine_.clock(core))
        out.push_back({std::string(name()), "cycle-crossfoot",
                       "cycle buckets sum to " + std::to_string(buckets) +
                           " but the clock reads " +
                           std::to_string(machine_.clock(core)),
                       kInvalidUnit, core});
    }
  }

 private:
  const sim::Machine& machine_;
  std::vector<Cycles> last_;  ///< indexed by core, scanner pseudo-cores last
};

/// "pspt-consistency" when the manager has one space (the pre-refactor
/// name, kept stable for tooling); "pspt-consistency/asid2" per space
/// otherwise.
std::string scoped_name(const char* base, const core::MemoryManager& mm,
                        Asid asid) {
  if (mm.num_spaces() <= 1) return base;
  return std::string(base) + "/asid" + std::to_string(asid);
}

}  // namespace

std::unique_ptr<sim::Checker> make_pspt_consistency_checker(
    const core::MemoryManager& mm) {
  return std::make_unique<PsptConsistencyChecker>(
      mm.space(0), scoped_name("pspt-consistency", mm, 0));
}

std::unique_ptr<sim::Checker> make_tlb_consistency_checker(
    const core::MemoryManager& mm, const sim::Machine& machine) {
  return std::make_unique<TlbConsistencyChecker>(mm, machine);
}

std::unique_ptr<sim::Checker> make_frame_table_checker(
    const core::MemoryManager& mm) {
  return std::make_unique<FrameTableChecker>(mm);
}

std::unique_ptr<sim::Checker> make_policy_accounting_checker(
    const core::MemoryManager& mm) {
  return std::make_unique<PolicyAccountingChecker>(
      mm.space(0), scoped_name("policy-accounting", mm, 0));
}

std::unique_ptr<sim::Checker> make_clock_monotonicity_checker(
    const sim::Machine& machine) {
  return std::make_unique<ClockMonotonicityChecker>(machine);
}

void register_default_checkers(sim::CheckRegistry& registry,
                               const core::MemoryManager& mm,
                               const sim::Machine& machine) {
  for (Asid s = 0; s < mm.num_spaces(); ++s)
    registry.add(std::make_unique<PsptConsistencyChecker>(
        mm.space(s), scoped_name("pspt-consistency", mm, s)));
  registry.add(make_tlb_consistency_checker(mm, machine));
  registry.add(make_frame_table_checker(mm));
  for (Asid s = 0; s < mm.num_spaces(); ++s)
    registry.add(std::make_unique<PolicyAccountingChecker>(
        mm.space(s), scoped_name("policy-accounting", mm, s)));
  registry.add(make_clock_monotonicity_checker(machine));
}

}  // namespace cmcp::check
