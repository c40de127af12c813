#include "check/invariant_checkers.h"

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/address_space.h"
#include "mm/pspt.h"

namespace cmcp::check {

namespace {

using sim::CheckPoint;
using sim::CheckViolation;

/// PSPT consistency (paper section 2.3): for every resident unit the
/// directory's core-map count, the mapping-core mask, the per-core private
/// PTEs, and the ResidentPage's cached count must all agree — CMCP's whole
/// priority signal is this number. One instance per address space (each
/// space owns its own table and registry).
class PsptConsistencyChecker final : public sim::Checker {
 public:
  PsptConsistencyChecker(const core::AddressSpace& space, std::string name)
      : space_(space), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  void check(CheckPoint /*point*/, std::vector<CheckViolation>& out) override {
    const mm::PageTable& pt = space_.page_table();
    // Both page-table kinds are built for the space's cores and never set a
    // mask bit at or above num_cores(), so only the words covering them are
    // counted and walked — a full-width count costs 17 popcounts per page.
    const std::size_t words = (space_.num_cores() + 63) / 64;
    std::uint64_t mapped_resident = 0;
    std::uint64_t count_sum = 0;
    space_.registry().for_each([&](const mm::ResidentPage& pg) {
      const unsigned count = pt.core_map_count(pg.unit);
      const CoreMask mask = pt.mapping_cores(pg.unit);
      const unsigned population = mask.count(words);
      count_sum += count;
      if (count > 0) ++mapped_resident;
      if (population != count)
        out.push_back({std::string(name()), "core-map-count",
                       "directory count " + std::to_string(count) +
                           " != mapping-mask population " +
                           std::to_string(population),
                       pg.unit, kInvalidCore});
      if (pg.core_map_count != count)
        out.push_back({std::string(name()), "cached-count",
                       "ResidentPage::core_map_count " +
                           std::to_string(pg.core_map_count) +
                           " != page-table count " + std::to_string(count),
                       pg.unit, kInvalidCore});
      if (pt.any_mapping(pg.unit) != (count > 0))
        out.push_back({std::string(name()), "any-mapping",
                       "any_mapping() disagrees with core_map_count()",
                       pg.unit, kInvalidCore});
      mask.for_each(words, [&](CoreId core) {
        if (!pt.has_mapping(core, pg.unit))
          out.push_back({std::string(name()), "mask-without-pte",
                         "mapping mask names a core with no private PTE",
                         pg.unit, core});
      });
      if (count > 0 && pt.pfn_of(pg.unit) != pg.pfn)
        out.push_back({std::string(name()), "pfn-mismatch",
                       "page-table pfn " + std::to_string(pt.pfn_of(pg.unit)) +
                           " != registry pfn " + std::to_string(pg.pfn),
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
    if (const auto* pspt = dynamic_cast<const mm::Pspt*>(&pt)) {
      std::uint64_t per_core_sum = 0;
      for (CoreId c = 0; c < space_.num_cores(); ++c)
        per_core_sum += pspt->mapped_units_of_core(c);
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
/// the invariant is strict: cached => mapped. Each core's cached units are
/// checked against its OWN address space's table (unit indices are
/// space-local; the core -> space map disambiguates them).
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
      });
    }
  }

 private:
  const core::MemoryManager& mm_;
  const sim::Machine& machine_;
};

/// Frame accounting: the allocator's in-use count must equal the number of
/// resident pages across every address space (each holds exactly one
/// frame), and no two resident pages — of any space — may share a frame. A
/// double-free or double-allocate here corrupts every downstream figure.
class FrameRefcountChecker final : public sim::Checker {
 public:
  explicit FrameRefcountChecker(const core::MemoryManager& mm) : mm_(mm) {}

  std::string_view name() const override { return "frame-refcount"; }

  void check(CheckPoint /*point*/, std::vector<CheckViolation>& out) override {
    const mm::FrameAllocator& alloc = mm_.allocator();
    std::uint64_t resident_total = 0;
    for (Asid s = 0; s < mm_.num_spaces(); ++s)
      resident_total += mm_.space(s).registry().size();
    if (alloc.in_use() != resident_total)
      out.push_back({std::string(name()), "in-use-vs-resident",
                     "allocator has " + std::to_string(alloc.in_use()) +
                         " frames in use but " +
                         std::to_string(resident_total) +
                         " pages are resident",
                     kInvalidUnit, kInvalidCore});
    seen_.clear();
    for (Asid s = 0; s < mm_.num_spaces(); ++s) {
      mm_.space(s).registry().for_each([&](const mm::ResidentPage& pg) {
        if (pg.pfn == kInvalidPfn) {
          out.push_back({std::string(name()), "invalid-pfn",
                         "resident page holds kInvalidPfn", pg.unit,
                         kInvalidCore});
          return;
        }
        if (!seen_.insert(pg.pfn).second)
          out.push_back({std::string(name()), "frame-aliased",
                         "frame " + std::to_string(pg.pfn) +
                             " is held by more than one resident page",
                         pg.unit, kInvalidCore});
      });
    }
  }

 private:
  const core::MemoryManager& mm_;
  std::unordered_set<Pfn> seen_;  ///< scratch, reused across sweeps
};

/// Frame ownership (multi-tenant QoS accounting): every frame a space's
/// resident page holds must be recorded by the allocator as owned by that
/// space's asid, each space's resident-set size must equal the allocator's
/// per-tenant in-use count, and the per-tenant counts must cross-foot to
/// the total. The partition policy's floors and targets are computed from
/// these counters — drift here silently breaks the QoS guarantees.
class FrameOwnershipChecker final : public sim::Checker {
 public:
  explicit FrameOwnershipChecker(const core::MemoryManager& mm) : mm_(mm) {}

  std::string_view name() const override { return "frame-ownership"; }

  void check(CheckPoint /*point*/, std::vector<CheckViolation>& out) override {
    const mm::FrameAllocator& alloc = mm_.allocator();
    std::uint64_t owned_total = 0;
    for (Asid s = 0; s < mm_.num_spaces(); ++s) {
      const core::AddressSpace& space = mm_.space(s);
      space.registry().for_each([&](const mm::ResidentPage& pg) {
        if (pg.pfn == kInvalidPfn) return;  // frame-refcount reports this
        const Asid owner = alloc.owner_of(pg.pfn);
        if (owner != s)
          out.push_back({std::string(name()), "wrong-owner",
                         "frame " + std::to_string(pg.pfn) +
                             " is resident in space " + std::to_string(s) +
                             " but the allocator records owner " +
                             (owner == kInvalidAsid ? std::string("<free>")
                                                    : std::to_string(owner)),
                         pg.unit, kInvalidCore});
      });
      const std::uint64_t held = alloc.in_use_by(s);
      if (held != space.registry().size())
        out.push_back({std::string(name()), "per-space-count",
                       "allocator says space " + std::to_string(s) +
                           " holds " + std::to_string(held) +
                           " frames but its registry has " +
                           std::to_string(space.registry().size()) +
                           " resident pages",
                       kInvalidUnit, kInvalidCore});
      owned_total += held;
    }
    if (owned_total != alloc.in_use())
      out.push_back({std::string(name()), "ownership-crossfoot",
                     "per-tenant in-use counts sum to " +
                         std::to_string(owned_total) + " but " +
                         std::to_string(alloc.in_use()) +
                         " frames are in use",
                     kInvalidUnit, kInvalidCore});
  }

 private:
  const core::MemoryManager& mm_;
};

/// Quarantine integrity (fault injection, docs/robustness.md): a
/// quarantined frame is retired for the run — the allocator must record no
/// owner for it, no address space may still hold it in a resident set, the
/// quarantine bitmap must cross-foot to the cached count, and the frame
/// partition must have been recomputed against the shrunk usable capacity
/// (the MemoryManager::on_frames_quarantined hook fired). A frame that
/// leaks back into service re-exposes the ECC poison the quarantine exists
/// to contain.
class FrameQuarantineChecker final : public sim::Checker {
 public:
  explicit FrameQuarantineChecker(const core::MemoryManager& mm) : mm_(mm) {}

  std::string_view name() const override { return "frame-quarantine"; }

  void check(CheckPoint /*point*/, std::vector<CheckViolation>& out) override {
    const mm::FrameAllocator& alloc = mm_.allocator();
    std::uint64_t scanned = 0;
    for (std::uint64_t slot = 0; slot < alloc.capacity(); ++slot) {
      const Pfn pfn = slot * alloc.frames_per_unit();
      if (!alloc.is_quarantined(pfn)) continue;
      ++scanned;
      const Asid owner = alloc.owner_of(pfn);
      if (owner != kInvalidAsid)
        out.push_back({std::string(name()), "quarantined-with-owner",
                       "quarantined frame " + std::to_string(pfn) +
                           " is still charged to asid " +
                           std::to_string(owner),
                       kInvalidUnit, kInvalidCore});
    }
    if (scanned != alloc.quarantined_count())
      out.push_back({std::string(name()), "quarantine-crossfoot",
                     "quarantine bitmap marks " + std::to_string(scanned) +
                         " frames but the counter says " +
                         std::to_string(alloc.quarantined_count()),
                     kInvalidUnit, kInvalidCore});
    for (Asid s = 0; s < mm_.num_spaces(); ++s) {
      mm_.space(s).registry().for_each([&](const mm::ResidentPage& pg) {
        if (pg.pfn == kInvalidPfn) return;  // frame-refcount reports this
        if (alloc.is_quarantined(pg.pfn))
          out.push_back({std::string(name()), "resident-on-quarantined",
                         "space " + std::to_string(s) +
                             " holds quarantined frame " +
                             std::to_string(pg.pfn) + " resident",
                         pg.unit, kInvalidCore});
      });
    }
    if (mm_.partition().capacity() != alloc.usable_capacity())
      out.push_back({std::string(name()), "stale-partition-capacity",
                     "partition targets computed for " +
                         std::to_string(mm_.partition().capacity()) +
                         " frames but usable capacity is " +
                         std::to_string(alloc.usable_capacity()),
                     kInvalidUnit, kInvalidCore});
  }

 private:
  const core::MemoryManager& mm_;
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
class ClockMonotonicityChecker final : public sim::Checker {
 public:
  explicit ClockMonotonicityChecker(const sim::Machine& machine)
      : machine_(machine),
        last_(static_cast<std::size_t>(machine.total_cores()), 0) {}

  std::string_view name() const override { return "clock-monotonic"; }

  void check(CheckPoint /*point*/, std::vector<CheckViolation>& out) override {
    for (CoreId core = 0; core < machine_.total_cores(); ++core) {
      const Cycles now = machine_.clock(core);
      if (now < last_[core])
        out.push_back({std::string(name()), "clock-regression",
                       "clock moved from " + std::to_string(last_[core]) +
                           " back to " + std::to_string(now),
                       kInvalidUnit, core});
      last_[core] = now;
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

std::unique_ptr<sim::Checker> make_frame_refcount_checker(
    const core::MemoryManager& mm) {
  return std::make_unique<FrameRefcountChecker>(mm);
}

std::unique_ptr<sim::Checker> make_frame_ownership_checker(
    const core::MemoryManager& mm) {
  return std::make_unique<FrameOwnershipChecker>(mm);
}

std::unique_ptr<sim::Checker> make_frame_quarantine_checker(
    const core::MemoryManager& mm) {
  return std::make_unique<FrameQuarantineChecker>(mm);
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
  registry.add(make_frame_refcount_checker(mm));
  registry.add(make_frame_ownership_checker(mm));
  registry.add(make_frame_quarantine_checker(mm));
  for (Asid s = 0; s < mm.num_spaces(); ++s)
    registry.add(std::make_unique<PolicyAccountingChecker>(
        mm.space(s), scoped_name("policy-accounting", mm, s)));
  registry.add(make_clock_monotonicity_checker(machine));
}

}  // namespace cmcp::check
