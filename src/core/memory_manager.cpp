#include "core/memory_manager.h"

#include "common/assert.h"
#include "sim/fault_plan.h"

namespace cmcp::core {

MemoryManager::MemoryManager(sim::Machine& machine,
                             const std::vector<AddressSpaceSpec>& specs,
                             std::uint64_t shared_capacity_units,
                             mm::PartitionKind partition)
    : machine_(machine),
      allocator_(shared_capacity_units, specs.at(0).area.page_size()),
      partition_(partition, shared_capacity_units,
                 static_cast<Asid>(specs.size())),
      interference_(specs.size() * specs.size(), 0) {
  CMCP_CHECK(shared_capacity_units > 0);
  CMCP_CHECK_MSG(machine.num_address_spaces() == specs.size(),
                 "machine must be built with one scanner pseudo-core per space");
  for (Asid asid = 0; asid < specs.size(); ++asid) {
    const AddressSpaceSpec& spec = specs[asid];
    CMCP_CHECK_MSG(spec.area.page_size() == specs[0].area.page_size(),
                   "all tenants must share one mapping-unit size");
    spaces_.push_back(std::make_unique<AddressSpace>(*this, asid, spec));
  }
}

Cycles MemoryManager::access(CoreId core, Vpn vpn, bool write, Cycles now) {
  Cycles c = spaces_[machine_.space_of_core(core)]->access(core, vpn, write, now);
  sim::FaultPlan* const plan = machine_.fault_plan();
  if (plan != nullptr) {
    // Straggler core: every access inside the afflicted window costs
    // `kStragglerMult` times as much (a thermally throttled or contended
    // core). The decision is a pure hash of (seed, core, window index), so
    // it is independent of evaluation order and replays bit-identically.
    bool window_start = false;
    const std::uint64_t mult = plan->straggler_mult_at(core, now, &window_start);
    if (mult > 1) {
      const Cycles extra = c * (mult - 1);
      metrics::CoreCounters& ctr = machine_.counters(core);
      ctr.cycles_straggler += extra;
      const Asid asid = machine_.space_of_core(core);
      if (window_start) {
        ++ctr.faults_injected;
        plan->record(sim::FaultKind::kStraggler, asid, 1, 0, false, 0);
        if (sim::trace::EventSink* tr = machine_.trace()) {
          constexpr auto kStrag =
              static_cast<std::uint64_t>(sim::FaultKind::kStraggler);
          tr->emit({sim::trace::EventKind::kFaultInject, core, now,
                    sim::FaultPlanConfig::kStragglerWindow, kInvalidUnit,
                    kStrag, 1, mult, asid});
        }
      }
      plan->record_straggler_cycles(extra);
      c += extra;
    }
  }
  return c;
}

void MemoryManager::run_periodic(Cycles watermark) {
  for (const std::unique_ptr<AddressSpace>& space : spaces_)
    space->run_periodic(watermark);
}

Cycles MemoryManager::evict_for(Asid requester, CoreId core, Cycles now) {
  const Asid victim_space = partition_.choose_victim_space(requester, allocator_);
  return spaces_[victim_space]->evict_one(core, now);
}

}  // namespace cmcp::core
