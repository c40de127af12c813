#include "testing/policy_harness.h"

#include <unordered_set>

namespace cmcp::testing {

std::uint64_t run_trace(policy::ReplacementPolicy& policy, PageFactory& pages,
                        const std::vector<UnitIdx>& trace,
                        std::uint64_t capacity) {
  std::unordered_set<UnitIdx> resident;
  std::uint64_t faults = 0;
  for (const UnitIdx unit : trace) {
    if (resident.contains(unit)) continue;
    ++faults;
    if (resident.size() >= capacity) {
      Cycles extra = 0;
      mm::ResidentPage* victim = policy.pick_victim(/*faulting_core=*/0, extra);
      CMCP_CHECK(victim != nullptr);
      resident.erase(victim->unit);
      policy.on_evict(*victim);
      pages.erase(*victim);
    }
    policy.on_insert(pages.make(unit));
    resident.insert(unit);
  }
  return faults;
}

}  // namespace cmcp::testing
