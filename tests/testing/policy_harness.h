// Shared test scaffolding: a fake PolicyHost and a page factory so policy
// unit tests can drive replacement logic without a machine or page tables.
#pragma once

#include <deque>
#include <vector>

#include "mm/page_registry.h"
#include "policy/replacement_policy.h"

namespace cmcp::testing {

class FakePolicyHost final : public policy::PolicyHost {
 public:
  FakePolicyHost(std::uint64_t capacity, unsigned cores)
      : capacity_(capacity), cores_(cores) {}

  std::uint64_t capacity_units() const override { return capacity_; }
  unsigned num_cores() const override { return cores_; }

  /// Counts are served by unit; units never set map on one core.
  unsigned core_map_count(const mm::ResidentPage& page) const override {
    return page.unit < counts_.size() ? counts_[page.unit] : 1;
  }

  bool unit_accessed(const mm::ResidentPage& page) const override {
    return page.unit < accessed_.size() && accessed_[page.unit];
  }

  Cycles eviction_start() const override { return 0; }

  Cycles clear_accessed_and_shootdown(mm::ResidentPage& page,
                                      CoreId /*initiator*/,
                                      Cycles /*now*/) override {
    if (page.unit < accessed_.size() && accessed_[page.unit]) {
      accessed_[page.unit] = false;
      ++shootdowns_;
      return shootdown_cost;
    }
    return 0;
  }

  void set_accessed(UnitIdx unit, bool value = true) {
    if (unit >= accessed_.size()) accessed_.resize(unit + 1, false);
    accessed_[unit] = value;
  }

  void set_core_map_count(UnitIdx unit, unsigned count) {
    if (unit >= counts_.size()) counts_.resize(unit + 1, 1);
    counts_[unit] = count;
  }

  std::uint64_t shootdowns() const { return shootdowns_; }

  Cycles shootdown_cost = 1000;

 private:
  std::uint64_t capacity_;
  unsigned cores_;
  std::deque<bool> accessed_;
  std::vector<unsigned> counts_;  ///< [unit] core-map count
  std::uint64_t shootdowns_ = 0;
};

/// Makes resident pages for policy tests the way an address space does: a
/// coremap entry from its own FrameAllocator, indexed in a registry over
/// units [0, units) with a frame for every unit. Records each page's
/// core-map count on the host the policy reads it from.
class PageFactory {
 public:
  static constexpr UnitIdx kDefaultUnits = 1 << 14;

  explicit PageFactory(FakePolicyHost& host, UnitIdx units = kDefaultUnits)
      : host_(host), frames_(units, PageSizeClass::k4K, 1), registry_(units) {}

  mm::ResidentPage& make(UnitIdx unit, unsigned core_map_count = 1) {
    host_.set_core_map_count(unit, core_map_count);
    mm::ResidentPage* page = frames_.allocate(0, unit);
    CMCP_CHECK(page != nullptr);
    registry_.insert(*page);
    return *page;
  }

  /// Evict a page the policy has already dropped: unindex it, free its
  /// frame.
  void erase(mm::ResidentPage& page) {
    registry_.erase(page);
    frames_.free(page);
  }

 private:
  FakePolicyHost& host_;
  mm::FrameAllocator frames_;
  mm::PageRegistry registry_;
};

/// Run a policy through an access trace with the given capacity, evicting
/// via pick_victim when full. Returns the number of "faults" (insertions).
std::uint64_t run_trace(policy::ReplacementPolicy& policy, PageFactory& pages,
                        const std::vector<UnitIdx>& trace,
                        std::uint64_t capacity);

/// Single-stat probe for test assertions, built on the stats() visitor
/// (the supported enumeration API). Unknown keys return 0.
inline std::uint64_t stat_of(const policy::ReplacementPolicy& policy,
                             std::string_view key) {
  std::uint64_t out = 0;
  policy.stats([&](std::string_view name, std::uint64_t value) {
    if (name == key) out = value;
  });
  return out;
}

}  // namespace cmcp::testing
