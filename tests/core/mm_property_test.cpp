// Whole-manager property test: random access traces against a reference
// model, across page-table kinds, policies and page sizes. Checks the
// bookkeeping invariants every experiment depends on:
//   * residency never exceeds capacity; frames in use == resident units
//   * a page-table mapping exists only for resident units
//   * PSPT core-map counts equal the set of cores that touched the unit
//     since it last became resident
//   * every major fault moves exactly one unit of data device-ward
//   * counters are internally consistent (evictions vs faults vs capacity)
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <string>

#include "common/rng.h"
#include "core/memory_manager.h"

namespace cmcp::core {
namespace {

struct Params {
  PageTableKind pt;
  PolicyKind policy;
  PageSizeClass size;
  std::uint64_t seed;
};

class MmPropertyTest : public ::testing::TestWithParam<Params> {};

TEST_P(MmPropertyTest, BookkeepingInvariantsUnderRandomTrace) {
  const Params& p = GetParam();
  constexpr CoreId kCores = 6;
  const std::uint64_t base_pages = 64 * base_pages_per_unit(p.size);
  const std::uint64_t capacity = 24;  // of 64 units

  sim::MachineConfig mc;
  mc.num_cores = kCores;
  mc.page_size = p.size;
  sim::Machine machine(mc);
  mm::ComputationArea area(0, base_pages, p.size);
  MemoryManagerConfig config;
  config.pt_kind = p.pt;
  config.policy.kind = p.policy;
  MemoryManager mm(machine, {{area, config, 0, kCores}}, capacity,
                   mm::PartitionKind::kNone);

  // Reference: which units are resident, and who mapped them since load.
  std::map<UnitIdx, std::set<CoreId>> resident;
  Rng rng(p.seed);
  Cycles watermark = 0;

  for (int step = 0; step < 6000; ++step) {
    const CoreId core = static_cast<CoreId>(rng.next_below(kCores));
    const Vpn vpn = rng.next_below(base_pages);
    const UnitIdx unit = area.unit_of(vpn);
    const bool write = (rng.next() & 1) != 0;

    const bool was_resident = resident.contains(unit);
    const auto faults_before = machine.counters(core).major_faults;
    const auto bytes_before = machine.counters(core).pcie_bytes_in;

    const Cycles now = machine.clock(core);
    machine.advance(core, mm.access(core, vpn, write, now));
    watermark = std::max(watermark, machine.clock(core));
    mm.run_periodic(watermark);

    // Fault/data-movement consistency for this access.
    const auto faults_after = machine.counters(core).major_faults;
    if (!was_resident) {
      ASSERT_EQ(faults_after, faults_before + 1);
      ASSERT_EQ(machine.counters(core).pcie_bytes_in,
                bytes_before + unit_bytes(p.size));
    } else {
      ASSERT_EQ(faults_after, faults_before);
    }

    // Update the reference model: the touched unit is now resident and
    // mapped by this core; any unit evicted by the manager disappears.
    std::set<UnitIdx> still_resident;
    mm.space(0).registry();  // (const access below)
    for (auto it = resident.begin(); it != resident.end();) {
      if (mm.space(0).registry().find(it->first) == nullptr)
        it = resident.erase(it);  // evicted
      else
        ++it;
    }
    resident[unit].insert(core);
    // Eviction wipes mapping history; if our unit was just (re)loaded the
    // only mapper is `core`.
    if (!was_resident) resident[unit] = {core};

    // --- invariants -------------------------------------------------------
    ASSERT_LE(mm.space(0).registry().size(), capacity);
    ASSERT_EQ(mm.space(0).registry().size(), resident.size());

    for (const auto& [u, cores] : resident) {
      const mm::ResidentPage* page = mm.space(0).registry().find(u);
      ASSERT_NE(page, nullptr);
      ASSERT_TRUE(mm.space(0).page_table().any_mapping(u));
      if (p.pt == PageTableKind::kPspt) {
        // Exact core-map count == cores that touched since residency.
        ASSERT_EQ(mm.space(0).page_table().core_map_count(u), cores.size())
            << "unit " << u << " at step " << step;
        for (CoreId c = 0; c < kCores; ++c)
          ASSERT_EQ(mm.space(0).page_table().has_mapping(c, u), cores.contains(c));
      }
    }
    (void)still_resident;
  }

  // Global counter consistency: evictions == majors - resident-at-end.
  metrics::CoreCounters total;
  for (CoreId c = 0; c < machine.num_cores(); ++c) total += machine.counters(c);
  ASSERT_EQ(total.evictions, total.major_faults - mm.space(0).registry().size());
  // Every writeback corresponds to a dirty eviction; bytes match counts.
  ASSERT_EQ(total.pcie_bytes_out, total.writebacks * unit_bytes(p.size));
  ASSERT_EQ(total.pcie_bytes_in, total.major_faults * unit_bytes(p.size));
}

/// The case's fields as an identifier, e.g. PSPT_ARC_f_4kB_s14.
std::string label(const Params& p) {
  std::string name = std::string(to_string(p.pt)) + "_" +
                     std::string(to_string(p.policy)) + "_" +
                     std::string(to_string(p.size)) + "_s" +
                     std::to_string(p.seed);
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  return label(info.param);
}

// gtest would print the struct as raw bytes, padding included, and CTest
// names each case from that printout; printing the fields keeps the
// registered names the same from build to build.
void PrintTo(const Params& p, std::ostream* os) { *os << label(p); }

INSTANTIATE_TEST_SUITE_P(
    Matrix, MmPropertyTest,
    ::testing::Values(
        Params{PageTableKind::kPspt, PolicyKind::kFifo, PageSizeClass::k4K, 1},
        Params{PageTableKind::kPspt, PolicyKind::kLru, PageSizeClass::k4K, 2},
        Params{PageTableKind::kPspt, PolicyKind::kCmcp, PageSizeClass::k4K, 3},
        Params{PageTableKind::kPspt, PolicyKind::kClock, PageSizeClass::k4K, 4},
        Params{PageTableKind::kPspt, PolicyKind::kLfu, PageSizeClass::k4K, 5},
        Params{PageTableKind::kPspt, PolicyKind::kRandom, PageSizeClass::k4K, 6},
        Params{PageTableKind::kPspt, PolicyKind::kCmcpDynamicP,
               PageSizeClass::k4K, 7},
        Params{PageTableKind::kRegular, PolicyKind::kFifo, PageSizeClass::k4K, 8},
        Params{PageTableKind::kRegular, PolicyKind::kLru, PageSizeClass::k4K, 9},
        Params{PageTableKind::kPspt, PolicyKind::kCmcp, PageSizeClass::k64K, 10},
        Params{PageTableKind::kPspt, PolicyKind::kFifo, PageSizeClass::k64K, 11},
        Params{PageTableKind::kPspt, PolicyKind::kCmcp, PageSizeClass::k2M, 12},
        Params{PageTableKind::kRegular, PolicyKind::kCmcp, PageSizeClass::k4K, 13},
        Params{PageTableKind::kPspt, PolicyKind::kArc, PageSizeClass::k4K, 14}),
    param_name);

}  // namespace
}  // namespace cmcp::core
