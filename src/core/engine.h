// The deterministic virtual-time engine that core::Simulation drives, with
// one barrier group per tenant core block.
//
// Always execute the op of the earliest core next, ties broken by core id,
// so shared-resource queueing (PCIe link, page-table locks, invalidation
// slot) resolves in a single reproducible (virtual_time, core_id) order.
//
// Winner tree (core/event_tree.h, docs/performance.md). One packed
// (time << 11 | core) key per core; the tree's root is the next event.
// After each event the engine re-keys the core's leaf and re-reads the
// root, so a core keeps running while it stays the earliest, capped by the
// next periodic tick. Keys only go stale LOW (shootdown interrupts advance
// receivers' clocks); a stale root is re-keyed before it runs, so the event
// order equals the one-event-at-a-time order exactly.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/memory_manager.h"
#include "sim/machine.h"
#include "workloads/access_stream.h"

namespace cmcp::core {

/// One simulated core's slice of the run.
struct EngineCoreInit {
  std::unique_ptr<wl::AccessStream> stream;
  Asid tenant = 0;     ///< address space the core belongs to
  Vpn area_base = 0;   ///< base VPN of the tenant's computation area
};

/// One barrier group: wl::OpKind::kBarrier synchronizes the cores
/// [first_core, first_core + num_cores) and nobody else.
struct EngineGroup {
  CoreId first_core = 0;
  CoreId num_cores = 0;
};

/// Run every core's stream to completion. `cores` has one entry per app
/// core; `groups` partitions them (group index == tenant asid). Aborts via
/// CMCP_CHECK if any group deadlocks at a barrier.
void run_engine(sim::Machine& machine, MemoryManager& mm,
                std::span<EngineCoreInit> cores,
                std::span<const EngineGroup> groups);

}  // namespace cmcp::core
