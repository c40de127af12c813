#include "sim/machine.h"

#include <algorithm>

#include "common/assert.h"
#include "sim/fault_plan.h"

namespace cmcp::sim {

Machine::Machine(const MachineConfig& config, unsigned num_address_spaces)
    : config_(config),
      num_address_spaces_(num_address_spaces),
      interconnect_(config_.cost) {
  CMCP_CHECK(config_.num_cores > 0);
  CMCP_CHECK(num_address_spaces_ > 0);
  CMCP_CHECK(config_.num_cores + num_address_spaces_ - 1 < CoreMask::kMaxCores);
  // One scanner pseudo-core per address space (id == num_cores + asid).
  const CoreId total = total_cores();
  clocks_.assign(total, 0);
  counters_.assign(total, metrics::CoreCounters{});
  tlbs_.reserve(total);
  for (CoreId i = 0; i < total; ++i)
    tlbs_.emplace_back(tlb_entries(config_.page_size));
  core_space_.assign(total, 0);
  for (unsigned s = 0; s < num_address_spaces_; ++s)
    core_space_[config_.num_cores + s] = s;
}

Cycles Machine::shootdown(CoreId initiator, Cycles now, const CoreMask& targets,
                          const CoreMask& holders, UnitIdx unit) {
  CMCP_CHECK(!targets.test(initiator));
  const unsigned num_targets = targets.count();
  if (num_targets == 0) return 0;

  if (config_.tlb_coherence == TlbCoherence::kHardwareDirectory)
    return hw_invalidate(initiator, now, targets, holders, unit);

  const ShootdownTiming t = interconnect_.shootdown(now, num_targets, 1);

  metrics::CoreCounters& init_ctr = counters_[initiator];
  ++init_ctr.shootdowns_initiated;
  init_ctr.cycles_lock_wait += t.lock_wait;
  init_ctr.cycles_shootdown += t.initiate + t.ack_wait;

  if (trace_ != nullptr) {
    trace_->emit({trace::EventKind::kShootdown, initiator, now,
                  t.initiator_total(), unit, num_targets, 1, t.lock_wait,
                  space_of_targets(targets)});
    const Cycles acquired = now + t.lock_wait;
    trace_->emit({trace::EventKind::kSlotHold, initiator, acquired,
                  interconnect_.slot_busy_until() - acquired, unit,
                  num_targets, 0, 0, core_space_[initiator]});
  }

  targets.for_each([&](CoreId target) {
    metrics::CoreCounters& ctr = counters_[target];
    ++ctr.ipis_received;
    ++ctr.remote_invalidations_received;
    ctr.cycles_interrupt += t.receiver_cost;
    advance(target, t.receiver_cost);
    if (holders.test(target)) tlbs_[target].invalidate(unit);
  });

  // Lost acks cost the initiator recovery time (inject_ack_faults charges
  // it to cycles_recovery).
  const Cycles extra =
      faults_ == nullptr
          ? 0
          : inject_ack_faults(initiator, now + t.initiator_total(), targets,
                              unit, core_space_[initiator]);
  return t.initiator_total() + extra;
}

Cycles Machine::inject_ack_faults(CoreId initiator, Cycles ack_time,
                                  const CoreMask& targets, UnitIdx unit,
                                  Asid asid) {
  constexpr auto kAck = static_cast<std::uint64_t>(FaultKind::kShootdownAck);
  metrics::CoreCounters& init_ctr = counters_[initiator];
  Cycles extra = 0;
  Cycles t = ack_time;
  unsigned attempt = 0;
  bool gave_up = false;
  while (faults_->next_ack_lost()) {
    ++attempt;
    if (trace_ != nullptr)
      trace_->emit({trace::EventKind::kFaultInject, initiator, t, 0, unit,
                    kAck, attempt, 0, asid});
    if (attempt >= FaultPlanConfig::kMaxRetries) {
      // Budget exhausted: stop re-sending and poll remote TLB state
      // directly. The invalidations were delivered with the first IPI round
      // (re-sends are idempotent), so the poll observes them complete and
      // TLB coherence holds.
      const Cycles poll = FaultPlanConfig::backoff(attempt);
      if (trace_ != nullptr)
        trace_->emit({trace::EventKind::kFaultGiveUp, initiator, t, poll,
                      unit, kAck, attempt, 0, asid});
      extra += poll;
      gave_up = true;
      break;
    }
    // Timeout (exponential backoff), then a re-sent IPI round. Receivers
    // recognize the duplicate and ack without repeating PTE work, but still
    // pay the interrupt.
    const Cycles wait = FaultPlanConfig::backoff(attempt);
    if (trace_ != nullptr)
      trace_->emit({trace::EventKind::kFaultRetry, initiator, t,
                    wait + config_.cost.ipi_initiate, unit, kAck, attempt,
                    wait, asid});
    extra += wait + config_.cost.ipi_initiate;
    t += wait + config_.cost.ipi_initiate;
    targets.for_each([&](CoreId target) {
      metrics::CoreCounters& ctr = counters_[target];
      ++ctr.ipis_received;
      ctr.cycles_interrupt += config_.cost.ipi_receive;
      advance(target, config_.cost.ipi_receive);
    });
  }
  if (attempt > 0) {
    const unsigned retries = attempt - (gave_up ? 1u : 0u);
    init_ctr.faults_injected += attempt;
    init_ctr.fault_retries += retries;
    if (gave_up) ++init_ctr.fault_give_ups;
    init_ctr.cycles_recovery += extra;
    faults_->record(FaultKind::kShootdownAck, asid, attempt, retries, gave_up,
                    extra);
  }
  return extra;
}

Cycles Machine::hw_invalidate(CoreId initiator, Cycles now,
                              const CoreMask& targets, const CoreMask& holders,
                              UnitIdx unit) {
  // Directory hardware: the initiator issues one directed invalidation per
  // target; receivers lose the entry without being interrupted.
  metrics::CoreCounters& init_ctr = counters_[initiator];
  ++init_ctr.shootdowns_initiated;
  const unsigned num_targets = targets.count();
  const Cycles cycles = CostModel::hw_inval_lookup +
                        CostModel::hw_inval_per_target * num_targets;
  targets.for_each([&](CoreId target) {
    ++counters_[target].remote_invalidations_received;
    if (holders.test(target)) tlbs_[target].invalidate(unit);
  });
  init_ctr.cycles_shootdown += cycles;
  if (trace_ != nullptr)
    trace_->emit({trace::EventKind::kShootdown, initiator, now, cycles, unit,
                  num_targets, 1, 0, space_of_targets(targets)});
  return cycles;
}

Cycles Machine::shootdown_batch(CoreId initiator, Cycles now,
                                std::span<const BatchItem> items) {
  if (items.empty()) return 0;
  CoreMask union_targets;
  for (const BatchItem& item : items) union_targets = union_targets | item.targets;
  union_targets.clear(initiator);
  const unsigned num_targets = union_targets.count();
  if (num_targets == 0) return 0;

  if (config_.tlb_coherence == TlbCoherence::kHardwareDirectory) {
    Cycles cycles = 0;
    for (const BatchItem& item : items) {
      CoreMask targets = item.targets;
      targets.clear(initiator);
      cycles += hw_invalidate(initiator, now, targets, item.holders, item.unit);
    }
    return cycles;
  }

  const ShootdownTiming t = interconnect_.shootdown(
      now, num_targets, static_cast<unsigned>(items.size()));

  metrics::CoreCounters& init_ctr = counters_[initiator];
  ++init_ctr.shootdowns_initiated;
  init_ctr.cycles_lock_wait += t.lock_wait;

  if (trace_ != nullptr) {
    const Cycles acquired = now + t.lock_wait;
    trace_->emit({trace::EventKind::kSlotHold, initiator, acquired,
                  interconnect_.slot_busy_until() - acquired, kInvalidUnit,
                  num_targets, 0, 0, core_space_[initiator]});
  }

  Cycles slowest_receiver = 0;
  union_targets.for_each([&](CoreId target) {
    metrics::CoreCounters& ctr = counters_[target];
    ++ctr.ipis_received;
    Tlb& target_tlb = tlbs_[target];
    std::uint64_t mine = 0;
    for (const BatchItem& item : items) {
      if (!item.targets.test(target)) continue;
      ++mine;
      if (item.holders.test(target)) target_tlb.invalidate(item.unit);
    }
    ctr.remote_invalidations_received += mine;
    const Cycles receiver_cost = config_.cost.ipi_receive + config_.cost.invlpg * mine;
    ctr.cycles_interrupt += receiver_cost;
    advance(target, receiver_cost);
    slowest_receiver = std::max(slowest_receiver, receiver_cost);
  });

  const Cycles initiator_cost = t.lock_wait + t.initiate + slowest_receiver;
  init_ctr.cycles_shootdown += t.initiate + slowest_receiver;
  if (trace_ != nullptr)
    trace_->emit({trace::EventKind::kShootdown, initiator, now, initiator_cost,
                  kInvalidUnit, num_targets, items.size(), t.lock_wait,
                  space_of_targets(union_targets)});
  const Cycles extra =
      faults_ == nullptr
          ? 0
          : inject_ack_faults(initiator, now + initiator_cost, union_targets,
                              kInvalidUnit, core_space_[initiator]);
  return initiator_cost + extra;
}

PcieTransferOutcome Machine::pcie_transfer(CoreId core, PcieDir dir,
                                           Cycles ready_at, std::uint64_t bytes,
                                           UnitIdx unit, Asid asid) {
  const PcieTransferOutcome out = pcie_.transfer(dir, ready_at, bytes, faults_);
  if (out.failures > 0) {
    const FaultKind kind =
        out.gave_up ? FaultKind::kPcieSticky : FaultKind::kPcieTransient;
    const auto kind_ord = static_cast<std::uint64_t>(kind);
    const unsigned retries = out.failures - (out.gave_up ? 1u : 0u);
    metrics::CoreCounters& ctr = counters_[core];
    ctr.faults_injected += out.failures;
    ctr.fault_retries += retries;
    if (out.gave_up) ++ctr.fault_give_ups;
    if (trace_ != nullptr) {
      Cycles t = out.start;
      for (unsigned attempt = 1; attempt <= out.failures; ++attempt) {
        trace_->emit({trace::EventKind::kFaultInject, core, t,
                      out.attempt_cost, unit, kind_ord, attempt, 0, asid});
        t += out.attempt_cost;
        if (out.gave_up && attempt == out.failures) {
          trace_->emit({trace::EventKind::kFaultGiveUp, core, t,
                        FaultPlanConfig::kLinkResetCycles, unit, kind_ord,
                        attempt, 0, asid});
          t += FaultPlanConfig::kLinkResetCycles;
        } else {
          const Cycles wait = FaultPlanConfig::backoff(attempt);
          trace_->emit({trace::EventKind::kFaultRetry, core, t, wait, unit,
                        kind_ord, attempt, wait, asid});
          t += wait;
        }
      }
    }
    faults_->record(kind, asid, out.failures, retries, out.gave_up,
                    out.recovery);
  }
  if (trace_ != nullptr)
    trace_->emit({trace::EventKind::kPcieTransfer, core, ready_at,
                  out.done - ready_at, unit, static_cast<std::uint64_t>(dir),
                  bytes, out.queue_wait, asid});
  return out;
}

}  // namespace cmcp::sim
