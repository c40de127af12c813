// Shared host <-> device PCIe link.
//
// Modelled as two independent directional channels (PCIe is full duplex),
// each a busy-until timeline: a transfer occupies its channel for
// setup + bytes/bandwidth, and concurrent faults queue behind each other.
// This queueing — not raw latency — is what degrades throughput as the
// memory constraint tightens (paper Fig. 8 / Fig. 10).
//
// The link is one of the two genuinely shared hardware resources in the
// machine (the other is the invalidation slot), so it is internally
// synchronized: its busy-until timelines and byte counters sit behind an
// annotated mutex.
#pragma once

#include <cstdint>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "sim/cost_model.h"

namespace cmcp::sim {

class FaultPlan;

enum class PcieDir : std::uint8_t {
  kHostToDevice = 0,  ///< page fetch
  kDeviceToHost = 1,  ///< dirty write-back
};

/// Completion record of a fault-aware transfer. With zero failures it is
/// arithmetic-identical to the plain transfer() path.
struct PcieTransferOutcome {
  Cycles done = 0;          ///< completion time of the (final) attempt
  Cycles queue_wait = 0;    ///< wait for the channel before the first attempt
  Cycles start = 0;         ///< first attempt's start time
  Cycles attempt_cost = 0;  ///< setup + payload cycles of one attempt
  Cycles recovery = 0;      ///< extra cycles beyond a clean transfer
  unsigned failures = 0;    ///< failed attempts before the data landed
  bool gave_up = false;     ///< retry budget exhausted; link reset taken
};

class PcieLink {
 public:
  explicit PcieLink(const CostModel& cost) : cost_(&cost) {}

  /// Schedule a transfer that can start at `ready_at`. Returns its completion
  /// time; `*queue_wait` receives the cycles spent waiting for the channel.
  Cycles transfer(PcieDir dir, Cycles ready_at, std::uint64_t bytes,
                  Cycles* queue_wait) CMCP_EXCLUDES(mu_);

  /// transfer() with `plan` deciding whether this transfer fails. Failed
  /// attempts and their backoff gaps occupy the channel (the descriptor
  /// holds its slot until the replay lands); a sticky failure exhausts the
  /// retry budget, resets the link, and then completes. The simulated
  /// protocol always delivers the data — what faults cost is time.
  PcieTransferOutcome transfer_with_faults(PcieDir dir, Cycles ready_at,
                                           std::uint64_t bytes,
                                           FaultPlan& plan)
      CMCP_EXCLUDES(mu_);

  std::uint64_t bytes_moved(PcieDir dir) const CMCP_EXCLUDES(mu_) {
    common::LockGuard lock(mu_);
    return bytes_[static_cast<int>(dir)];
  }
  std::uint64_t transfers(PcieDir dir) const CMCP_EXCLUDES(mu_) {
    common::LockGuard lock(mu_);
    return transfers_[static_cast<int>(dir)];
  }

  void reset() CMCP_EXCLUDES(mu_);

 private:
  const CostModel* cost_;  ///< immutable after construction
  mutable common::Mutex mu_;
  Cycles busy_until_[2] CMCP_GUARDED_BY(mu_) = {0, 0};
  std::uint64_t bytes_[2] CMCP_GUARDED_BY(mu_) = {0, 0};
  std::uint64_t transfers_[2] CMCP_GUARDED_BY(mu_) = {0, 0};
};

}  // namespace cmcp::sim
