// Shared host <-> device PCIe link.
//
// Modelled as two independent directional channels (PCIe is full duplex),
// each a busy-until timeline: a transfer occupies its channel for
// setup + bytes/bandwidth, and concurrent faults queue behind each other.
// This queueing — not raw latency — is what degrades throughput as the
// memory constraint tightens (paper Fig. 8 / Fig. 10). Setup and bandwidth
// are the constants of sim::CostModel.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "sim/cost_model.h"

namespace cmcp::sim {

class FaultPlan;

enum class PcieDir : std::uint8_t {
  kHostToDevice = 0,  ///< page fetch
  kDeviceToHost = 1,  ///< dirty write-back
};

/// Completion record of one transfer. With zero failures `done` is
/// start + attempt_cost and `recovery` is 0.
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
  /// Schedule a transfer that can start at `ready_at`. A non-null `plan`
  /// decides whether it fails: failed attempts and their backoff gaps occupy
  /// the channel (the descriptor holds its slot until the replay lands); a
  /// sticky failure exhausts the retry budget, resets the link, and then
  /// completes. A null plan draws nothing and means zero failures. The
  /// simulated protocol always delivers the data — what faults cost is time.
  PcieTransferOutcome transfer(PcieDir dir, Cycles ready_at,
                               std::uint64_t bytes, FaultPlan* plan);

  std::uint64_t bytes_moved(PcieDir dir) const {
    return bytes_[static_cast<int>(dir)];
  }
  std::uint64_t transfers(PcieDir dir) const {
    return transfers_[static_cast<int>(dir)];
  }

 private:
  Cycles busy_until_[2] = {0, 0};
  std::uint64_t bytes_[2] = {0, 0};
  std::uint64_t transfers_[2] = {0, 0};
};

}  // namespace cmcp::sim
