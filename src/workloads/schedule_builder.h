// Helper for workload generators: builds the per-core op schedules that
// VectorStream replays. Page references are interleaved with proportional
// compute so the compute-to-data-movement ratio of the modelled application
// survives the translation into a schedule.
#pragma once

#include <memory>
#include <vector>

#include "common/assert.h"
#include "workloads/access_stream.h"

namespace cmcp::wl {

struct WorkloadParams {
  CoreId cores = 56;
  /// Footprint multiplier: 1.0 approximates the paper's "small" setups
  /// (NPB class B / SCALE 512 MB); ~2.5 the "big" ones (class C / 1.2 GB).
  double scale = 1.0;
  std::uint64_t seed = 1234;
};

class ScheduleBuilder {
 public:
  ScheduleBuilder(CoreId cores, Cycles compute_per_page)
      : compute_per_page_(compute_per_page), schedules_(cores) {
    CMCP_CHECK(cores > 0);
  }

  /// Reference `count` consecutive pages starting at `first` on `core`,
  /// `repeat` times each, with the per-page compute interval attached (the
  /// engine executes one page per event, so cores interleave at page
  /// granularity regardless of the range length).
  void touch(CoreId core, Vpn first, std::uint64_t count, bool write,
             std::uint16_t repeat = 1) {
    if (count == 0) return;
    schedules_[core].push_back(Op::access(
        first, write, static_cast<std::uint32_t>(count), repeat,
        compute_per_page_ * repeat));
  }

  /// Single-page touch with the standard compute interval.
  void touch_page_compute(CoreId core, Vpn vpn, bool write,
                          std::uint16_t repeat = 1) {
    schedules_[core].push_back(
        Op::access(vpn, write, 1, repeat, compute_per_page_ * repeat));
  }

  /// Barrier across every core.
  void barrier_all() {
    for (auto& ops : schedules_) ops.push_back(Op::barrier());
  }

  /// Freeze and hand out the schedules (call once).
  std::vector<std::shared_ptr<const std::vector<Op>>> finish() {
    std::vector<std::shared_ptr<const std::vector<Op>>> result;
    result.reserve(schedules_.size());
    for (auto& ops : schedules_)
      result.push_back(std::make_shared<const std::vector<Op>>(std::move(ops)));
    schedules_.clear();
    return result;
  }

 private:
  Cycles compute_per_page_;
  std::vector<std::vector<Op>> schedules_;
};

}  // namespace cmcp::wl
