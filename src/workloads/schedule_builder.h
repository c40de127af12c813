// Emission path of the generated workloads. A workload is an immutable plan
// of barrier-separated phases (PhasePlan); each core's PhaseStream asks the
// plan for one phase of that core's ops at a time, into one reusable buffer,
// so a live stream holds one phase rather than its whole schedule.
// ScheduleBuilder appends page references to that buffer with proportional
// compute attached, so the compute-to-data-movement ratio of the modelled
// application survives the translation into ops.
#pragma once

#include <cstdint>
#include <limits>
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

/// Appends one core's ops to a buffer.
class ScheduleBuilder {
 public:
  ScheduleBuilder(Cycles compute_per_page, std::vector<Op>& out)
      : compute_per_page_(compute_per_page), out_(out) {}

  /// Reference `count` consecutive pages starting at `first`, `repeat` times
  /// each, with the per-page compute interval attached (the engine executes
  /// one page per event, so cores interleave at page granularity regardless
  /// of the range length).
  void touch(Vpn first, std::uint64_t count, bool write,
             std::uint64_t repeat = 1) {
    if (count == 0) return;
    CMCP_CHECK(count <= std::numeric_limits<std::uint32_t>::max());
    CMCP_CHECK(repeat <= std::numeric_limits<std::uint16_t>::max());
    out_.push_back(Op::access(first, write, static_cast<std::uint32_t>(count),
                              static_cast<std::uint16_t>(repeat),
                              compute_per_page_ * repeat));
  }

  /// Single-page touch with the standard compute interval.
  void touch_page_compute(Vpn vpn, bool write, std::uint64_t repeat = 1) {
    touch(vpn, 1, write, repeat);
  }

 private:
  Cycles compute_per_page_;
  std::vector<Op>& out_;
};

/// A generated workload's immutable plan: everything its streams need that
/// is drawn or computed once (partition boundaries in RNG draw order,
/// exchange partitions, touched-page sets), built in its constructor. Its
/// ops are `phases()` phases, each ended by a barrier on every core.
class PhasePlan {
 public:
  virtual ~PhasePlan() = default;

  virtual std::uint32_t phases() const = 0;
  virtual std::uint64_t footprint_base_pages() const = 0;

  /// Append core `core`'s ops of phase `phase`, without its closing
  /// barrier, to `out`. Reads the plan only, so any number of streams may
  /// emit from one plan concurrently.
  virtual void emit(std::uint32_t phase, CoreId core,
                    std::vector<Op>& out) const = 0;
};

/// One core's ops of a PhasePlan, generated one phase at a time into a
/// buffer that is reused from phase to phase.
class PhaseStream final : public AccessStream {
 public:
  PhaseStream(std::shared_ptr<const PhasePlan> plan, CoreId core)
      : plan_(std::move(plan)), core_(core) {}

  Op next() override {
    if (pos_ == buf_.size() && !refill()) return Op::end();
    return buf_[pos_++];
  }

 private:
  bool refill() {
    if (phase_ == plan_->phases()) return false;
    buf_.clear();
    pos_ = 0;
    plan_->emit(phase_++, core_, buf_);
    buf_.push_back(Op::barrier());
    return true;
  }

  std::shared_ptr<const PhasePlan> plan_;
  CoreId core_;
  std::uint32_t phase_ = 0;
  std::vector<Op> buf_;
  std::size_t pos_ = 0;
};

}  // namespace cmcp::wl
