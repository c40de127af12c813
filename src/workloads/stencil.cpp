// SCALE analogue: RIKEN's climate/weather stencil code — multiple field
// arrays over a horizontal grid with depth-2 halo exchange between
// neighbouring domain strips.
//
// Sharing profile (paper Fig. 6d): the strictest of the four — well over
// half the pages are core-private and essentially all the rest are shared by
// exactly two neighbouring cores, with a handful of globally shared pages
// (reductions, boundary conditions).
#include <algorithm>
#include <vector>

#include "workloads/generators.h"
#include "workloads/partition_util.h"

namespace cmcp::wl::detail {

namespace {
constexpr std::uint32_t kIterations = 6;
constexpr Cycles kComputePerPage = 13000;

constexpr std::uint32_t kFields = 8;          ///< prognostic/diagnostic arrays
constexpr std::uint64_t kFieldPages = 3000;   ///< pages per field (at scale 1)
constexpr std::uint64_t kGlobalPages = 16;    ///< globally shared pages
/// Fraction of each field's pages a time step visits (vertical-level
/// padding and diagnostic-only levels stay untouched — this is why SCALE
/// tolerates constraint down to ~55%, paper Fig. 8).
constexpr double kFieldTouchedFraction = 0.58;
constexpr double kHaloFraction = 0.16;    ///< depth-2 halo as block fraction
constexpr double kBoundaryJitter = 0.02;  ///< static decomposition: tiny drift

// Deterministic membership for the touched subset of a field. Clustered in
// 16-page (64 kB) runs: untouched vertical levels are contiguous, so 64 kB
// groups are either fully active or fully idle (Fig. 10d's behaviour).
bool page_touched(Vpn page, std::uint64_t seed, double fraction) {
  std::uint64_t x = (page / 16) * 0xd1342543de82ef95ULL + seed;
  x ^= x >> 29;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 32;
  return static_cast<double>(x >> 11) * 0x1.0p-53 < fraction;
}

/// One dynamics phase per field, then the diagnostics.
constexpr std::uint32_t kPhasesPerStep = kFields + 1;

class ScalePlan final : public PhasePlan {
 public:
  explicit ScalePlan(const WorkloadParams& base);

  std::uint32_t phases() const override { return kIterations * kPhasesPerStep; }
  std::uint64_t footprint_base_pages() const override {
    return globals_base_ + kGlobalPages;
  }
  void emit(std::uint32_t phase, CoreId c, std::vector<Op>& out) const override;

 private:
  std::uint64_t field_pages_;
  Vpn globals_base_;
  std::uint64_t halo_;
  /// Touched field pages in ascending order. Field f starts at page
  /// f * field_pages_, so these are their vpns.
  std::vector<Vpn> touched_;
  /// One draw per dynamics phase.
  BoundsTable bounds_;
};

ScalePlan::ScalePlan(const WorkloadParams& base)
    : field_pages_(scaled(kFieldPages, base.scale)),
      globals_base_(static_cast<Vpn>(kFields) * field_pages_),
      halo_(std::max<std::uint64_t>(
          static_cast<std::uint64_t>(kHaloFraction *
                                     static_cast<double>(field_pages_) /
                                     base.cores),
          1)),
      bounds_(base.cores) {
  for (Vpn p = 0; p < globals_base_; ++p)
    if (page_touched(p, base.seed, kFieldTouchedFraction)) touched_.push_back(p);
  Rng rng(base.seed);
  for (std::uint32_t draw = 0; draw < kIterations * kFields; ++draw)
    bounds_.draw(field_pages_, kBoundaryJitter, rng);
}

void ScalePlan::emit(std::uint32_t phase, CoreId c, std::vector<Op>& out) const {
  ScheduleBuilder sb(kComputePerPage, out);
  const std::uint32_t step = phase / kPhasesPerStep;
  const std::uint32_t f = phase % kPhasesPerStep;
  if (f == kFields) {
    // Diagnostics: global reductions touch the shared pages on every core.
    sb.touch(globals_base_, kGlobalPages, /*write=*/true, /*repeat=*/1);
    return;
  }

  // Dynamics: sweep the touched columns of field f, re-reading the
  // neighbour halo strips throughout the sweep (depth-2 stencil).
  const Vpn field_base = static_cast<Vpn>(f) * field_pages_;
  const auto bounds = bounds_[step * kFields + f];
  const std::uint64_t bb = bounds[c];
  const std::uint64_t be = bounds[c + 1];
  // Halo pages: tails of both neighbouring strips, the left one walked
  // away from the boundary.
  const std::uint64_t left = std::min(halo_, bb);
  const std::uint64_t halo_count = left + std::min(halo_, field_pages_ - be);
  const auto halo_page = [&](std::uint64_t h) {
    return h < left ? field_base + bb - 1 - h : field_base + be + (h - left);
  };

  // Touched columns of the own strip, in sweep order.
  const auto own =
      std::lower_bound(touched_.begin(), touched_.end(), field_base + bb);
  const auto own_end = std::lower_bound(own, touched_.end(), field_base + be);
  const auto own_count = static_cast<std::size_t>(own_end - own);

  const std::size_t halo_every =
      halo_count == 0
          ? own_count + 1
          : std::max<std::size_t>(own_count / (2 * halo_count + 1), 1);
  std::uint64_t hi = 0;        // next halo page, cycling over the list
  std::size_t until_halo = 0;  // own pages before the next halo read
  for (auto page = own; page != own_end; ++page) {
    // Gather + update in place: read-modify-write of the column.
    sb.touch_page_compute(*page, /*write=*/true, /*repeat=*/2);
    if (until_halo == 0 && halo_count != 0) {
      sb.touch_page_compute(halo_page(hi), /*write=*/false, /*repeat=*/2);
      if (++hi == halo_count) hi = 0;
    }
    if (until_halo == 0) until_halo = halo_every;
    --until_halo;
  }
}

}  // namespace

std::shared_ptr<const PhasePlan> plan_scale(const WorkloadParams& base) {
  return std::make_shared<const ScalePlan>(base);
}

}  // namespace cmcp::wl::detail

