// NPB LU analogue: SSOR wavefront sweeps over a 3D grid.
//
// Each iteration performs a lower and an upper triangular sweep plane by
// plane (barrier-separated wavefront steps). The two sweeps decompose the
// planes along offset boundaries and exchange deeper halos, so pages spread
// over more cores than CG's (paper Fig. 6b: less regular, majority of pages
// still mapped by <= 3 cores, tail reaching ~6).
#include <array>
#include <vector>

#include "workloads/generators.h"
#include "workloads/partition_util.h"

namespace cmcp::wl::detail {

namespace {
constexpr std::uint32_t kIterations = 4;
constexpr Cycles kComputePerPage = 26000;

constexpr std::uint64_t kUPages = 12000;    ///< solution array (at scale 1)
constexpr std::uint64_t kRsdPages = 9000;   ///< residual array
constexpr std::uint64_t kFluxPages = 3000;  ///< flux scratch
constexpr std::uint32_t kPlanes = 12;       ///< wavefront steps per sweep
constexpr double kBoundaryJitter = 0.10;
constexpr double kHaloFraction = 0.12;
/// Fraction of each block's segments processed by a displaced core in the
/// upper sweep (cross decomposition, see partition_util.h).
constexpr double kExchangeFraction = 0.35;
/// The residual evaluation, then the lower and the upper sweep's wavefront
/// steps: one rsd and one u step per plane each.
constexpr std::uint32_t kPhasesPerIteration = 1 + 4 * kPlanes;

/// What one wavefront step sweeps: a plane of rsd or u, decomposed along the
/// memory layout (cross == 0) or across it (cross 1 for rsd, 2 for u).
struct PlaneStep {
  bool rsd = false;
  std::uint32_t plane = 0;
  std::uint64_t cross = 0;
  bool write = false;
};

/// The step of phase `i` (> 0) of an iteration. Lower sweep: forward over
/// the planes, nominal decomposition, rsd written and u read. Upper sweep:
/// backwards, cross decomposition of the same planes, rsd read and u
/// written.
PlaneStep plane_step(std::uint32_t i) {
  std::uint32_t j = i - 1;
  const bool lower = j < 2 * kPlanes;
  if (!lower) j -= 2 * kPlanes;
  PlaneStep s;
  s.rsd = j % 2 == 0;
  s.plane = lower ? j / 2 : kPlanes - 1 - j / 2;
  s.cross = lower ? 0 : (s.rsd ? 1 : 2);
  s.write = lower == s.rsd;
  return s;
}

class LuPlan final : public PhasePlan {
 public:
  explicit LuPlan(const WorkloadParams& base);

  std::uint32_t phases() const override {
    return kIterations * kPhasesPerIteration;
  }
  std::uint64_t footprint_base_pages() const override {
    return flux_base_ + flux_pages_;
  }
  void emit(std::uint32_t phase, CoreId c, std::vector<Op>& out) const override;

 private:
  CoreId n_;
  Vpn u_base_ = 0;
  Vpn rsd_base_;
  Vpn flux_base_;
  std::uint64_t flux_pages_;
  std::uint64_t u_plane_;
  std::uint64_t rsd_plane_;
  /// One draw per phase.
  BoundsTable bounds_;
  /// The upper sweep's rsd (cross 1) and u (cross 2) plane partitions.
  std::array<ExchangePartition, 2> partitions_;
};

ExchangePartition plane_partition(std::uint64_t plane_pages, CoreId n,
                                  std::uint64_t cross, std::uint64_t seed) {
  ExchangeConfig cfg;
  cfg.segment_pages = 8;
  cfg.exchange_fraction = kExchangeFraction;
  cfg.max_distance = 2;
  cfg.phase_seed = cross * 0x2545f4914f6cdd1dULL + seed;
  return {plane_pages, n, cfg};
}

LuPlan::LuPlan(const WorkloadParams& base)
    : n_(base.cores),
      rsd_base_(u_base_ + scaled(kUPages, base.scale)),
      flux_base_(rsd_base_ + scaled(kRsdPages, base.scale)),
      flux_pages_(scaled(kFluxPages, base.scale)),
      u_plane_(std::max<std::uint64_t>(scaled(kUPages, base.scale) / kPlanes, 1)),
      rsd_plane_(
          std::max<std::uint64_t>(scaled(kRsdPages, base.scale) / kPlanes, 1)),
      bounds_(base.cores),
      partitions_{plane_partition(rsd_plane_, n_, 1, base.seed),
                  plane_partition(u_plane_, n_, 2, base.seed)} {
  Rng rng(base.seed);
  for (std::uint32_t iter = 0; iter < kIterations; ++iter) {
    bounds_.draw(flux_pages_, kBoundaryJitter, rng);
    for (std::uint32_t i = 1; i < kPhasesPerIteration; ++i)
      bounds_.draw(plane_step(i).rsd ? rsd_plane_ : u_plane_, kBoundaryJitter,
                   rng);
  }
}

void LuPlan::emit(std::uint32_t phase, CoreId c, std::vector<Op>& out) const {
  const auto bounds = bounds_[phase];
  ScheduleBuilder sb(kComputePerPage, out);
  const std::uint32_t i = phase % kPhasesPerIteration;
  if (i == 0) {
    // Residual evaluation: flux scratch streamed privately, rsd written.
    sb.touch(flux_base_ + bounds[c], bounds[c + 1] - bounds[c],
             /*write=*/true, /*repeat=*/1);
    return;
  }

  // Touch core c's partition of one plane plus halos. The upper sweep
  // (cross != 0) decomposes the plane across the memory layout: a fraction
  // of each block's segments is handled by a core 1-2 blocks away (stable
  // across iterations), spreading boundary pages over 3-6 cores — the
  // "somewhat less regular" profile of Fig. 6b.
  const PlaneStep step = plane_step(i);
  const std::uint64_t plane_pages = step.rsd ? rsd_plane_ : u_plane_;
  const std::uint64_t halo = static_cast<std::uint64_t>(
      kHaloFraction * static_cast<double>(plane_pages) / n_);
  const Vpn plane_base = (step.rsd ? rsd_base_ : u_base_) +
                         static_cast<Vpn>(step.plane) * plane_pages;
  if (step.cross == 0) {
    touch_block_with_halo(sb, c, bounds, plane_base, halo, step.write,
                          /*repeat=*/1, /*halo_repeat=*/2);
    return;
  }
  // Halo strips of the nominal block edges, hot (read twice).
  if (halo > 0 && bounds[c] > 0) {
    const std::uint64_t h = std::min(halo, bounds[c]);
    sb.touch(plane_base + bounds[c] - h, h, false, 2);
  }
  if (halo > 0 && bounds[c + 1] < plane_pages) {
    const std::uint64_t h = std::min(halo, plane_pages - bounds[c + 1]);
    sb.touch(plane_base + bounds[c + 1], h, false, 2);
  }
  for (const auto& [first, len] : partitions_[step.cross - 1].runs(c))
    sb.touch(plane_base + first, len, step.write, 1);
}

}  // namespace

std::shared_ptr<const PhasePlan> plan_lu(const WorkloadParams& base) {
  return std::make_shared<const LuPlan>(base);
}

}  // namespace cmcp::wl::detail

