// NPB LU analogue: SSOR wavefront sweeps over a 3D grid.
//
// Each iteration performs a lower and an upper triangular sweep plane by
// plane (barrier-separated wavefront steps). The two sweeps decompose the
// planes along offset boundaries and exchange deeper halos, so pages spread
// over more cores than CG's (paper Fig. 6b: less regular, majority of pages
// still mapped by <= 3 cores, tail reaching ~6).
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
}  // namespace

PaperSchedule build_lu(const WorkloadParams& base) {
  const CoreId n = base.cores;
  const std::uint64_t u_pages = scaled(kUPages, base.scale);
  const std::uint64_t rsd_pages = scaled(kRsdPages, base.scale);
  const std::uint64_t flux_pages = scaled(kFluxPages, base.scale);

  const Vpn u_base = 0;
  const Vpn rsd_base = u_base + u_pages;
  const Vpn flux_base = rsd_base + rsd_pages;

  Rng rng(base.seed);
  ScheduleBuilder sb(n, kComputePerPage);

  const std::uint64_t u_plane = std::max<std::uint64_t>(u_pages / kPlanes, 1);
  const std::uint64_t rsd_plane =
      std::max<std::uint64_t>(rsd_pages / kPlanes, 1);

  // Touch core c's partition of one plane plus halos. The upper sweep
  // (cross != 0) decomposes the plane across the memory layout: a fraction
  // of each block's segments is handled by a core 1-2 blocks away (stable
  // across iterations), spreading boundary pages over 3-6 cores — the
  // "somewhat less regular" profile of Fig. 6b.
  const auto sweep_plane = [&](Vpn region_base, std::uint64_t plane_pages,
                               std::uint32_t plane, std::uint64_t cross,
                               bool write) {
    const auto bounds = jittered_bounds(plane_pages, n, kBoundaryJitter, rng);
    const std::uint64_t halo = static_cast<std::uint64_t>(
        kHaloFraction * static_cast<double>(plane_pages) / n);
    const Vpn plane_base = region_base + static_cast<Vpn>(plane) * plane_pages;
    if (cross == 0) {
      for (CoreId c = 0; c < n; ++c)
        touch_block_with_halo(sb, c, bounds, plane_base, halo, write,
                              /*repeat=*/1, /*halo_repeat=*/2);
    } else {
      ExchangeConfig cfg;
      cfg.segment_pages = 8;
      cfg.exchange_fraction = kExchangeFraction;
      cfg.max_distance = 2;
      cfg.phase_seed = cross * 0x2545f4914f6cdd1dULL + base.seed;
      for (CoreId c = 0; c < n; ++c) {
        // Halo strips of the nominal block edges, hot (read twice).
        if (halo > 0 && bounds[c] > 0) {
          const std::uint64_t h = std::min(halo, bounds[c]);
          sb.touch(c, plane_base + bounds[c] - h, h, false, 2);
        }
        if (halo > 0 && bounds[c + 1] < plane_pages) {
          const std::uint64_t h = std::min(halo, plane_pages - bounds[c + 1]);
          sb.touch(c, plane_base + bounds[c + 1], h, false, 2);
        }
        for (const auto& [first, len] : exchange_runs(plane_pages, n, c, cfg))
          sb.touch(c, plane_base + first, len, write, 1);
      }
    }
    sb.barrier_all();  // wavefront step
  };

  for (std::uint32_t iter = 0; iter < kIterations; ++iter) {
    // Residual evaluation: flux scratch streamed privately, rsd written.
    {
      const auto flux_bounds =
          jittered_bounds(flux_pages, n, kBoundaryJitter, rng);
      for (CoreId c = 0; c < n; ++c) {
        sb.touch(c, flux_base + flux_bounds[c],
                 flux_bounds[c + 1] - flux_bounds[c], /*write=*/true,
                 /*repeat=*/1);
      }
      sb.barrier_all();
    }

    // Lower sweep: forward over the planes, nominal decomposition.
    for (std::uint32_t k = 0; k < kPlanes; ++k) {
      sweep_plane(rsd_base, rsd_plane, k, 0, /*write=*/true);
      sweep_plane(u_base, u_plane, k, 0, /*write=*/false);
    }
    // Upper sweep: backwards, cross decomposition of the same planes.
    for (std::uint32_t k = kPlanes; k-- > 0;) {
      sweep_plane(rsd_base, rsd_plane, k, 1, /*write=*/false);
      sweep_plane(u_base, u_plane, k, 2, /*write=*/true);
    }
  }

  return {flux_base + flux_pages, sb.finish()};
}

}  // namespace cmcp::wl::detail
