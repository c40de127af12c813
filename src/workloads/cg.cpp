// NPB CG analogue: conjugate-gradient iterations over a banded sparse
// matrix in CSR layout.
//
// What matters to the memory manager is the per-core page footprint and its
// reuse structure, not the arithmetic:
//  * the matrix region dominates the footprint and is streamed once per
//    iteration by (mostly) one core — row blocks are re-balanced slightly
//    between iterations, which is what spreads boundary pages over two
//    cores and produces CG's measured sharing profile (paper Fig. 6a:
//    >50% of pages private, the rest almost all 2-core);
//  * the vector regions are hot: re-read every iteration by their owner and
//    by band neighbours (halo);
//  * small reduction pages are touched by every core each iteration.
#include <algorithm>

#include "workloads/generators.h"
#include "workloads/partition_util.h"

namespace cmcp::wl::detail {

namespace {
constexpr std::uint32_t kIterations = 8;
constexpr Cycles kComputePerPage = 20000;  // sparse SpMV: slow on in-order
                                           // cores

/// Region sizes in base pages at scale 1.
constexpr std::uint64_t kMatrixPages = 25700;
constexpr std::uint64_t kXPages = 2600;
constexpr std::uint64_t kYPages = 2600;
constexpr std::uint64_t kReductionPages = 64;
/// Fraction of matrix pages an iteration actually visits. The sparse
/// representation leaves much of the allocation untouched per pass, which
/// is why CG tolerates memory constraint down to ~35-40% (paper Fig. 8).
constexpr double kMatrixTouchedFraction = 0.42;
/// Fraction of a block by which row-partition boundaries wander between
/// iterations (models dynamic re-balancing of rows onto threads).
constexpr double kBoundaryJitter = 0.22;
/// Fraction of a vector block read from each band neighbour.
constexpr double kHaloFraction = 0.15;

// Deterministic membership for the sparse touched subset of the matrix.
// Sparsity is clustered (bands of populated rows, 32 pages = 128 kB), so a
// touched region occupies whole 64 kB groups — the reason CG keeps
// favouring 64 kB pages under pressure in Fig. 10c.
bool page_touched(Vpn page, std::uint64_t seed, double fraction) {
  std::uint64_t x = (page / 32) * 0x9e3779b97f4a7c15ULL + seed;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 32;
  return static_cast<double>(x >> 11) * 0x1.0p-53 < fraction;
}
}  // namespace

PaperSchedule build_cg(const WorkloadParams& base) {
  const CoreId n = base.cores;
  const std::uint64_t a_pages = scaled(kMatrixPages, base.scale);
  const std::uint64_t x_pages = scaled(kXPages, base.scale);
  const std::uint64_t y_pages = scaled(kYPages, base.scale);

  const Vpn a_base = 0;
  const Vpn x_base = a_base + a_pages;
  const Vpn y_base = x_base + x_pages;
  const Vpn red_base = y_base + y_pages;

  Rng rng(base.seed);
  ScheduleBuilder sb(n, kComputePerPage);

  const std::uint64_t x_block = std::max<std::uint64_t>(x_pages / n, 1);
  const std::uint64_t x_halo = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(kHaloFraction * static_cast<double>(x_block)),
      1);

  for (std::uint32_t iter = 0; iter < kIterations; ++iter) {
    // Row blocks re-balance slightly every iteration: the pages around each
    // boundary end up mapped by two cores (Fig. 6a's 2-core population).
    const auto a_bounds = jittered_bounds(a_pages, n, kBoundaryJitter, rng);
    const auto x_bounds = jittered_bounds(x_pages, n, kBoundaryJitter, rng);
    const auto y_bounds = jittered_bounds(y_pages, n, kBoundaryJitter, rng);

    // SpMV q = A p: stream the touched rows of the own block in order,
    // gathering from the hot x vector (own segment + band halo) as we go.
    for (CoreId c = 0; c < n; ++c) {
      // x gather list: own segment plus halo into both neighbours.
      std::vector<Vpn> x_list;
      const std::uint64_t xb = x_bounds[c];
      const std::uint64_t xe = x_bounds[c + 1];
      for (std::uint64_t p = xb > x_halo ? xb - x_halo : 0;
           p < std::min(xe + x_halo, x_pages); ++p)
        x_list.push_back(x_base + p);
      CMCP_CHECK(!x_list.empty());

      // Touched matrix rows: only the sparse subset of the allocated matrix
      // pages carries nonzeros an iteration visits (the paper attributes
      // CG's tolerance of memory constraint to exactly this sparsity).
      std::vector<Vpn> a_list;
      for (std::uint64_t p = a_bounds[c]; p < a_bounds[c + 1]; ++p)
        if (page_touched(p, base.seed, kMatrixTouchedFraction))
          a_list.push_back(a_base + p);

      // Interleave: cycle the x gather list roughly twice per SpMV.
      const std::size_t x_every = std::max<std::size_t>(
          a_list.size() / (2 * x_list.size() + 1), 1);
      std::size_t xi = 0;
      for (std::size_t i = 0; i < a_list.size(); ++i) {
        sb.touch_page_compute(c, a_list[i], /*write=*/false);
        if (i % x_every == 0) {
          sb.touch_page_compute(c, x_list[xi % x_list.size()],
                                /*write=*/false, /*repeat=*/2);
          ++xi;
        }
      }
      // Write the own slice of q.
      sb.touch(c, y_base + y_bounds[c], y_bounds[c + 1] - y_bounds[c],
               /*write=*/true, /*repeat=*/1);
    }
    sb.barrier_all();

    // Dot products: re-read own q slice, reduce into the global pages.
    for (CoreId c = 0; c < n; ++c) {
      sb.touch(c, y_base + y_bounds[c], y_bounds[c + 1] - y_bounds[c],
               /*write=*/false, /*repeat=*/1);
      sb.touch(c, red_base, kReductionPages, /*write=*/true, /*repeat=*/1);
    }
    sb.barrier_all();

    // axpy updates of p/x: write own segment.
    for (CoreId c = 0; c < n; ++c) {
      sb.touch(c, x_base + x_bounds[c], x_bounds[c + 1] - x_bounds[c],
               /*write=*/true, /*repeat=*/1);
    }
    sb.barrier_all();
  }

  return {red_base + kReductionPages, sb.finish()};
}

}  // namespace cmcp::wl::detail
