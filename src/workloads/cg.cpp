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
#include <vector>

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

/// SpMV, dot products, axpy.
constexpr std::uint32_t kPhasesPerIteration = 3;

class CgPlan final : public PhasePlan {
 public:
  explicit CgPlan(const WorkloadParams& base);

  std::uint32_t phases() const override {
    return kIterations * kPhasesPerIteration;
  }
  std::uint64_t footprint_base_pages() const override {
    return red_base_ + kReductionPages;
  }
  void emit(std::uint32_t phase, CoreId c, std::vector<Op>& out) const override;

 private:
  std::uint64_t x_pages_;
  Vpn x_base_;
  Vpn y_base_;
  Vpn red_base_;
  std::uint64_t x_halo_;
  /// Touched matrix pages in ascending order: only the sparse subset of the
  /// allocated matrix pages carries nonzeros an iteration visits (the paper
  /// attributes CG's tolerance of memory constraint to exactly this
  /// sparsity). The matrix starts at page 0, so these are its vpns.
  std::vector<Vpn> touched_;
  /// Per iteration, the a, x and y bounds.
  BoundsTable bounds_;
};

CgPlan::CgPlan(const WorkloadParams& base) : bounds_(base.cores) {
  const CoreId n = base.cores;
  const std::uint64_t a_pages = scaled(kMatrixPages, base.scale);
  x_pages_ = scaled(kXPages, base.scale);
  const std::uint64_t y_pages = scaled(kYPages, base.scale);

  x_base_ = a_pages;
  y_base_ = x_base_ + x_pages_;
  red_base_ = y_base_ + y_pages;

  const std::uint64_t x_block = std::max<std::uint64_t>(x_pages_ / n, 1);
  x_halo_ = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(kHaloFraction * static_cast<double>(x_block)),
      1);

  for (std::uint64_t p = 0; p < a_pages; ++p)
    if (page_touched(p, base.seed, kMatrixTouchedFraction)) touched_.push_back(p);

  // Row blocks re-balance slightly every iteration: the pages around each
  // boundary end up mapped by two cores (Fig. 6a's 2-core population).
  Rng rng(base.seed);
  for (std::uint32_t iter = 0; iter < kIterations; ++iter) {
    bounds_.draw(a_pages, kBoundaryJitter, rng);
    bounds_.draw(x_pages_, kBoundaryJitter, rng);
    bounds_.draw(y_pages, kBoundaryJitter, rng);
  }
}

void CgPlan::emit(std::uint32_t phase, CoreId c, std::vector<Op>& out) const {
  const std::uint32_t iter = phase / kPhasesPerIteration;
  const auto a_bounds = bounds_[3 * iter];
  const auto x_bounds = bounds_[3 * iter + 1];
  const auto y_bounds = bounds_[3 * iter + 2];
  ScheduleBuilder sb(kComputePerPage, out);

  switch (phase % kPhasesPerIteration) {
    case 0: {
      // SpMV q = A p: stream the touched rows of the own block in order,
      // gathering from the hot x vector (own segment + band halo) as we go.
      // x gather list: own segment plus halo into both neighbours.
      const std::uint64_t xb = x_bounds[c];
      const std::uint64_t xe = x_bounds[c + 1];
      const std::uint64_t x_first = xb > x_halo_ ? xb - x_halo_ : 0;
      const std::uint64_t x_end = std::min(xe + x_halo_, x_pages_);
      CMCP_CHECK(x_end > x_first);
      const std::uint64_t x_count = x_end - x_first;

      const auto a_first =
          std::lower_bound(touched_.begin(), touched_.end(), a_bounds[c]);
      const auto a_end =
          std::lower_bound(a_first, touched_.end(), a_bounds[c + 1]);
      const auto a_count = static_cast<std::size_t>(a_end - a_first);

      // Interleave: cycle the x gather list roughly twice per SpMV.
      const std::size_t x_every =
          std::max<std::size_t>(a_count / (2 * x_count + 1), 1);
      std::uint64_t xi = 0;          // next x page, cycling over the list
      std::size_t until_gather = 0;  // matrix pages before the next gather
      for (auto a = a_first; a != a_end; ++a) {
        sb.touch_page_compute(*a, /*write=*/false);
        if (until_gather == 0) {
          sb.touch_page_compute(x_base_ + x_first + xi, /*write=*/false,
                                /*repeat=*/2);
          if (++xi == x_count) xi = 0;
          until_gather = x_every;
        }
        --until_gather;
      }
      // Write the own slice of q.
      sb.touch(y_base_ + y_bounds[c], y_bounds[c + 1] - y_bounds[c],
               /*write=*/true, /*repeat=*/1);
      break;
    }
    case 1:
      // Dot products: re-read own q slice, reduce into the global pages.
      sb.touch(y_base_ + y_bounds[c], y_bounds[c + 1] - y_bounds[c],
               /*write=*/false, /*repeat=*/1);
      sb.touch(red_base_, kReductionPages, /*write=*/true, /*repeat=*/1);
      break;
    default:
      // axpy updates of p/x: write own segment.
      sb.touch(x_base_ + x_bounds[c], x_bounds[c + 1] - x_bounds[c],
               /*write=*/true, /*repeat=*/1);
      break;
  }
}

}  // namespace

std::shared_ptr<const PhasePlan> plan_cg(const WorkloadParams& base) {
  return std::make_shared<const CgPlan>(base);
}

}  // namespace cmcp::wl::detail

