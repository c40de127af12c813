// NPB BT analogue: block-tridiagonal solves along the x, y and z directions
// each iteration.
//
// The three directional solves decompose the same arrays along three
// different axes, so with row-major storage a page is owned by a different
// core in each phase — BT's sharing distribution is the flattest of the
// four workloads (paper Fig. 6c: pages spread up to ~8 cores, majority
// still <= 3).
#include <algorithm>
#include <array>
#include <span>
#include <utility>

#include "workloads/generators.h"
#include "workloads/partition_util.h"

namespace cmcp::wl::detail {

namespace {
constexpr std::uint32_t kIterations = 5;
constexpr Cycles kComputePerPage = 34000;
constexpr std::uint64_t kInterleaveChunk = 8;  // pages per region per step

constexpr std::uint64_t kUPages = 9000;    ///< solution (at scale 1)
constexpr std::uint64_t kRhsPages = 9000;  ///< right-hand side
constexpr std::uint64_t kLhsPages = 7000;  ///< factored block systems
constexpr double kBoundaryJitter = 0.08;
constexpr double kHaloFraction = 0.12;
/// Fraction of each block's segments processed by a displaced core in the
/// y/z-direction solves (see partition_util.h, ExchangeConfig).
constexpr double kExchangeFraction = 0.30;
/// compute_rhs, the x, y and z solves, add.
constexpr std::uint32_t kPhasesPerIteration = 5;

struct Region {
  Vpn vbase = 0;
  std::uint64_t pages = 0;
  bool write = false;
};

/// One phase: the arrays it walks together, chunk-interleaved (a line solve
/// reads u and the factored lhs while updating rhs in place).
///
/// direction == 0 decomposes along the memory layout (jittered blocks).
/// Directions 1-3 model the x/y/z solves, which decompose the same 3D arrays
/// along a different axis: a fraction of each block's segments is processed
/// by a core 1-3 blocks away (see ExchangeConfig). Interiors stay private;
/// exchanged segments and halos give pages 2-6 mapping cores — BT's
/// flat-tailed distribution in Fig. 6c.
struct PhaseShape {
  std::array<Region, 3> regions;
  std::size_t count = 0;
  std::uint64_t direction = 0;
};

class BtPlan final : public PhasePlan {
 public:
  explicit BtPlan(const WorkloadParams& base);

  std::uint32_t phases() const override {
    return kIterations * kPhasesPerIteration;
  }
  std::uint64_t footprint_base_pages() const override { return footprint_; }
  void emit(std::uint32_t phase, CoreId c, std::vector<Op>& out) const override;

 private:
  CoreId n_;
  std::uint64_t footprint_ = 0;
  std::array<PhaseShape, kPhasesPerIteration> shapes_;
  /// Bounds draws per iteration, and the first one of each phase in it.
  std::size_t draws_per_iteration_ = 0;
  std::array<std::size_t, kPhasesPerIteration> first_draw_{};
  BoundsTable bounds_;
  /// One per distinct (region pages, direction): the partitions do not
  /// change between iterations, so the owner sets are stable.
  std::vector<ExchangePartition> partitions_;
  /// partitions_ index of each region of each exchange phase.
  std::array<std::array<std::size_t, 3>, kPhasesPerIteration> partition_of_{};
};

BtPlan::BtPlan(const WorkloadParams& base) : n_(base.cores), bounds_(base.cores) {
  const std::uint64_t u_pages = scaled(kUPages, base.scale);
  const std::uint64_t rhs_pages = scaled(kRhsPages, base.scale);
  const std::uint64_t lhs_pages = scaled(kLhsPages, base.scale);

  const Vpn u_base = 0;
  const Vpn rhs_base = u_base + u_pages;
  const Vpn lhs_base = rhs_base + rhs_pages;
  footprint_ = lhs_base + lhs_pages;

  // compute_rhs: u -> rhs along the memory layout.
  shapes_[0] = {{Region{u_base, u_pages, false}, Region{rhs_base, rhs_pages, true}},
                2, 0};
  // x / y / z solves: all three arrays; y and z decompose across the
  // layout (exchange partitions with fixed per-direction seeds, so the
  // owner sets are stable across iterations).
  for (std::uint64_t direction = 1; direction <= 3; ++direction) {
    shapes_[direction] = {{Region{lhs_base, lhs_pages, true},
                           Region{rhs_base, rhs_pages, true},
                           Region{u_base, u_pages, false}},
                          3, direction};
  }
  // add: u += rhs.
  shapes_[4] = {{Region{u_base, u_pages, true}, Region{rhs_base, rhs_pages, false}},
                2, 0};

  // Nominal bounds (for halo placement) are jittered per phase and region.
  for (std::uint32_t k = 0; k < kPhasesPerIteration; ++k) {
    first_draw_[k] = draws_per_iteration_;
    draws_per_iteration_ += shapes_[k].count;
  }
  Rng rng(base.seed);
  for (std::uint32_t iter = 0; iter < kIterations; ++iter)
    for (const PhaseShape& shape : shapes_)
      for (std::size_t ri = 0; ri < shape.count; ++ri)
        bounds_.draw(shape.regions[ri].pages, kBoundaryJitter, rng);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;  // (pages, seed)
  for (std::uint32_t k = 0; k < kPhasesPerIteration; ++k) {
    const PhaseShape& shape = shapes_[k];
    if (shape.direction == 0) continue;
    ExchangeConfig cfg;
    cfg.exchange_fraction = kExchangeFraction;
    cfg.phase_seed = shape.direction * 0x9e3779b97f4a7c15ULL + base.seed;
    for (std::size_t ri = 0; ri < shape.count; ++ri) {
      const std::pair key{shape.regions[ri].pages, cfg.phase_seed};
      const auto it = std::find(keys.begin(), keys.end(), key);
      partition_of_[k][ri] = static_cast<std::size_t>(it - keys.begin());
      if (it != keys.end()) continue;
      keys.push_back(key);
      partitions_.emplace_back(key.first, n_, cfg);
    }
  }
}

void BtPlan::emit(std::uint32_t phase, CoreId c, std::vector<Op>& out) const {
  const std::uint32_t k = phase % kPhasesPerIteration;
  const std::size_t first_draw =
      phase / kPhasesPerIteration * draws_per_iteration_ + first_draw_[k];
  const PhaseShape& shape = shapes_[k];
  ScheduleBuilder sb(kComputePerPage, out);

  struct Cursor {
    Region region;
    std::span<const PageRun> runs;
    PageRun block;  ///< the nominal block, the one run of a layout phase
    std::size_t run = 0;
    std::uint64_t off = 0;
    std::uint64_t halo_base = 0;  ///< first page of the right halo
    std::uint64_t halo = 0;
  };
  std::array<Cursor, 3> storage;
  const std::span<Cursor> cursors = std::span(storage).first(shape.count);
  for (std::size_t ri = 0; ri < shape.count; ++ri) {
    Cursor& cur = cursors[ri];
    const Region& r = shape.regions[ri];
    cur.region = r;
    const auto bounds = bounds_[first_draw + ri];
    const std::uint64_t block = std::max<std::uint64_t>(r.pages / n_, 1);
    cur.halo = static_cast<std::uint64_t>(kHaloFraction *
                                          static_cast<double>(block));
    cur.halo_base = bounds[c + 1];
    if (shape.direction == 0) {
      cur.block = {bounds[c], bounds[c + 1] - bounds[c]};
      cur.runs = std::span(&cur.block, 1);
    } else {
      cur.runs = partitions_[partition_of_[k][ri]].runs(c);
    }
    // Halo reads ahead of the sweep: boundary strips of the
    // neighbouring nominal blocks.
    if (cur.halo > 0) {
      if (bounds[c] > 0) {
        const std::uint64_t h = std::min(cur.halo, bounds[c]);
        sb.touch(r.vbase + bounds[c] - h, h, false, 1);
      }
      if (bounds[c + 1] < r.pages) {
        const std::uint64_t h = std::min(cur.halo, r.pages - bounds[c + 1]);
        sb.touch(r.vbase + bounds[c + 1], h, false, 1);
      }
    }
  }

  // Chunk-interleaved sweep across the arrays.
  bool more = true;
  std::uint32_t step = 0;
  while (more) {
    more = false;
    for (Cursor& cur : cursors) {
      if (cur.run >= cur.runs.size()) continue;
      const auto [first, len] = cur.runs[cur.run];
      const std::uint64_t todo = std::min(kInterleaveChunk, len - cur.off);
      sb.touch(cur.region.vbase + first + cur.off, todo, cur.region.write, 1);
      cur.off += todo;
      if (cur.off >= len) {
        ++cur.run;
        cur.off = 0;
      }
      if (cur.run < cur.runs.size()) more = true;
    }
    // Periodic mid-sweep halo re-reads (boundary coupling terms are
    // consulted throughout a line solve), rotating over the halo band.
    if (++step % 4 == 0) {
      for (const Cursor& cur : cursors) {
        if (cur.halo == 0 || cur.halo_base >= cur.region.pages) continue;
        const std::uint64_t off = (step / 4) % cur.halo;
        if (cur.halo_base + off < cur.region.pages)
          sb.touch_page_compute(cur.region.vbase + cur.halo_base + off, false);
      }
    }
  }
}

}  // namespace

std::shared_ptr<const PhasePlan> plan_bt(const WorkloadParams& base) {
  return std::make_shared<const BtPlan>(base);
}

}  // namespace cmcp::wl::detail

