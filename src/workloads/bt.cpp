// NPB BT analogue: block-tridiagonal solves along the x, y and z directions
// each iteration.
//
// The three directional solves decompose the same arrays along three
// different axes, so with row-major storage a page is owned by a different
// core in each phase — BT's sharing distribution is the flattest of the
// four workloads (paper Fig. 6c: pages spread up to ~8 cores, majority
// still <= 3).
#include <algorithm>
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
}  // namespace

PaperSchedule build_bt(const WorkloadParams& base) {
  const CoreId n = base.cores;
  const std::uint64_t u_pages = scaled(kUPages, base.scale);
  const std::uint64_t rhs_pages = scaled(kRhsPages, base.scale);
  const std::uint64_t lhs_pages = scaled(kLhsPages, base.scale);

  const Vpn u_base = 0;
  const Vpn rhs_base = u_base + u_pages;
  const Vpn lhs_base = rhs_base + rhs_pages;

  Rng rng(base.seed);
  ScheduleBuilder sb(n, kComputePerPage);

  struct Region {
    Vpn vbase;
    std::uint64_t pages;
    bool write;
  };

  // One phase: walk the listed arrays together, chunk-interleaved (a line
  // solve reads u and the factored lhs while updating rhs in place).
  //
  // phase_seed == 0 decomposes along the memory layout (jittered blocks).
  // Other seeds model the y/z-direction solves, which decompose the same 3D
  // arrays along a different axis: a fraction of each block's segments is
  // processed by a core 1-3 blocks away (see ExchangeConfig). Interiors stay
  // private; exchanged segments and halos give pages 2-6 mapping cores —
  // BT's flat-tailed distribution in Fig. 6c.
  const auto solve_phase = [&](std::initializer_list<Region> regions,
                               std::uint64_t phase_seed) {
    // Nominal bounds (for halo placement) are jittered per call.
    std::vector<std::vector<std::uint64_t>> nominal;
    for (const Region& r : regions)
      nominal.push_back(jittered_bounds(r.pages, n, kBoundaryJitter, rng));

    for (CoreId c = 0; c < n; ++c) {
      struct Cursor {
        Region region;
        std::vector<std::pair<Vpn, std::uint64_t>> runs;
        std::size_t run = 0;
        std::uint64_t off = 0;
        std::uint64_t halo_base = 0;  ///< first page of the right halo
        std::uint64_t halo = 0;
      };
      std::vector<Cursor> cursors;
      std::size_t ri = 0;
      for (const Region& r : regions) {
        Cursor cur;
        cur.region = r;
        const auto& bounds = nominal[ri++];
        const std::uint64_t block = std::max<std::uint64_t>(r.pages / n, 1);
        cur.halo = static_cast<std::uint64_t>(kHaloFraction *
                                              static_cast<double>(block));
        cur.halo_base = bounds[c + 1];
        if (phase_seed == 0) {
          cur.runs.emplace_back(bounds[c], bounds[c + 1] - bounds[c]);
        } else {
          ExchangeConfig cfg;
          cfg.exchange_fraction = kExchangeFraction;
          cfg.phase_seed = phase_seed * 0x9e3779b97f4a7c15ULL + base.seed;
          cur.runs = exchange_runs(r.pages, n, c, cfg);
        }
        // Halo reads ahead of the sweep: boundary strips of the
        // neighbouring nominal blocks.
        if (cur.halo > 0) {
          if (bounds[c] > 0) {
            const std::uint64_t h = std::min(cur.halo, bounds[c]);
            sb.touch(c, r.vbase + bounds[c] - h, h, false, 1);
          }
          if (bounds[c + 1] < r.pages) {
            const std::uint64_t h = std::min(cur.halo, r.pages - bounds[c + 1]);
            sb.touch(c, r.vbase + bounds[c + 1], h, false, 1);
          }
        }
        cursors.push_back(std::move(cur));
      }

      // Chunk-interleaved sweep across the arrays.
      bool more = true;
      std::uint32_t step = 0;
      while (more) {
        more = false;
        for (Cursor& cur : cursors) {
          if (cur.run >= cur.runs.size()) continue;
          const auto [first, len] = cur.runs[cur.run];
          const std::uint64_t todo =
              std::min(kInterleaveChunk, len - cur.off);
          sb.touch(c, cur.region.vbase + first + cur.off, todo,
                   cur.region.write, 1);
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
              sb.touch_page_compute(c, cur.region.vbase + cur.halo_base + off,
                                    false);
          }
        }
      }
    }
    sb.barrier_all();
  };

  for (std::uint32_t iter = 0; iter < kIterations; ++iter) {
    // compute_rhs: u -> rhs along the memory layout.
    solve_phase(
        {Region{u_base, u_pages, false}, Region{rhs_base, rhs_pages, true}}, 0);
    // x / y / z solves: all three arrays; y and z decompose across the
    // layout (exchange partitions with fixed per-direction seeds, so the
    // owner sets are stable across iterations).
    for (std::uint64_t phase = 1; phase <= 3; ++phase) {
      solve_phase({Region{lhs_base, lhs_pages, true},
                   Region{rhs_base, rhs_pages, true},
                   Region{u_base, u_pages, false}},
                  phase);
    }
    // add: u += rhs.
    solve_phase(
        {Region{u_base, u_pages, true}, Region{rhs_base, rhs_pages, false}}, 0);
  }

  return {lhs_base + lhs_pages, sb.finish()};
}

}  // namespace cmcp::wl::detail
