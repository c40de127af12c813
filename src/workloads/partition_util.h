// Shared partitioning helpers for the workload generators.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "common/types.h"
#include "workloads/schedule_builder.h"

namespace cmcp::wl::detail {

/// Block-partition boundaries over [0, total) with per-call jitter: boundary
/// i moves by up to +/- jitter_frac * block around its nominal position.
/// Models run-to-run re-balancing of loop iterations onto threads, the
/// mechanism that spreads block-boundary pages over neighbouring cores.
inline std::vector<std::uint64_t> jittered_bounds(std::uint64_t total, CoreId cores,
                                                  double jitter_frac, Rng& rng) {
  CMCP_CHECK(cores > 0);
  std::vector<std::uint64_t> bounds(cores + 1);
  bounds[0] = 0;
  bounds[cores] = total;
  const double block = static_cast<double>(total) / cores;
  const auto jitter = static_cast<std::int64_t>(jitter_frac * block);
  for (CoreId i = 1; i < cores; ++i) {
    const auto nominal = static_cast<std::int64_t>(block * i);
    std::int64_t b = nominal;
    if (jitter > 0)
      b += static_cast<std::int64_t>(rng.next_range(0, 2 * jitter)) - jitter;
    bounds[i] = static_cast<std::uint64_t>(std::clamp<std::int64_t>(
        b, 1, static_cast<std::int64_t>(total) - 1));
  }
  // Jitter can reorder adjacent boundaries at tiny blocks; restore order.
  std::sort(bounds.begin(), bounds.end());
  return bounds;
}

/// A workload's jittered_bounds draws, kept in draw order so the plan can
/// replay them to any core in any order: draw i is cores + 1 boundaries.
class BoundsTable {
 public:
  explicit BoundsTable(CoreId cores) : cores_(cores) {}

  void draw(std::uint64_t total, double jitter_frac, Rng& rng) {
    const auto bounds = jittered_bounds(total, cores_, jitter_frac, rng);
    bounds_.insert(bounds_.end(), bounds.begin(), bounds.end());
  }

  std::span<const std::uint64_t> operator[](std::size_t i) const {
    return std::span(bounds_).subspan(i * (cores_ + std::size_t{1}),
                                      cores_ + std::size_t{1});
  }

 private:
  CoreId cores_;
  std::vector<std::uint64_t> bounds_;
};

/// Touch a core's block [bounds[core], bounds[core+1]) of a region rooted at
/// `region_base`, plus `halo` pages into each neighbouring block. Halo pages
/// carry their own repeat count: boundary data is typically consulted more
/// than once per sweep.
inline void touch_block_with_halo(ScheduleBuilder& sb, CoreId core,
                                  std::span<const std::uint64_t> bounds,
                                  Vpn region_base, std::uint64_t halo, bool write,
                                  std::uint16_t repeat,
                                  std::uint16_t halo_repeat = 0) {
  if (halo_repeat == 0) halo_repeat = repeat;
  const std::uint64_t begin = bounds[core];
  const std::uint64_t end = bounds[core + 1];
  if (halo > 0 && begin > 0) {
    // Left halo (tail of the previous block) read before the sweep.
    const std::uint64_t h = std::min(halo, begin);
    sb.touch(region_base + begin - h, h, /*write=*/false, halo_repeat);
  }
  if (end > begin) sb.touch(region_base + begin, end - begin, write, repeat);
  if (halo > 0) {
    // Right halo (head of the next block) read after reaching the boundary.
    const std::uint64_t total = bounds.back();
    if (end < total) {
      const std::uint64_t h = std::min(halo, total - end);
      sb.touch(region_base + end, h, /*write=*/false, halo_repeat);
    }
  }
}

/// Segmented exchange partition: the region is cut into fixed segments;
/// most stay with their nominal block owner, but a deterministic fraction is
/// processed by a core 1..max_distance blocks away. This models solves that
/// decompose the same array along a different axis than the memory layout
/// (BT's directional solves, LU's upper sweep): block interiors stay mostly
/// private while exchanged segments give pages 2-4 mapping cores, producing
/// the heavy-tailed sharing distributions of Fig. 6b/6c.
struct ExchangeConfig {
  std::uint64_t segment_pages = 16;
  double exchange_fraction = 0.30;
  unsigned max_distance = 3;
  std::uint64_t phase_seed = 0;
};

inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Owner core of segment `seg` (segment index within the region).
inline CoreId exchange_owner(std::uint64_t seg, std::uint64_t total_segments,
                             CoreId cores, const ExchangeConfig& cfg) {
  const CoreId nominal = static_cast<CoreId>(
      std::min<std::uint64_t>(seg * cores / std::max<std::uint64_t>(total_segments, 1),
                              cores - 1));
  const std::uint64_t h = mix64(seg * 0x2545f4914f6cdd1dULL + cfg.phase_seed);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u >= cfg.exchange_fraction || cores < 2) return nominal;
  const unsigned d = 1 + static_cast<unsigned>(mix64(h) % cfg.max_distance);
  return static_cast<CoreId>((nominal + d) % cores);
}

/// One (first_page, num_pages) run of a region.
using PageRun = std::pair<Vpn, std::uint64_t>;

/// An exchange partition of a region for every core at once, with one
/// exchange_owner call per segment: core c's segments as runs in sweep
/// order, adjacent segments merged. It depends only on (region pages, cores, cfg), so a
/// plan computes each one once and every phase that uses it reads it.
class ExchangePartition {
 public:
  ExchangePartition(std::uint64_t region_pages, CoreId cores,
                    const ExchangeConfig& cfg)
      : first_run_(cores + std::size_t{1}, 0) {
    const std::uint64_t seg_pages = std::max<std::uint64_t>(cfg.segment_pages, 1);
    const std::uint64_t total_segments = (region_pages + seg_pages - 1) / seg_pages;
    std::vector<CoreId> owner(total_segments);
    for (std::uint64_t seg = 0; seg < total_segments; ++seg) {
      owner[seg] = exchange_owner(seg, total_segments, cores, cfg);
      // A segment extends its owner's last run when it follows it directly.
      if (seg == 0 || owner[seg - 1] != owner[seg]) ++first_run_[owner[seg] + 1];
    }
    for (CoreId c = 0; c < cores; ++c) first_run_[c + 1] += first_run_[c];
    runs_.resize(first_run_[cores]);
    std::vector<std::size_t> next(first_run_.begin(), first_run_.end() - 1);
    for (std::uint64_t seg = 0; seg < total_segments; ++seg) {
      const Vpn first = seg * seg_pages;
      const std::uint64_t len = std::min(seg_pages, region_pages - first);
      if (seg == 0 || owner[seg - 1] != owner[seg])
        runs_[next[owner[seg]]++] = {first, len};
      else
        runs_[next[owner[seg]] - 1].second += len;
    }
  }

  std::span<const PageRun> runs(CoreId core) const {
    return std::span(runs_).subspan(first_run_[core],
                                    first_run_[core + 1] - first_run_[core]);
  }

 private:
  /// Core c's runs are runs_[first_run_[c], first_run_[c + 1]).
  std::vector<std::size_t> first_run_;
  std::vector<PageRun> runs_;
};

inline std::uint64_t scaled(std::uint64_t pages, double scale) {
  const auto v = static_cast<std::uint64_t>(static_cast<double>(pages) * scale);
  return std::max<std::uint64_t>(v, 1);
}

}  // namespace cmcp::wl::detail
