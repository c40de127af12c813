// Construction of the paper's four evaluation workloads by name, in the two
// sizes the paper uses (small: NPB class B / SCALE 512 MB; big: class C /
// SCALE 1.2 GB). The workloads are fixed models (generators.h); only the
// core count, footprint scale and seed vary.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "workloads/access_stream.h"
#include "workloads/schedule_builder.h"

namespace cmcp::wl {

enum class PaperWorkload : std::uint8_t { kCg, kLu, kBt, kScale };

constexpr std::string_view to_string(PaperWorkload w) {
  switch (w) {
    case PaperWorkload::kCg: return "cg";
    case PaperWorkload::kLu: return "lu";
    case PaperWorkload::kBt: return "bt";
    case PaperWorkload::kScale: return "scale";
  }
  return "?";
}

inline constexpr PaperWorkload kAllPaperWorkloads[] = {
    PaperWorkload::kBt, PaperWorkload::kLu, PaperWorkload::kCg,
    PaperWorkload::kScale};

enum class WorkloadSize : std::uint8_t {
  kSmall,  ///< cg.B / lu.B / bt.B / SCALE (sml)
  kBig,    ///< cg.C / lu.C / bt.C / SCALE (big)
};

constexpr std::string_view size_suffix(WorkloadSize s) {
  return s == WorkloadSize::kSmall ? "B" : "C";
}

/// The memory fraction the paper applies per workload so that PSPT+FIFO
/// lands at 50-60% of the no-data-movement run (section 5.4): BT 64%,
/// LU 66%, CG 37%, SCALE ~50%.
double paper_memory_fraction(PaperWorkload w);

/// The best prioritized-page ratio per workload from our Fig. 9 sweep —
/// matching the paper's observation that CG favours a low ratio while LU
/// and SCALE favour high ones (section 5.6).
double paper_best_p(PaperWorkload w);

/// The one way to build a paper workload. `kBig` raises a scale of 1.0 to
/// the class C / SCALE 1.2 GB footprint; any other scale is kept as given.
std::unique_ptr<Workload> make_paper_workload(PaperWorkload which,
                                              const WorkloadParams& base,
                                              WorkloadSize size = WorkloadSize::kSmall);

}  // namespace cmcp::wl
