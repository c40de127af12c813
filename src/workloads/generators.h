// The paper's four workload models, one per file: cg.cpp, lu.cpp, bt.cpp and
// stencil.cpp (SCALE). Each is a fixed model of its application: the shape
// constants sit next to their calibration notes in its .cpp, and only the
// core count, footprint scale and seed vary. make_paper_workload
// (workload_factory.h) is the one construction path.
#pragma once

#include <memory>
#include <vector>

#include "workloads/schedule_builder.h"

namespace cmcp::wl::detail {

/// A generated workload: its footprint and one op schedule per core.
struct PaperSchedule {
  std::uint64_t footprint_base_pages = 0;
  std::vector<std::shared_ptr<const std::vector<Op>>> per_core;
};

PaperSchedule build_cg(const WorkloadParams& params);
PaperSchedule build_lu(const WorkloadParams& params);
PaperSchedule build_bt(const WorkloadParams& params);
PaperSchedule build_scale(const WorkloadParams& params);

}  // namespace cmcp::wl::detail
