// The paper's four workload models, one per file: cg.cpp, lu.cpp, bt.cpp and
// stencil.cpp (SCALE). Each is a fixed model of its application: the shape
// constants sit next to their calibration notes in its .cpp, and only the
// core count, footprint scale and seed vary. Each builds an immutable plan
// whose streams emit one phase at a time (schedule_builder.h).
// make_paper_workload (workload_factory.h) is the one construction path.
#pragma once

#include <memory>

#include "workloads/schedule_builder.h"

namespace cmcp::wl::detail {

std::shared_ptr<const PhasePlan> plan_cg(const WorkloadParams& params);
std::shared_ptr<const PhasePlan> plan_lu(const WorkloadParams& params);
std::shared_ptr<const PhasePlan> plan_bt(const WorkloadParams& params);
std::shared_ptr<const PhasePlan> plan_scale(const WorkloadParams& params);

}  // namespace cmcp::wl::detail
