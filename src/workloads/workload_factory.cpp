#include "workloads/workload_factory.h"

#include "common/assert.h"
#include "workloads/generators.h"

namespace cmcp::wl {

namespace {

std::shared_ptr<const PhasePlan> plan(PaperWorkload which,
                                      const WorkloadParams& params) {
  switch (which) {
    case PaperWorkload::kCg: return detail::plan_cg(params);
    case PaperWorkload::kLu: return detail::plan_lu(params);
    case PaperWorkload::kBt: return detail::plan_bt(params);
    case PaperWorkload::kScale: return detail::plan_scale(params);
  }
  CMCP_CHECK_MSG(false, "unknown workload");
  return {};
}

/// One of the paper's workloads, streaming its plan one phase at a time.
class PaperWorkloadModel final : public Workload {
 public:
  PaperWorkloadModel(PaperWorkload which, const WorkloadParams& params)
      : which_(which), cores_(params.cores), plan_(plan(which, params)) {}

  std::string_view name() const override { return to_string(which_); }
  CoreId num_cores() const override { return cores_; }
  std::uint64_t footprint_base_pages() const override {
    return plan_->footprint_base_pages();
  }
  std::unique_ptr<AccessStream> make_stream(CoreId core) const override {
    CMCP_CHECK(core < cores_);
    return std::make_unique<PhaseStream>(plan_, core);
  }

 private:
  PaperWorkload which_;
  CoreId cores_;
  std::shared_ptr<const PhasePlan> plan_;
};

}  // namespace

double paper_memory_fraction(PaperWorkload w) {
  switch (w) {
    case PaperWorkload::kBt: return 0.64;
    case PaperWorkload::kLu: return 0.66;
    case PaperWorkload::kCg: return 0.37;
    case PaperWorkload::kScale: return 0.50;
  }
  return 0.5;
}

double paper_best_p(PaperWorkload w) {
  switch (w) {
    // The paper does not state BT's optimum; our Fig. 9 sweep peaks at 0.9.
    case PaperWorkload::kBt: return 0.9;
    case PaperWorkload::kLu: return 0.7;
    // Paper section 5.6: CG favours a low ratio. (Our own sweep prefers a
    // higher one — see the deviation note in EXPERIMENTS.md — but the
    // paper-faithful value is used for the Fig. 7 reproduction.)
    case PaperWorkload::kCg: return 0.1;
    case PaperWorkload::kScale: return 0.7;
  }
  return 0.4;
}

std::unique_ptr<Workload> make_paper_workload(PaperWorkload which,
                                              const WorkloadParams& base,
                                              WorkloadSize size) {
  WorkloadParams params = base;
  // class C footprints are roughly 4x class B; SCALE big is 1.2 GB vs 512 MB.
  if (size == WorkloadSize::kBig && params.scale == 1.0)
    params.scale = which == PaperWorkload::kScale ? 2.4 : 4.0;
  return std::make_unique<PaperWorkloadModel>(which, params);
}

}  // namespace cmcp::wl
