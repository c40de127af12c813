#include "policy/policy_factory.h"

#include "common/assert.h"
#include "policy/arc.h"
#include "policy/clock_policy.h"
#include "policy/dynamic_p.h"
#include "policy/fifo.h"
#include "policy/lfu.h"
#include "policy/lru_approx.h"
#include "policy/random_policy.h"

namespace cmcp::policy {

std::unique_ptr<ReplacementPolicy> make_policy(PolicyHost& host,
                                               const PolicyParams& params) {
  switch (params.kind) {
    case PolicyKind::kFifo:
      return std::make_unique<FifoPolicy>();
    case PolicyKind::kLru:
      return std::make_unique<LruApproxPolicy>();
    case PolicyKind::kCmcp:
      return std::make_unique<CmcpPolicy>(host, params.cmcp);
    case PolicyKind::kClock:
      return std::make_unique<ClockPolicy>(host);
    case PolicyKind::kLfu:
      return std::make_unique<LfuPolicy>();
    case PolicyKind::kRandom:
      return std::make_unique<RandomPolicy>(RandomPolicy::kSeed);
    case PolicyKind::kCmcpDynamicP:
      return std::make_unique<DynamicPCmcpPolicy>(host, params.dynamic_p_start);
    case PolicyKind::kArc:
      return std::make_unique<ArcPolicy>(host);
  }
  CMCP_CHECK_MSG(false, "unknown policy kind");
  return nullptr;
}

}  // namespace cmcp::policy
