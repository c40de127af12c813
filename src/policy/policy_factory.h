// Construction of replacement policies from a PolicyKind + parameters.
#pragma once

#include <memory>

#include "policy/cmcp.h"
#include "policy/replacement_policy.h"

namespace cmcp::policy {

struct PolicyParams {
  PolicyKind kind = PolicyKind::kFifo;
  CmcpConfig cmcp;  ///< used by kCmcp
  /// kCmcpDynamicP: the controller's starting p, independent of cmcp.p.
  double dynamic_p_start = 0.3;
};

std::unique_ptr<ReplacementPolicy> make_policy(PolicyHost& host,
                                               const PolicyParams& params);

}  // namespace cmcp::policy
