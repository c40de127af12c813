// Construction of replacement policies from a PolicyKind + parameters.
#pragma once

#include <memory>

#include "policy/cmcp.h"
#include "policy/dynamic_p.h"
#include "policy/replacement_policy.h"

namespace cmcp::policy {

struct PolicyParams {
  PolicyKind kind = PolicyKind::kFifo;
  CmcpConfig cmcp;          ///< used by kCmcp
  DynamicPConfig dynamic_p; ///< used by kCmcpDynamicP
};

std::unique_ptr<ReplacementPolicy> make_policy(PolicyHost& host,
                                               const PolicyParams& params);

}  // namespace cmcp::policy
