#include "retry_policy.hh"

#include "runtime.hh"

namespace htmsim::htm
{

std::unique_ptr<RetryPolicy>
makeRetryPolicy(const RuntimeConfig& config)
{
    if (config.policyKind == RetryPolicyKind::hardened)
        return std::make_unique<HardenedRetryPolicy>(config.retry);
    if (config.machine.vendor == Vendor::blueGeneQ)
        return std::make_unique<BgqAdaptivePolicy>(config.bgq.maxRetries);
    return std::make_unique<Fig1ThreeCounterPolicy>(config.retry);
}

} // namespace htmsim::htm
