#include "backend.hh"

namespace htmsim::htm
{

namespace
{

constexpr BackendKind allBackends[] = {
    BackendKind::htm, BackendKind::globalLock, BackendKind::idealHtm,
    BackendKind::hybrid};

} // namespace

const char*
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::htm:
        return "htm";
      case BackendKind::globalLock:
        return "lock";
      case BackendKind::idealHtm:
        return "ideal";
      case BackendKind::hybrid:
        return "hybrid";
    }
    return "unknown";
}

std::optional<BackendKind>
parseBackendKind(std::string_view name)
{
    for (const BackendKind kind : allBackends) {
        if (name == backendKindName(kind))
            return kind;
    }
    return std::nullopt;
}

std::optional<RetryPolicyKind>
parseRetryPolicyKind(std::string_view name)
{
    if (name == "default")
        return RetryPolicyKind::machineDefault;
    if (name == "hardened")
        return RetryPolicyKind::hardened;
    return std::nullopt;
}

} // namespace htmsim::htm
