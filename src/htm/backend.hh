/**
 * @file
 * Backend selection: what an atomic section *is*.
 *
 * Every backend but hle runs through the one tiered section driver in
 * Runtime (Runtime::runSection): hardware attempts under the thread's
 * retry policy, then — on the hybrid backend — a software-TM tier
 * (stm.hh), then the global fallback lock. A BackendKind only picks
 * the tier a section starts on and which tiers are live:
 *
 *  - htm: hardware, then the lock — the machine behaviour the paper
 *    measures;
 *  - globalLock: starts on the lock tier, so every section runs
 *    irrevocably under the global fallback lock — the honest software
 *    baseline a speculation-free runtime would give, and the floor HTM
 *    must beat to justify itself (cf. "Inherent Limitations of Hybrid
 *    Transactional Memory", PAPERS.md);
 *  - idealHtm: the htm tiers on a machine whose capacity limits,
 *    begin/end/abort costs and abort randomness the Runtime resolved
 *    away — an upper-bound oracle where only true data and lock
 *    conflicts remain;
 *  - hybrid: hardware, then a software transaction concurrent with the
 *    hardware fast path, then the lock — the design point the hybrid-TM
 *    bounds literature analyzes ("Inherent Limitations of Hybrid
 *    Transactional Memory"; "On the Cost of Concurrency in Hybrid
 *    Transactional Memory", PAPERS.md);
 *  - hle: no tiers — Runtime::runSection hands each section to the
 *    Runtime's one HleLock (hle.hh), Intel's lock elision of Figure 7.
 *
 * This header also holds the tools' one name table for backends and
 * retry-policy kinds.
 */

#ifndef HTMSIM_HTM_BACKEND_HH
#define HTMSIM_HTM_BACKEND_HH

#include <cstdint>
#include <optional>
#include <string_view>

#include "retry_policy.hh"

namespace htmsim::htm
{

/** Execution backend selector (RuntimeConfig::backend). */
enum class BackendKind : std::uint8_t
{
    /** Best-effort HTM with retry policy + global-lock fallback. */
    htm,
    /** Every atomic section runs irrevocably under the global lock. */
    globalLock,
    /** HTM with unlimited capacity and free begin/end (oracle). */
    idealHtm,
    /** Best-effort HTM with a concurrent software-TM slow path
     *  (stm.hh) between the retries and the global lock. */
    hybrid,
    /** Intel HLE (Figure 7): one hardware attempt eliding a lock word
     *  the Runtime owns, then that lock taken for real, with no
     *  retries. */
    hle,
};

/** Human-readable backend name ("htm", "lock", "ideal", "hybrid",
 *  "hle"). */
const char* backendKindName(BackendKind kind);

/** The backend named @p name (a backendKindName), if any. */
std::optional<BackendKind> parseBackendKind(std::string_view name);

/** The retry-policy kind named @p name ("default" or "hardened"). */
std::optional<RetryPolicyKind> parseRetryPolicyKind(std::string_view name);

} // namespace htmsim::htm

#endif // HTMSIM_HTM_BACKEND_HH
