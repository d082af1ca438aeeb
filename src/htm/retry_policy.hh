/**
 * @file
 * Retry-policy layer: the software state machine that decides, after
 * each transactional abort, whether an atomic section retries in
 * hardware or gives up to its fallback path.
 *
 * A RetryPolicy is a pure decision object: it consumes abort causes
 * (plus the observed state of the global fallback lock) and emits
 * retry/stop decisions. It never touches the simulator, the conflict
 * directory, or a Tx, which is what makes the layer boundary real —
 * the policies are unit-testable with nothing but scripted abort-cause
 * streams (tests/test_retry_policy.cc).
 *
 * Three policies from the paper:
 *  - Fig1ThreeCounterPolicy: the paper's Figure 1 mechanism — separate
 *    budgets for lock-conflict, persistent and transient aborts
 *    (Section 3), used on zEC12 / Intel Core / POWER8;
 *  - BgqAdaptivePolicy: Blue Gene/Q's system-software mechanism — one
 *    retry counter plus per-thread adaptation that stops retrying
 *    after repeated fallbacks (Section 3);
 *  - NoRetryPolicy: a single attempt, then straight to the fallback
 *    (the Section 6.1 "NoRetryTM" path).
 * BoundedRetryPolicy generalizes NoRetryPolicy to N attempts (the
 * Section 6.1 "OptRetryTM" path with a tuned attempt budget).
 *
 * HardenedRetryPolicy is the starvation-proof variant built for
 * hazard-injected runs (hazard.hh, DESIGN.md Section 8): watchdog and
 * lemming-storm bounds over a Fig1ThreeCounterPolicy, plus
 * deterministic backoff jitter. Its progress bound: every section
 * reaches its fallback within `watchdogAttempts` HTM attempts no
 * matter what the abort stream looks like.
 *
 * TierPolicy turns a thread's RetryPolicy into the decisions of the
 * one tiered section driver (Runtime::runSection): retry in hardware,
 * move to the hybrid backend's software tier, or serialize on the
 * global lock.
 */

#ifndef HTMSIM_HTM_RETRY_POLICY_HH
#define HTMSIM_HTM_RETRY_POLICY_HH

#include <algorithm>
#include <cstdint>
#include <memory>

#include "abort.hh"

namespace htmsim::htm
{

struct RuntimeConfig;

/** Which retry-policy implementation a run's HTM sections use
 *  (RuntimeConfig::policyKind; string names in the tools: "default" /
 *  "hardened"). */
enum class RetryPolicyKind : std::uint8_t
{
    /** The machine's own mechanism: BgqAdaptivePolicy on Blue Gene/Q,
     *  Fig1ThreeCounterPolicy elsewhere. */
    machineDefault,
    /** HardenedRetryPolicy on every machine. */
    hardened,
};

/** Maximum retry counts of the Figure 1 mechanism (tuning knobs). */
struct RetryCounts
{
    int lockRetries = 4;
    int persistentRetries = 1;
    int transientRetries = 8;
};

/**
 * True if @p cause counts as persistent for the Figure 1 mechanism.
 * Intel and POWER8 report a persistence hint; the paper's runtime
 * treats zEC12 capacity overflows as persistent in software
 * (Section 3). Either way the same causes are persistent.
 */
inline bool
isPersistentCause(AbortCause cause)
{
    return cause == AbortCause::capacityOverflow ||
           cause == AbortCause::wayConflict;
}

/**
 * Decision state machine for one thread's atomic sections.
 *
 * Drivers call beginSection() once per atomic section, then onAbort()
 * after every failed attempt until it returns false (stop retrying),
 * and finally exactly one of onCommit() / onFallback(). Policies may
 * keep state across sections (BgqAdaptivePolicy's adaptation score),
 * so one instance serves one thread.
 */
class RetryPolicy
{
  public:
    virtual ~RetryPolicy() = default;

    /** Reset per-section state; called before the first attempt. */
    virtual void beginSection() {}

    /**
     * Consume one abort. @p lock_held reports whether the global
     * fallback lock was observed held after the abort (the Figure 1
     * driver inspects the lock to classify, so a conflict whose lock
     * was already released again is misattributed — see
     * Runtime::reportedCategory).
     * @return true to retry transactionally, false to stop.
     */
    virtual bool onAbort(AbortCause cause, bool lock_held) = 0;

    /** The section committed transactionally. */
    virtual void onCommit() {}

    /** The section gave up and ran on its fallback path. */
    virtual void onFallback() {}

    /** Post-abort backoff jitter is a deterministic hash of
     *  (tid, consecutive aborts) instead of a draw from the thread's
     *  main rng stream (see Runtime::backoff). */
    virtual bool deterministicBackoff() const { return false; }
};

/**
 * The paper's Figure 1 mechanism: three independent retry budgets,
 * selected by inspecting the lock and the persistence hint of each
 * abort. Section 3 argues lock conflicts deserve their own counter;
 * bench_figures' retry-counter ablation quantifies that against a
 * single shared one.
 * HardenedRetryPolicy bounds it further.
 */
class Fig1ThreeCounterPolicy : public RetryPolicy
{
  public:
    explicit Fig1ThreeCounterPolicy(RetryCounts counts)
        : counts_(counts), left_(counts)
    {
    }

    void beginSection() override { rearm(counts_); }

    /** Arm this section's three budgets with @p counts instead of the
     *  configured ones (HardenedRetryPolicy's storm clamp). */
    void rearm(RetryCounts counts) { left_ = counts; }

    bool
    onAbort(AbortCause cause, bool lock_held) override
    {
        // Figure 1 line 13: a lock observed held (or a lock-word
        // conflict) charges the lock counter regardless of the
        // hardware's reported cause.
        if (lock_held || cause == AbortCause::lockConflict)
            return --left_.lockRetries > 0;
        if (isPersistentCause(cause))
            return --left_.persistentRetries > 0;
        return --left_.transientRetries > 0;
    }

  protected:
    /** The configured budgets. */
    RetryCounts counts_;

  private:
    /** Budgets left in the current section. */
    RetryCounts left_;
};

/**
 * Blue Gene/Q's system-provided mechanism (Section 3): one retry
 * counter for all abort kinds (the hardware reports no reason codes to
 * count by), plus adaptation — a thread whose sections repeatedly end
 * in the lock fallback stops retrying until commits decay the score.
 */
class BgqAdaptivePolicy final : public RetryPolicy
{
  public:
    /** Fallback-score decay applied on every section outcome. */
    static constexpr double scoreDecay = 0.9;
    /** Score above which adaptation suppresses all retries. */
    static constexpr double adaptationThreshold = 2.5;

    explicit BgqAdaptivePolicy(int max_retries) : maxRetries_(max_retries)
    {
        beginSection();
    }

    void
    beginSection() override
    {
        retries_ = score_ > adaptationThreshold ? 0 : maxRetries_;
    }

    bool
    onAbort(AbortCause, bool) override
    {
        return retries_-- > 0;
    }

    void
    onCommit() override
    {
        score_ *= scoreDecay;
    }

    void
    onFallback() override
    {
        score_ = score_ * scoreDecay + 1.0;
    }

  private:
    int maxRetries_;
    int retries_ = 0;
    double score_ = 0.0;
};

/** One hardware attempt, then straight to the fallback (NoRetryTM). */
class NoRetryPolicy final : public RetryPolicy
{
  public:
    bool
    onAbort(AbortCause, bool) override
    {
        return false;
    }
};

/**
 * A fixed total attempt budget with no abort-kind distinction
 * (OptRetryTM, Section 6.1). BoundedRetryPolicy(1) behaves like
 * NoRetryPolicy.
 */
class BoundedRetryPolicy final : public RetryPolicy
{
  public:
    /** A non-positive budget clamps to one attempt: the hardware
     *  always runs the first attempt, so "zero attempts" cannot mean
     *  anything stricter than NoRetryPolicy. */
    explicit BoundedRetryPolicy(int max_attempts)
        : maxAttempts_(std::max(max_attempts, 1))
    {
    }

    void
    beginSection() override
    {
        failedAttempts_ = 0;
    }

    bool
    onAbort(AbortCause, bool) override
    {
        return ++failedAttempts_ < maxAttempts_;
    }

  private:
    int maxAttempts_;
    int failedAttempts_ = 0;
};

/**
 * The starvation-proof policy (DESIGN.md Section 8): the Figure 1
 * mechanism, bounded on three fronts for hazard-heavy environments:
 *
 *  - Watchdog: a hard cap of `watchdogAttempts` HTM attempts per
 *    section, regardless of which budgets the abort stream drains.
 *    This is the guaranteed-progress bound — an adversarial stream of
 *    injected aborts cannot keep a section out of its fallback, and
 *    once a section holds the fallback lock it commits in bounded
 *    virtual time (the body is finite and lock holders are never
 *    aborted), so every section terminates.
 *  - Storm adaptation: repeated fallbacks shrink the transient budget
 *    to one (convoy bound — a thread joining a lemming storm stops
 *    feeding it with doomed retries); commits decay the score back.
 *  - Deterministic backoff jitter (deterministicBackoff()), so the
 *    retry cadence of a replayed hazard schedule is reproducible and
 *    independent of the thread's main rng stream position.
 */
class HardenedRetryPolicy final : public Fig1ThreeCounterPolicy
{
  public:
    /** Hard per-section HTM attempt bound (the watchdog). Above the
     *  sum of the default Figure 1 budgets that matter in practice,
     *  so it only fires when classification is being gamed (e.g.
     *  alternating injected causes replenishing each other's
     *  headroom). */
    static constexpr int watchdogAttempts = 12;
    /** Fallback-score decay applied on every section outcome. */
    static constexpr double stormDecay = 0.85;
    /** Score above which the transient budget shrinks to one. */
    static constexpr double stormThreshold = 2.5;

    explicit HardenedRetryPolicy(RetryCounts counts)
        : Fig1ThreeCounterPolicy(counts)
    {
    }

    void
    beginSection() override
    {
        RetryCounts budgets = counts_;
        if (score_ > stormThreshold)
            budgets.transientRetries = std::min(budgets.transientRetries, 1);
        rearm(budgets);
        watchdog_ = watchdogAttempts;
    }

    bool
    onAbort(AbortCause cause, bool lock_held) override
    {
        if (--watchdog_ <= 0)
            return false;
        return Fig1ThreeCounterPolicy::onAbort(cause, lock_held);
    }

    void
    onCommit() override
    {
        score_ *= stormDecay;
    }

    void
    onFallback() override
    {
        score_ = score_ * stormDecay + 1.0;
    }

    bool deterministicBackoff() const override { return true; }

  private:
    int watchdog_ = watchdogAttempts;
    double score_ = 0.0;
};

/** Where an atomic section's next attempt runs (Runtime::runSection
 *  tries them in this order; no section ever moves back). */
enum class Tier : std::uint8_t
{
    /** A best-effort hardware transaction. */
    hardware,
    /** A software transaction (stm.hh; hybrid backend only). */
    software,
    /** Irrevocably under the global fallback lock (always commits). */
    lock,
};

/**
 * The tier decisions of one thread's atomic sections: wraps the
 * thread's base RetryPolicy and turns its binary retry/stop output
 * into the next tier — retry in hardware, move to the software tier,
 * or (only when the software tier is exhausted or disabled) serialize
 * on the global lock.
 *
 * Decision rules:
 *  - software tier disabled (every backend but hybrid): mirror the
 *    base policy exactly (hardware while it says retry, then lock);
 *  - persistent abort causes (capacity, way conflict): straight to
 *    software *without* consuming base-policy budget — retrying a
 *    too-big transaction in hardware is the waste the hybrid exists
 *    to avoid, and the software tier has no capacity limit;
 *  - transient causes: hardware while the base policy says retry,
 *    software when it gives up — the lock is no longer the next stop
 *    after hardware;
 *  - software aborts: up to stmAttempts tries, then lock (the progress
 *    guarantee: validation-doomed sections eventually serialize).
 *
 * Like every policy, this is a pure decision object — unit-tested
 * with scripted abort streams in tests/test_retry_policy.cc.
 */
class TierPolicy
{
  public:
    /** Resolved software-tier knobs (from RuntimeConfig::hybrid;
     *  stmEnabled is whether the backend is hybrid). */
    struct Tuning
    {
        bool stmEnabled = true;
        bool stmOnly = false;
        int stmAttempts = 3;
    };

    TierPolicy(std::unique_ptr<RetryPolicy> base, Tuning tuning)
        : base_(std::move(base)), tuning_(tuning)
    {
    }

    /** The tier a section starts on: software under stmOnly, else
     *  hardware. */
    Tier
    firstTier() const
    {
        return tuning_.stmEnabled && tuning_.stmOnly ? Tier::software
                                                     : Tier::hardware;
    }

    void
    beginSection()
    {
        base_->beginSection();
        stmFailures_ = 0;
    }

    /** The tier after a hardware abort. */
    Tier
    onHtmAbort(AbortCause cause, bool lock_held)
    {
        if (!tuning_.stmEnabled) {
            return base_->onAbort(cause, lock_held) ? Tier::hardware
                                                    : Tier::lock;
        }
        if (isPersistentCause(cause) && !lock_held) {
            // Persistent hardware causes do not drain base budgets:
            // the hardware already told us retrying is futile, and
            // the software tier does not share the limitation.
            return Tier::software;
        }
        return base_->onAbort(cause, lock_held) ? Tier::hardware
                                                : Tier::software;
    }

    /** The tier after a software abort. */
    Tier
    onStmAbort(AbortCause)
    {
        return ++stmFailures_ < tuning_.stmAttempts ? Tier::software
                                                    : Tier::lock;
    }

    void onCommit() { base_->onCommit(); }
    void onFallback() { base_->onFallback(); }

    bool
    deterministicBackoff() const
    {
        return base_->deterministicBackoff();
    }

  private:
    std::unique_ptr<RetryPolicy> base_;
    Tuning tuning_;
    int stmFailures_ = 0;
};

/**
 * The policy an HTM-backed atomic section uses under @p config:
 * HardenedRetryPolicy everywhere when config.policyKind requests it,
 * otherwise BgqAdaptivePolicy on Blue Gene/Q (the machine's system
 * software owns the mechanism) and Fig1ThreeCounterPolicy elsewhere.
 * One instance per thread (policies carry cross-section state).
 */
std::unique_ptr<RetryPolicy> makeRetryPolicy(const RuntimeConfig& config);

} // namespace htmsim::htm

#endif // HTMSIM_HTM_RETRY_POLICY_HH
