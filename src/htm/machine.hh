/**
 * @file
 * Architectural models of the four HTM machines (paper Table 1).
 *
 * Every quantity that the paper identifies as an explanatory variable —
 * conflict-detection granularity, load/store capacity, SMT resource
 * sharing, abort-reason vocabulary, and the per-machine implementation
 * quirks of Section 2 — is an explicit parameter here.
 *
 * Cycle costs are model calibration constants, not measured hardware
 * values: the paper never reports absolute time, only per-machine
 * speed-up ratios, which depend on the *relative* cost of transactional
 * bookkeeping versus application work. The constants are chosen so the
 * single-thread overhead ordering of Section 5.1 holds (Blue Gene/Q's
 * software begin/end far costlier than the others').
 */

#ifndef HTMSIM_HTM_MACHINE_HH
#define HTMSIM_HTM_MACHINE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/scheduler.hh"

namespace htmsim::htm
{

using sim::Cycles;

/** The four processors of the study. */
enum class Vendor : std::uint8_t
{
    blueGeneQ,
    zEC12,
    intelCore,
    power8,
};

/** Blue Gene/Q transactional execution modes (Section 2.1). */
enum class BgqMode : std::uint8_t
{
    shortRunning, ///< L2-only buffering; fine-grained conflict detection
    longRunning,  ///< L1 buffering after invalidation; lazy subscription
};

/**
 * Full architectural description of one HTM implementation.
 */
struct MachineConfig
{
    std::string name;
    Vendor vendor = Vendor::intelCore;

    // --- Table 1 rows -----------------------------------------------
    /** Conflict-detection granularity in bytes. */
    std::size_t conflictGranularity = 64;
    /** Cache-line size used for capacity accounting and traces. */
    std::size_t capacityLineBytes = 64;
    /** Transactional-load capacity in bytes (per core). */
    std::size_t loadCapacityBytes = 4 << 20;
    /** Transactional-store capacity in bytes (per core). */
    std::size_t storeCapacityBytes = 22 << 10;
    /** Load and store capacity share one budget (BG/Q, POWER8). */
    bool combinedCapacity = false;
    /** Physical cores. */
    unsigned numCores = 4;
    /** SMT threads per core (1 = none). */
    unsigned smtWays = 2;
    /** Aggregate core throughput at full SMT occupancy relative to a
     *  single thread (e.g. 1.3: two Intel hyperthreads deliver ~1.3x
     *  one thread's throughput). Used to slow oversubscribed cores. */
    double smtYield = 1.3;
    /** Whether the machine reports abort-reason codes at all. */
    bool hasAbortCodes = true;
    /** Whether codes include a persistent/transient hint. */
    bool hasPersistenceHint = true;
    /** Number of distinct abort-reason codes (Table 1 last row). */
    unsigned abortReasonKinds = 0;
    /** Clock frequency in GHz (informational; speed-ups are ratios). */
    double clockGhz = 0.0;
    /** Informational cache descriptions for the Table 1 printout. */
    std::string l1Description;
    std::string l2Description;

    // --- Store way-conflict model (Intel: stores must stay in L1) ---
    /** L1 sets for the store way-conflict model; 0 disables it. */
    unsigned storeSets = 0;
    /** Ways per set for the store way-conflict model. */
    unsigned storeWays = 0;

    // --- Machine quirks (Section 2) ---------------------------------
    /** Probability a tx load/store pulls the next line into the read
     *  set (Intel hardware prefetcher; Section 5.1 kmeans anomaly). */
    double prefetchConflictProb = 0.0;
    /** Per-access probability of a transient cache-fetch-related abort
     *  (zEC12's dominant "other" aborts in Figure 3). */
    double cacheFetchAbortProb = 0.0;
    /** Global speculation-ID pool size (BG/Q); 0 = unlimited. */
    unsigned speculationIds = 0;
    /** Cycles to reclaim the retired speculation-ID batch (BG/Q). */
    Cycles specIdReclaimCost = 0;
    /** Supports suspend/resume and rollback-only tx (POWER8). */
    bool hasSuspendResume = false;
    /** Supports constrained transactions (zEC12). */
    bool hasConstrainedTx = false;
    /** Supports HLE (Intel). */
    bool hasHle = false;

    // --- Cycle costs (calibration constants) ------------------------
    Cycles txBeginCost = 40;
    Cycles txEndCost = 30;
    Cycles txAbortCost = 150;
    /** Extra begin cost in BG/Q long-running mode (L1 invalidation). */
    Cycles longModeBeginExtra = 0;
    /** Transactional accesses cost roughly the same as plain ones on
     *  the cache-based implementations; only Blue Gene/Q pays a
     *  per-access premium (L2 round trips in short-running mode). */
    Cycles txLoadCost = 4;
    Cycles txStoreCost = 5;
    /** Additional per-access cost in BG/Q short-running mode (L2). */
    Cycles shortModeAccessExtra = 0;
    Cycles nonTxLoadCost = 4;
    Cycles nonTxStoreCost = 4;
    /** Atomic compare-and-swap cost (lock-free baselines). */
    Cycles casCost = 40;

    // --- Derived helpers --------------------------------------------
    /**
     * Whether lock elision (speculating through a critical section
     * while merely subscribing to the lock word) is worth attempting.
     * Intel has native HLE; zEC12 and POWER8 lack the XACQUIRE hint
     * but their regular transactions subscribe a lock word just as
     * well (generalized transactional lock elision). Blue Gene/Q's
     * software-mediated begin/end is so costly that a single
     * speculative attempt around a short critical section loses to
     * simply taking the spin lock — callers degrade to the real
     * acquisition path instead of crashing (see hle.hh, tmsync/).
     */
    bool
    supportsElision() const
    {
        return hasHle || hasConstrainedTx || hasSuspendResume;
    }

    std::size_t
    loadCapacityLines() const
    {
        return loadCapacityBytes / capacityLineBytes;
    }

    std::size_t
    storeCapacityLines() const
    {
        return storeCapacityBytes / capacityLineBytes;
    }

    unsigned maxThreads() const { return numCores * smtWays; }

    /** Core a given simulated thread runs on (dense round-robin, so
     *  thread counts up to numCores get exclusive cores). */
    unsigned coreOf(unsigned tid) const { return tid % numCores; }

    /** Execution-rate multiplier for one of @p sharers threads on a
     *  core: sharers divided by the interpolated aggregate yield.
     *  Beyond full SMT occupancy (server-style oversubscription: more
     *  simulated clients than hardware threads) the core's aggregate
     *  throughput stays pinned at smtYield — extra threads timeshare
     *  the pipeline, they don't add it resources — so each of N
     *  sharers runs N/smtYield slower. */
    double
    smtTimeScale(unsigned sharers) const
    {
        if (sharers <= 1)
            return 1.0;
        const double span = smtWays > 1 ? double(smtWays - 1) : 1.0;
        // Interpolated aggregate yield up to full SMT occupancy; past
        // it (server-style oversubscription: more simulated clients
        // than hardware threads) the pipeline is saturated, so the
        // aggregate stays pinned at the full-occupancy value and each
        // of N sharers simply timeshares it N ways. The cap reuses the
        // interpolation's own expression so time scales at
        // sharers == smtWays are bit-identical to the historical ones.
        const unsigned occupied = std::min(sharers, smtWays);
        const double throughput =
            1.0 + (smtYield - 1.0) * double(occupied - 1) / span;
        return double(sharers) / throughput;
    }

    /** Time scale for thread @p tid when @p threads threads run. */
    double
    threadTimeScale(unsigned tid, unsigned threads) const
    {
        const unsigned core = coreOf(tid);
        unsigned sharers = 0;
        for (unsigned t = 0; t < threads; ++t)
            sharers += coreOf(t) == core ? 1 : 0;
        return smtTimeScale(sharers);
    }

    // --- The four machines of the paper -----------------------------
    static MachineConfig blueGeneQ();
    static MachineConfig zEC12();
    static MachineConfig intelCore();
    static MachineConfig power8();

    /** All four, in the paper's presentation order. */
    static const std::array<MachineConfig, 4>& all();

    bool operator==(const MachineConfig&) const = default;
};

/** Short label used in the paper's figures (BG, z12, IC, P8). */
const char* vendorShortName(Vendor vendor);

} // namespace htmsim::htm

#endif // HTMSIM_HTM_MACHINE_HH
