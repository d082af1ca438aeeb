/**
 * @file
 * Transaction-abort vocabulary.
 *
 * Each machine reports aborts with its own reason codes (Table 1 of the
 * paper: zEC12 has 14, Intel Core 6, POWER8 11, Blue Gene/Q none). The
 * library normalizes them into the categories the paper's Figure 3 uses,
 * while keeping the per-machine persistent/transient hint that drives
 * the retry mechanism of Section 3.
 */

#ifndef HTMSIM_HTM_ABORT_HH
#define HTMSIM_HTM_ABORT_HH

#include <cstddef>
#include <cstdint>

namespace htmsim::htm
{

/**
 * Normalized abort causes. These are the breakdown categories of the
 * paper's Figure 3 plus the causes that feed them.
 */
enum class AbortCause : std::uint8_t
{
    none = 0,
    /** Read/write or write/write conflict on program data. */
    dataConflict,
    /** Conflict on the global fallback lock word. */
    lockConflict,
    /** Transactional footprint exceeded the machine's capacity. */
    capacityOverflow,
    /** L1 way-conflict eviction of a transactional store line. */
    wayConflict,
    /** zEC12 cache-fetch-related abort (transient, undocumented). */
    cacheFetch,
    /** Explicit tabort() by the program. */
    explicitAbort,
    /** Blue Gene/Q reports no reason codes at all. */
    unclassified,
    /** Injected spurious transient abort (hazard layer, hazard.hh). */
    spurious,
    /** Injected interrupt-style abort (hazard layer, hazard.hh). */
    interrupt,
    /** STM-side conflict: orec validation or clock-epoch failure on
     *  the hybrid backend's software slow path (stm.hh). Also raised
     *  by HTM attempts doomed through the clock-subscription channel. */
    stmConflict,
};

/** Number of AbortCause values; sizes every per-cause counter array
 *  (TxStats::trueCauseAborts, prof::SiteProfile::abortCauses) so the
 *  tallies grow in lockstep when a cause is added. */
constexpr std::size_t numAbortCauses =
    std::size_t(AbortCause::stmConflict) + 1;

/** Figure 3 reporting buckets. */
enum class AbortCategory : std::uint8_t
{
    capacityOverflow = 0,
    dataConflict,
    other,
    lockConflict,
    unclassified,
    numCategories,
};

/** Map a cause to its Figure 3 bucket. */
inline AbortCategory
categorize(AbortCause cause)
{
    switch (cause) {
      case AbortCause::capacityOverflow:
      case AbortCause::wayConflict:
        return AbortCategory::capacityOverflow;
      case AbortCause::dataConflict:
      // STM conflicts are data conflicts observed in software; they
      // report precisely because the slow path knows its own cause.
      case AbortCause::stmConflict:
        return AbortCategory::dataConflict;
      case AbortCause::lockConflict:
        return AbortCategory::lockConflict;
      case AbortCause::cacheFetch:
      case AbortCause::explicitAbort:
      // Injected hazards imitate what real reason codes call
      // "miscellaneous"/"interrupt" conditions, so they report as
      // "other" on machines that have codes at all.
      case AbortCause::spurious:
      case AbortCause::interrupt:
        return AbortCategory::other;
      default:
        return AbortCategory::unclassified;
    }
}

/** Human-readable cause name. */
const char* abortCauseName(AbortCause cause);

/** Human-readable category name. */
const char* abortCategoryName(AbortCategory category);

} // namespace htmsim::htm

#endif // HTMSIM_HTM_ABORT_HH
