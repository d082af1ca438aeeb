/**
 * @file
 * Runs a test on both lookup paths of the conflict directory
 * (htm/conflict_directory.hh): host memory, whose lines live in the
 * fallback table, and region memory inside a sim::RunScope, whose
 * lines live in the shadow.
 */

#ifndef HTMSIM_TESTS_LOOKUP_PATHS_HH
#define HTMSIM_TESTS_LOOKUP_PATHS_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "htm/function_ref.hh"
#include "sim/region.hh"

namespace htmsim::test
{

/**
 * @p test(words) on @p count zeroed, 256-byte-aligned words of host
 * memory, then on as many words of region memory inside a
 * sim::RunScope. Build the Runtime inside @p test: one built in the
 * scope keeps its lock word in the run area as well.
 */
inline void
onHostAndRegionMemory(std::size_t count,
                      htm::FunctionRef<void(std::uint64_t*)> test)
{
    {
        SCOPED_TRACE("host memory (fallback table)");
        std::vector<std::uint64_t> host(count + 32, 0);
        auto* words = reinterpret_cast<std::uint64_t*>(
            (std::uintptr_t(host.data()) + 255) & ~std::uintptr_t(255));
        ASSERT_FALSE(sim::Region::instance().inRun(words));
        test(words);
    }
    {
        SCOPED_TRACE("region memory (shadow)");
        sim::RunScope run;
        auto* words = static_cast<std::uint64_t*>(
            sim::regionAlloc(count * sizeof(std::uint64_t)));
        std::fill_n(words, count, 0);
        ASSERT_TRUE(sim::Region::instance().inRun(words));
        test(words);
    }
}

} // namespace htmsim::test

#endif // HTMSIM_TESTS_LOOKUP_PATHS_HH
