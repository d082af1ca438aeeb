#include "conflict_directory.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/region.hh"

namespace htmsim::htm
{

namespace
{

/** Bytes reserved per shadow mapping (address space only; a page
 *  becomes resident when a mark is first written to it). Enough for
 *  the whole run area at 8-byte lines and 4-byte cells (up to 16
 *  threads); wider cells cover at least its first 7.5 GiB. */
constexpr std::size_t shadowBytes = std::size_t(1) << 35;

/** Widest cell: the owner lane plus a reader lane per 16 threads. */
constexpr std::size_t maxCellBytes =
    (1 + kMaxTxThreads / ConflictCell::laneBits) * sizeof(std::uint16_t);

/** Released mappings, all-zero. Never unmapped, like the region. */
std::vector<std::uint16_t*>&
pool()
{
    static auto* released = new std::vector<std::uint16_t*>();
    return *released;
}

std::uint16_t*
acquireMapping()
{
    std::vector<std::uint16_t*>& released = pool();
    if (!released.empty()) {
        std::uint16_t* mapping = released.back();
        released.pop_back();
        return mapping;
    }
    void* got = ::mmap(nullptr, shadowBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                       0);
    if (got == MAP_FAILED) {
        throw std::runtime_error(
            std::string("conflict directory: cannot map the shadow: ") +
            std::strerror(errno));
    }
    return static_cast<std::uint16_t*>(got);
}

} // namespace

ConflictDirectory::~ConflictDirectory()
{
    if (shadow_ != nullptr)
        pool().push_back(shadow_);
}

void
ConflictDirectory::attach(unsigned threads, unsigned line_shift)
{
    cellLanes_ = 1 + (threads + ConflictCell::laneBits - 1) /
                         ConflictCell::laneBits;
    shadow_ = acquireMapping();
    firstLine_ = sim::Region::base >> line_shift;
    shadowLines_ = std::min(
        sim::Region::areaBytes >> line_shift,
        shadowBytes / (cellLanes_ * sizeof(std::uint16_t)));
}

ConflictCell
ConflictDirectory::fallbackCell(std::uintptr_t line)
{
    return {fallback_.insertOrFind(line).lanes, cellLanes_ - 1};
}

std::size_t
ConflictDirectory::markedFallbackLines() const
{
    std::size_t count = 0;
    fallback_.forEach([&count](std::uintptr_t, const FallbackCell& cell) {
        if (std::any_of(std::begin(cell.lanes), std::end(cell.lanes),
                        [](std::uint16_t lane) { return lane != 0; }))
            ++count;
    });
    return count;
}

bool
pooledShadowsClean(std::uintptr_t high_water)
{
    if (high_water <= sim::Region::base)
        return true;
    const std::size_t lines = (high_water - sim::Region::base + 7) / 8;
    const std::size_t bytes = std::min(shadowBytes, lines * maxCellBytes);
    for (const std::uint16_t* mapping : pool()) {
        const auto* words = reinterpret_cast<const std::uint64_t*>(mapping);
        std::uint64_t any = 0;
        for (std::size_t i = 0; i < (bytes + 7) / 8; ++i)
            any |= words[i];
        if (any != 0)
            return false;
    }
    return true;
}

} // namespace htmsim::htm
