/**
 * @file
 * The simulated heap: one run-scoped region at a fixed virtual base.
 *
 * The machine models derive every conflict line, capacity set, store
 * set and orec from the address of the data a simulated thread
 * touches, and yada's work queue orders triangles by pointer. So every
 * simulated object lives here: allocation restarts at the same base
 * for every run, and an address — and with it every simulated number —
 * is a function of the run's inputs and seed alone, never of what the
 * process ran before, the binary's layout or ASLR.
 *
 * A RunScope marks one run. The outermost scope restarts allocation at
 * the base with empty free lists; nested scopes continue the enclosing
 * run. Freeing run memory outside any scope is a no-op: the next
 * outermost scope reclaims it. Allocations made outside any scope
 * (unit tests, probes, examples) come from a loose area above the run
 * area that never restarts and recycles its own frees. Pages stay
 * resident across runs, so a run costs no page faults for memory an
 * earlier run already touched.
 *
 * Every allocation is a 256-byte-aligned chunk of whole 256-byte
 * lines. All simulated threads share one host thread; one packed heap
 * would put concurrent allocations on shared lines, an artificial
 * false-sharing hotspot that no real threaded program's per-thread
 * arenas have. Freed chunks are reused by size class within the run.
 *
 * Single-host-threaded by design, like the whole simulator.
 */

#ifndef HTMSIM_SIM_REGION_HH
#define HTMSIM_SIM_REGION_HH

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace htmsim::sim
{

/** Chunk granularity: the largest conflict line of any machine. */
inline constexpr std::size_t regionLineBytes = 256;

class Region
{
  public:
    /** Fixed base of the reservation. Outside ASan's allocator space
     *  (0x600000000000), so sanitizer builds map it too. */
    static constexpr std::uintptr_t base = 0x200000000000;
    /** Bytes in each of the run and loose areas (address space only;
     *  pages become resident when touched). */
    static constexpr std::size_t areaBytes = std::size_t(1) << 36;

    /** The process-wide region. Never destroyed: simulated objects
     *  may be released during static destruction. */
    static Region&
    instance()
    {
        static Region* region = new Region();
        return *region;
    }

    void*
    alloc(std::size_t bytes)
    {
        return (depth_ > 0 ? run_ : loose_).alloc(bytes);
    }

    void
    free(void* ptr, std::size_t bytes)
    {
        if (inRun(ptr)) {
            if (active())
                run_.free(ptr, bytes);
        } else if (ptr != nullptr) {
            assert(loose_.contains(ptr) && "not a region chunk");
            loose_.free(ptr, bytes);
        }
    }

    /** Whether a run is in progress. */
    bool active() const { return depth_ > 0; }

    /** Whether @p addr lies in the run area. */
    bool inRun(const void* addr) const { return run_.contains(addr); }

    /** Whether @p addr belongs to a finished run. */
    bool stale(const void* addr) const { return !active() && inRun(addr); }

  private:
    friend class RunScope;

    /** Chunk sizes: exact line counts up to 64 lines, then powers of
     *  two (large buffers are few; their tails are never touched). */
    static constexpr std::size_t exactClasses = 64;
    static constexpr std::size_t classCount = exactClasses + 32;

    /** (free-list index, chunk bytes) of an allocation. */
    static std::pair<std::size_t, std::size_t>
    classOf(std::size_t bytes)
    {
        const std::size_t lines =
            bytes == 0 ? 1 : (bytes - 1) / regionLineBytes + 1;
        if (lines <= exactClasses)
            return {lines - 1, lines * regionLineBytes};
        const unsigned log2 = unsigned(std::bit_width(lines - 1));
        return {exactClasses + log2 - 7,
                (std::size_t(1) << log2) * regionLineBytes};
    }

    /** One bump-allocated area with size-class free lists. */
    struct Area
    {
        char* begin = nullptr;
        char* next = nullptr;
        char* end = nullptr;
        std::array<std::vector<void*>, classCount> freeLists;

        bool
        contains(const void* addr) const
        {
            return addr >= begin && addr < end;
        }

        void
        restart()
        {
            next = begin;
            for (std::vector<void*>& list : freeLists)
                list.clear();
        }

        void*
        alloc(std::size_t bytes)
        {
            const auto [index, chunk_bytes] = classOf(bytes);
            std::vector<void*>& list = freeLists[index];
            if (!list.empty()) {
                void* chunk = list.back();
                list.pop_back();
                return chunk;
            }
            if (chunk_bytes > std::size_t(end - next))
                throw std::bad_alloc();
            void* chunk = next;
            next += chunk_bytes;
            return chunk;
        }

        void
        free(void* ptr, std::size_t bytes)
        {
            freeLists[classOf(bytes).first].push_back(ptr);
        }
    };

    /** Maps the reservation; throws std::runtime_error if the fixed
     *  range is taken. */
    Region();

    Area run_;
    Area loose_;
    unsigned depth_ = 0;
};

/**
 * One run. The outermost scope restarts the run area; nested scopes
 * continue the enclosing run.
 */
class RunScope
{
  public:
    RunScope()
    {
        Region& region = Region::instance();
        if (region.depth_++ == 0)
            region.run_.restart();
    }

    ~RunScope() { --Region::instance().depth_; }

    RunScope(const RunScope&) = delete;
    RunScope& operator=(const RunScope&) = delete;
};

inline void*
regionAlloc(std::size_t bytes)
{
    return Region::instance().alloc(bytes);
}

inline void
regionFree(void* ptr, std::size_t bytes)
{
    Region::instance().free(ptr, bytes);
}

/**
 * Precondition of every simulated access: while a run is active, the
 * address lies in its region. Checked in builds with assertions.
 */
inline void
assertSimulated([[maybe_unused]] const void* addr)
{
    assert((!Region::instance().active() ||
            Region::instance().inRun(addr)) &&
           "simulated access outside the run's region");
}

/** Standard allocator over the region (containers of simulated data). */
template <typename T>
struct Allocator
{
    using value_type = T;

    Allocator() = default;
    template <typename U> Allocator(const Allocator<U>&) {}

    T*
    allocate(std::size_t count)
    {
        return static_cast<T*>(regionAlloc(count * sizeof(T)));
    }

    void
    deallocate(T* ptr, std::size_t count)
    {
        regionFree(ptr, count * sizeof(T));
    }

    friend bool operator==(Allocator, Allocator) { return true; }
};

template <typename T>
using Vector = std::vector<T, Allocator<T>>;

/**
 * Deleter of region objects: destroys, then returns the chunk. An
 * object of a finished run is reclaimed with that run and left alone:
 * its memory may already hold a later run's state.
 */
struct Deleter
{
    std::size_t bytes = 0;

    template <typename T>
    void
    operator()(T* ptr) const
    {
        if (Region::instance().stale(ptr))
            return;
        ptr->~T();
        regionFree(ptr, bytes);
    }
};

/** Owning pointer to a simulated object. */
template <typename T>
using Ptr = std::unique_ptr<T, Deleter>;

/** Construct a simulated object in the region (std::make_unique's
 *  counterpart for simulated state). */
template <typename T, typename... Args>
Ptr<T>
make(Args&&... args)
{
    void* memory = regionAlloc(sizeof(T));
    return Ptr<T>(::new (memory) T(std::forward<Args>(args)...),
                  Deleter{sizeof(T)});
}

} // namespace htmsim::sim

#endif // HTMSIM_SIM_REGION_HH
