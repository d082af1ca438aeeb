#include "region.hh"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace htmsim::sim
{

Region::Region()
{
    void* want = reinterpret_cast<void*>(base);
    void* got = ::mmap(want, 2 * areaBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE |
                           MAP_FIXED_NOREPLACE,
                       -1, 0);
    if (got != want) {
        const int error = errno;
        if (got != MAP_FAILED)
            ::munmap(got, 2 * areaBytes);
        throw std::runtime_error(
            "simulated heap: cannot map the fixed region: " +
            std::string(got == MAP_FAILED ? std::strerror(error)
                                          : "kernel chose another address"));
    }
    char* start = static_cast<char*>(got);
    run_.begin = run_.next = start;
    run_.end = start + areaBytes;
    loose_.begin = loose_.next = run_.end;
    loose_.end = run_.end + areaBytes;
}

} // namespace htmsim::sim
