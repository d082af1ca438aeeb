/**
 * @file
 * Section 2.3 methodology: measure each machine's transaction
 * capacities with a single-threaded microbenchmark that grows the
 * transactional footprint until capacity-overflow aborts appear (the
 * way the paper measured the undisclosed Intel limits).
 */

#include <cstdio>

#include "htm/runtime.hh"
#include "sim/region.hh"
#include "sim/sim.hh"

using namespace htmsim;
using namespace htmsim::htm;

namespace
{

/** Smallest footprint (bytes) at which a pure-load tx aborts. */
std::size_t
findKnee(const MachineConfig& machine, bool stores)
{
    // One word per capacity line, far more lines than any budget;
    // the whole search is one run of the simulated heap.
    const std::size_t max_lines =
        machine.loadCapacityLines() * 2 + 64;
    sim::RunScope run;
    sim::Vector<std::uint64_t> data(
        max_lines * machine.capacityLineBytes / 8, 0);
    const std::size_t words_per_line = machine.capacityLineBytes / 8;

    std::size_t low = 1;
    std::size_t high = max_lines;
    // Binary search over footprints for the first aborting size.
    // The paper looked specifically for *capacity-overflow* aborts;
    // transient aborts (zEC12's cache-fetch events) are retried.
    auto aborts_at = [&](std::size_t lines) {
        RuntimeConfig config{machine};
        // The paper measured "frequency changes in the capacity-
        // overflow aborts", statistically separating them from
        // transient aborts; here the transient source is simply off.
        config.machine.cacheFetchAbortProb = 0.0;
        sim::Scheduler scheduler;
        Runtime runtime(config, 1);
        bool capacity_abort = false;
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (int attempt = 0; attempt < 16; ++attempt) {
                const AbortCause cause =
                    runtime.tryOnce(ctx, [&](Tx& tx) {
                        for (std::size_t line = 0; line < lines;
                             ++line) {
                            if (stores) {
                                tx.store(
                                    &data[line * words_per_line],
                                    std::uint64_t(line));
                            } else {
                                (void)tx.load(
                                    &data[line * words_per_line]);
                            }
                        }
                    });
                if (cause == AbortCause::none)
                    return;
                if (cause == AbortCause::capacityOverflow ||
                    cause == AbortCause::wayConflict) {
                    capacity_abort = true;
                    return;
                }
                // Transient abort: retry, as the paper did.
            }
        });
        scheduler.run();
        return capacity_abort;
    };

    if (!aborts_at(high))
        return 0; // no knee found
    while (low < high) {
        const std::size_t mid = (low + high) / 2;
        if (aborts_at(mid))
            high = mid;
        else
            low = mid + 1;
    }
    return low * machine.capacityLineBytes;
}

} // namespace

int
main()
{
    std::printf("Section 2.3 microbenchmark: measured capacity knees "
                "(single thread)\n");
    std::printf("%-20s %18s %18s\n", "machine", "load knee",
                "store knee");
    for (const auto& machine : MachineConfig::all()) {
        const std::size_t load_knee = findKnee(machine, false);
        const std::size_t store_knee = findKnee(machine, true);
        auto show = [](std::size_t bytes) {
            static char buffers[4][32];
            static int next = 0;
            char* out = buffers[next++ % 4];
            if (bytes == 0)
                std::snprintf(out, 32, "> tested range");
            else if (bytes >= 1024)
                std::snprintf(out, 32, "%.1f KB", bytes / 1024.0);
            else
                std::snprintf(out, 32, "%zu B", bytes);
            return out;
        };
        std::printf("%-20s %18s %18s\n", machine.name.c_str(),
                    show(load_knee), show(store_knee));
    }
    std::printf(
        "\nExpected: the knee sits one line beyond each configured "
        "budget (the\nglobal-lock subscription word occupies one "
        "line), reproducing the\npaper's 4 MB / 22 KB Intel "
        "measurement methodology. Intel's store knee\ncan appear "
        "earlier when the walked lines collide in one L1 set\n"
        "(way-conflict evictions).\n");
    return 0;
}
