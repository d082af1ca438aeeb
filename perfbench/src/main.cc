/**
 * @file
 * htmsim_perfbench: one process of the host-time benchmark (run.py
 * drives it and assembles the reported metrics).
 *
 *   htmsim_perfbench setup  --workload W --seed N [common flags]
 *   htmsim_perfbench run    --workload W --seed N [--seconds S]
 *                           [--traced 0|1] [common flags]
 *   htmsim_perfbench probes
 *
 * Set-up time runs from main() of the first process, across the
 * re-execution below, to the first timed run. A traced run writes its
 * trace files to out/<workload>.* beside the binary.
 *
 * Every process first re-executes itself with ASLR disabled
 * (personality(ADDR_NO_RANDOMIZE)), a fixed environment and a
 * fixed-width argument vector, so that the simulated results, which
 * hash host addresses, repeat from run to run. `run` executes the
 * workload's unit runs back to back in-process, pass after pass, and
 * ends its output with one JSON line.
 */

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/personality.h>
#include <unistd.h>

#include "build_info.hh"
#include "check/workload.hh"
#include "probes.hh"
#include "trace.hh"
#include "workloads.hh"

namespace
{

using namespace htmsim;
using namespace htmsim::perfbench;

constexpr const char* canonicalMarker = "HTMSIM_PERFBENCH_CANONICAL";
/** Upper bound on passes in one timed run. */
constexpr unsigned maxPasses = 1000;

struct Options
{
    std::string mode;
    std::string workload = "stamp-grid";
    std::uint64_t seed = 0;
    unsigned seconds = 10;
    bool traced = false;
    std::int64_t startNs = 0;

    /** The argument vector of the canonical re-execution: every flag
     *  present, numbers at fixed width. */
    std::vector<std::string>
    canonicalArgs() const
    {
        char seed_text[24];
        char seconds_text[16];
        char start_text[24];
        std::snprintf(seed_text, sizeof seed_text, "%020" PRIu64, seed);
        std::snprintf(seconds_text, sizeof seconds_text, "%06u", seconds);
        std::snprintf(start_text, sizeof start_text, "%020" PRId64,
                      startNs);
        return {"htmsim_perfbench", mode,         "--workload",
                workload,           "--seed",     seed_text,
                "--seconds",        seconds_text, "--traced",
                traced ? "1" : "0", "--start-ns", start_text};
    }
};

bool
parseUnsigned(const char* text, std::uint64_t& value)
{
    if (text == nullptr || *text == '\0' || *text == '-')
        return false;
    char* end = nullptr;
    value = std::strtoull(text, &end, 10);
    return end != nullptr && *end == '\0';
}

bool
parseOptions(int argc, char** argv, Options& options)
{
    if (argc < 2)
        return false;
    options.mode = argv[1];
    if (options.mode != "run" && options.mode != "setup" &&
        options.mode != "probes")
        return false;
    for (int i = 2; i < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        std::uint64_t number = 0;
        if (value == nullptr)
            return false;
        if (flag == "--workload") {
            options.workload = value;
        } else if (!parseUnsigned(value, number)) {
            return false;
        } else if (flag == "--seed") {
            options.seed = number;
        } else if (flag == "--seconds" && number <= 3600) {
            options.seconds = unsigned(number);
        } else if (flag == "--traced" && number <= 1) {
            options.traced = number == 1;
        } else if (flag == "--start-ns" && number <= (1ull << 62)) {
            options.startNs = std::int64_t(number);
        } else {
            return false;
        }
    }
    const auto& names = workloadNames();
    return options.mode == "probes" ||
           std::find(names.begin(), names.end(), options.workload) !=
               names.end();
}

/**
 * Re-execute this binary once with ASLR disabled and a canonical
 * argument vector and environment. Returns only in the re-executed
 * process, or when re-execution is impossible (then unpinned).
 */
void
reexecCanonical(const Options& options)
{
    if (std::getenv(canonicalMarker) != nullptr)
        return;
    const int current = ::personality(0xffffffff);
    if (current != -1)
        ::personality(unsigned(current) | ADDR_NO_RANDOMIZE);
    std::vector<std::string> args = options.canonicalArgs();
    std::vector<char*> argv;
    for (std::string& arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    std::string marker = std::string(canonicalMarker) + "=1";
    char* envp[] = {marker.data(), nullptr};
    ::execve("/proc/self/exe", argv.data(), envp);
    std::fprintf(stderr, "warning: re-exec failed (%s); running unpinned\n",
                 std::strerror(errno));
}

bool
aslrPinned()
{
    const int current = ::personality(0xffffffff);
    return current != -1 && (current & ADDR_NO_RANDOMIZE) != 0;
}

/**
 * `out/<workload>` beside this binary, its directory created; empty on
 * failure. Kept off the command line: argument bytes sit on the stack and
 * would shift the simulated results with the checkout's path length.
 */
std::string
traceOutPrefix(const std::string& workload)
{
    std::error_code error;
    const std::filesystem::path dir =
        std::filesystem::read_symlink("/proc/self/exe", error)
            .parent_path() /
        "out";
    if (error)
        return {};
    std::filesystem::create_directories(dir, error);
    return error ? std::string() : (dir / workload).string();
}

/** Peak resident set of this process image (VmHWM), in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double position = q * double(values.size() - 1);
    const std::size_t low = std::size_t(position);
    const std::size_t high = std::min(low + 1, values.size() - 1);
    return values[low] + (values[high] - values[low]) *
                             (position - double(low));
}

void
printBuildJson()
{
    std::printf("\"build\": {\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"flags\": \"%s\", \"lto\": \"%s\"}, \"nproc\": %ld, "
                "\"aslr\": \"%s\"",
                build::compiler, build::buildType, build::flags, build::lto,
                ::sysconf(_SC_NPROCESSORS_ONLN),
                aslrPinned() ? "pinned" : "unpinned");
}

/** One layer metric of the run's JSON. */
struct Metric
{
    std::string name;
    double value;
};

int
runProbesMode()
{
    const ProbeResults results = runProbes();
    for (const auto& [name, value] : results.values)
        std::printf("probe %-32s %12.2f\n", name.c_str(), value);
    std::printf("{\"mode\": \"probes\", \"ok\": %s, ",
                results.ok ? "true" : "false");
    printBuildJson();
    std::printf(", \"layers\": {");
    for (std::size_t i = 0; i < results.values.size(); ++i) {
        std::printf("%s\"%s\": %.6g", i == 0 ? "" : ", ",
                    results.values[i].first.c_str(),
                    results.values[i].second);
    }
    std::printf("}}\n");
    return results.ok ? 0 : 1;
}

int
runWorkloadMode(const Options& options)
{
    // Everything the traced run records goes here; mapped before any
    // workload input exists, in traced and untraced runs alike.
    TraceArena arena;
    Tracer tracer(arena);
    Tracer* active = options.traced ? &tracer : nullptr;
    std::vector<double> unit_ms;
    unit_ms.reserve(std::size_t(1) << 17);
    std::vector<double> pass_commits;
    pass_commits.reserve(maxPasses);
    std::uint64_t first_digest = 0;

    const std::unique_ptr<Workload> workload =
        makeWorkload(options.workload, options.seed, active);
    const double setup_s = double(hostNs() - options.startNs) / 1e9;
    if (options.mode == "setup") {
        std::printf("{\"mode\": \"setup\", \"workload\": \"%s\", "
                    "\"setup_s\": %.9f, ",
                    options.workload.c_str(), setup_s);
        printBuildJson();
        std::printf("}\n");
        return 0;
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    // Layer totals of the first pass.
    htm::TxStats stats;
    bool has_stats = false;
    std::uint64_t first_ops = 0;
    std::int64_t first_unit_ns = 0;
    const std::pair<const char*, htm::TxEventKind> attributed[] = {
        {"htm.host_ms_to_commit", htm::TxEventKind::commit},
        {"htm.host_ms_to_abort", htm::TxEventKind::abort},
        {"htm.host_ms_to_lock_acquired", htm::TxEventKind::lockAcquired},
        {"htm.host_ms_to_fallback_commit", htm::TxEventKind::fallbackCommit}};
    double first_attributed_ms[std::size(attributed)] = {};

    const std::int64_t measure_start = hostNs();
    for (unsigned pass = 0; pass < maxPasses; ++pass) {
        const std::int64_t pass_start = hostNs();
        std::uint64_t digest = 0;
        std::uint64_t commits = 0;
        workload->setCharging(pass == 0);
        {
            Span pass_span(active, "pass");
            for (std::size_t i = 0; i < workload->size(); ++i) {
                if (active != nullptr)
                    tracer.restartInterval();
                const std::int64_t start = hostNs();
                const UnitOutcome outcome = workload->run(i, active);
                const std::int64_t ns = hostNs() - start;
                unit_ms.push_back(double(ns) / 1e6);
                ++attempted;
                failed += outcome.ok ? 0 : 1;
                commits += outcome.commits;
                digest = check::foldHash(digest, outcome.digest);
                workload->chargeUnit(i, ns);
                if (pass == 0) {
                    first_unit_ns += ns;
                    first_ops += outcome.ops;
                    if (outcome.hasStats) {
                        stats += outcome.stats;
                        has_stats = true;
                    }
                }
            }
        }
        const double wall = double(hostNs() - pass_start) / 1e9;
        pass_commits.push_back(double(commits));
        if (pass == 0) {
            first_digest = digest;
            for (std::size_t k = 0; k < std::size(attributed); ++k) {
                first_attributed_ms[k] =
                    double(tracer.hostNsTo(attributed[k].second)) / 1e6;
            }
        }
        std::printf("pass %u: %.3f s, %zu runs, %" PRIu64
                    " commits, sim_digest %016" PRIx64 "\n",
                    pass + 1, wall, workload->size(), commits, digest);
        std::fflush(stdout);
        const double elapsed = double(hostNs() - measure_start) / 1e9;
        if (elapsed + wall > double(options.seconds))
            break;
    }

    std::vector<Metric> layers;
    if (has_stats) {
        const std::uint64_t accesses = stats.txLoads + stats.txStores;
        layers.push_back({"htm.accesses", double(accesses)});
        layers.push_back({"htm.aborts", double(stats.totalAborts())});
        layers.push_back(
            {"htm.fallbacks", double(stats.irrevocableCommits)});
        layers.push_back({"htm.stm_commits", double(stats.stmCommits)});
        layers.push_back({"htm.abort_ratio", stats.abortRatio()});
        layers.push_back({"htm.wasted_work_ratio", stats.wastedWorkRatio()});
        layers.push_back({"htm.host_ns_per_access",
                          accesses == 0 ? 0.0
                                        : double(first_unit_ns) /
                                              double(accesses)});
    }
    layers.push_back({"htm.commits", pass_commits.front()});
    if (active != nullptr) {
        for (std::size_t k = 0; k < std::size(attributed); ++k)
            layers.push_back({attributed[k].first, first_attributed_ms[k]});
        layers.push_back({"trace.events", double(tracer.events())});
        layers.push_back(
            {"trace.dropped_events", double(tracer.droppedEvents())});
        layers.push_back({"trace.spans", double(tracer.spans())});
    }
    for (std::size_t k = 0; k < workload->keys().size(); ++k)
        layers.push_back({workload->keys()[k], workload->keyMs()[k]});
    if (first_ops > 0) {
        layers.push_back({"server.host_us_per_op",
                          double(first_unit_ns) / 1e3 / double(first_ops)});
    }
    if (options.workload == "oracle-sweep") {
        layers.push_back({"check.host_us_per_run",
                          double(first_unit_ns) / 1e3 /
                              double(workload->size())});
    }

    bool trace_written = true;
    if (active != nullptr) {
        const std::string prefix = traceOutPrefix(options.workload);
        trace_written = !prefix.empty() && tracer.write(prefix);
        std::printf("trace: %" PRIu64 " events (%" PRIu64
                    " dropped), %" PRIu64 " spans (%" PRIu64
                    " dropped) -> %s.{spans.json,events.bin}%s\n",
                    tracer.events(), tracer.droppedEvents(), tracer.spans(),
                    tracer.droppedSpans(), prefix.c_str(),
                    trace_written ? "" : " FAILED");
    }

    // Each unit run's host time is its fastest pass: interference on a
    // shared host only ever slows a run, so the minimum is the stable
    // estimate (min-of-N). The fixed work's host time is their sum.
    const std::size_t units = workload->size();
    std::vector<double> unit_best_ms(units, 0.0);
    for (std::size_t at = 0; at < unit_ms.size(); ++at) {
        double& best = unit_best_ms[at % units];
        best = at < units ? unit_ms[at] : std::min(best, unit_ms[at]);
    }
    double wall_s = 0.0;
    for (const double ms : unit_best_ms)
        wall_s += ms / 1e3;
    std::printf("{\"mode\": \"run\", \"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"traced\": %s, ",
                options.workload.c_str(), options.seed,
                options.traced ? "true" : "false");
    printBuildJson();
    std::printf(", \"passes\": %zu, \"units_per_pass\": %zu, "
                "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", "
                "\"trace_written\": %s, \"sim_digest\": \"%016" PRIx64 "\", "
                "\"setup_s\": %.9f, \"wall_s\": %.9f, "
                "\"run_ms_p50\": %.9f, \"run_ms_p90\": %.9f, "
                "\"run_samples\": %zu, \"sim_commits_per_host_s\": %.6f, "
                "\"peak_rss_mb\": %.3f",
                pass_commits.size(), workload->size(), attempted, failed,
                trace_written ? "true" : "false", first_digest, setup_s,
                wall_s, quantile(unit_best_ms, 0.5),
                quantile(unit_best_ms, 0.9), unit_best_ms.size(),
                quantile(pass_commits, 0.5) / wall_s, peakRssMb());
    std::printf(", \"layers\": {");
    for (std::size_t i = 0; i < layers.size(); ++i) {
        std::printf("%s\"%s\": %.9g", i == 0 ? "" : ", ",
                    layers[i].name.c_str(), layers[i].value);
    }
    std::printf("}}\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::int64_t entry_ns = hostNs();
    Options options;
    if (!parseOptions(argc, argv, options)) {
        std::fprintf(stderr,
                     "usage: %s setup|run|probes --workload "
                     "stamp-grid|server-crowd|oracle-sweep --seed N "
                     "[--seconds S] [--traced 0|1]\n",
                     argv[0]);
        return 2;
    }
    if (options.startNs == 0)
        options.startNs = entry_ns;
    reexecCanonical(options);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    if (options.mode == "probes")
        return runProbesMode();
    return runWorkloadMode(options);
}
