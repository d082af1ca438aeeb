/**
 * @file
 * The report envelope: every JSON report a tool writes opens with
 * the same three members, written here and nowhere else,
 *
 *   "schema": "htmsim-report-v1",
 *   "tool": the binary's name,
 *   "provenance": {git, compiler, build_type, flags, lto, host_cores,
 *                  scale, argv}
 *
 * and the tool's payload follows. git is `git describe --always
 * --dirty` at build time ("unavailable" outside a checkout); scale is
 * HTMSIM_SCALE (1 when unset); argv[0] is reduced to its basename.
 *
 * Only tool mains (and the tests) include this header: it reads
 * build_info.hh, which the main CMake build generates on every build.
 * Nothing under src/, and nothing bench/suite.hh includes, may depend
 * on a generated header, because perfbench compiles them with its own
 * CMake.
 */

#ifndef HTMSIM_BENCH_REPORT_HH
#define HTMSIM_BENCH_REPORT_HH

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "build_info.hh"
#include "prof/json.hh"
#include "suite.hh"

namespace htmsim::bench
{

/**
 * Write the JSON document @p fill writes into a writer on @p path.
 * Returns false, after printing why, if the file cannot be written.
 */
template <typename Fill>
bool
writeJsonFile(const std::string& path, Fill&& fill)
{
    std::ofstream out(path);
    if (out) {
        prof::JsonWriter json(out);
        fill(json);
    }
    if (!out.flush()) {
        std::perror(path.c_str());
        return false;
    }
    return true;
}

/** The envelope, as the first members of @p json's root object. */
inline void
writeEnvelope(prof::JsonWriter& json, int argc, char** argv)
{
    std::string_view tool = argc > 0 ? argv[0] : "";
    tool.remove_prefix(tool.rfind('/') + 1);
    json.field("schema", "htmsim-report-v1")
        .field("tool", tool)
        .key("provenance")
        .beginObject()
        .field("git", HTMSIM_BUILD_GIT)
        .field("compiler", HTMSIM_BUILD_COMPILER)
        .field("build_type", HTMSIM_BUILD_TYPE)
        .field("flags", HTMSIM_BUILD_FLAGS)
        .field("lto", HTMSIM_BUILD_LTO)
        .field("host_cores", std::thread::hardware_concurrency())
        .field("scale", workloadScale())
        .key("argv")
        .beginArray()
        .value(tool);
    for (int i = 1; i < argc; ++i)
        json.value(argv[i]);
    json.end().end();
}

/**
 * Write the report of the tool run as @p argv to @p path: the
 * envelope, then the members @p payload writes into the root object.
 * Returns false, after printing why, if the file cannot be written.
 */
template <typename Payload>
bool
writeReport(const std::string& path, int argc, char** argv,
            Payload&& payload)
{
    return writeJsonFile(path, [&](prof::JsonWriter& json) {
        json.beginObject();
        writeEnvelope(json, argc, argv);
        payload(json);
        json.end();
    });
}

} // namespace htmsim::bench

#endif // HTMSIM_BENCH_REPORT_HH
