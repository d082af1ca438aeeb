# Writes build_info.hh, the provenance that bench/report.hh puts in
# every report's envelope. Run with cmake -P on every build (the
# htmsim_build_info target) so `git describe` is never stale; the file
# is rewritten only when its text changes, so an unchanged tree
# recompiles nothing.
#
# Inputs (-D): SOURCE_DIR, OUTPUT, COMPILER, BUILD_TYPE, FLAGS, LTO.

set(GIT "unavailable")
if(EXISTS "${SOURCE_DIR}/.git")
    execute_process(
        COMMAND git describe --always --dirty
        WORKING_DIRECTORY "${SOURCE_DIR}"
        OUTPUT_VARIABLE describe
        RESULT_VARIABLE status
        OUTPUT_STRIP_TRAILING_WHITESPACE
        ERROR_QUIET)
    if(status EQUAL 0 AND NOT describe STREQUAL "")
        set(GIT "${describe}")
    endif()
endif()

foreach(name GIT COMPILER BUILD_TYPE FLAGS)
    string(REPLACE "\\" "\\\\" ${name} "${${name}}")
    string(REPLACE "\"" "\\\"" ${name} "${${name}}")
endforeach()
if(LTO)
    set(LTO true)
else()
    set(LTO false)
endif()

set(text "// Generated by cmake/build_info.cmake; do not edit.
#define HTMSIM_BUILD_GIT \"${GIT}\"
#define HTMSIM_BUILD_COMPILER \"${COMPILER}\"
#define HTMSIM_BUILD_TYPE \"${BUILD_TYPE}\"
#define HTMSIM_BUILD_FLAGS \"${FLAGS}\"
#define HTMSIM_BUILD_LTO ${LTO}
")
set(old "")
if(EXISTS "${OUTPUT}")
    file(READ "${OUTPUT}" old)
endif()
if(NOT old STREQUAL text)
    file(WRITE "${OUTPUT}" "${text}")
endif()
