# Malformed-flag check of the bench programs, run as a ctest entry: each
# binary is given one numeric flag with a malformed value and must exit 2,
# as spfail_scan does, instead of running with the value coerced to 0.
#
# Expects: -DBENCH_MEMORY=... -DBENCH_SCENARIOS=... -DBENCH_SVC=...
#          -DBENCH_CONTENTION=... (paths to the binaries)
#          -DWORK_DIR=<scratch dir> (where a binary that ran would write)
if(NOT BENCH_MEMORY OR NOT BENCH_SCENARIOS OR NOT BENCH_SVC
   OR NOT BENCH_CONTENTION OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBENCH_MEMORY=... -DBENCH_SCENARIOS=... -DBENCH_SVC=... -DBENCH_CONTENTION=... -DWORK_DIR=... -P bench_flags.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(run "${BENCH_MEMORY};--scale;abc"
            "${BENCH_SCENARIOS};--seed;x1"
            "${BENCH_SVC};--jobs;2x"
            "${BENCH_CONTENTION};--keys;abc")
  execute_process(
    COMMAND ${run}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_QUIET
    ERROR_VARIABLE error
    ERROR_STRIP_TRAILING_WHITESPACE
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    string(REPLACE ";" " " command "${run}")
    message(FATAL_ERROR "`${command}` exited ${rc}, expected 2 for a malformed value")
  endif()
  message(STATUS "rejected: ${error}")
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
