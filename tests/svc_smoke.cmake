# End-to-end scan-service smoke test (DESIGN.md §18), run as a ctest entry:
#   1. uninterrupted service: 3 submitted jobs run to drain -> baseline
#      reports, events.log, metric files
#   2. the same script with SPFAIL_SVC_TEST_KILL killing the process
#      mid-job (after a job checkpoint, before the service state save —
#      the torn-tick race) -> exit 42
#   3. restart with identical flags -> drains
#   4. steps 2 and 3 again in a fresh state dir, killed after a tick's event
#      and metrics lines were appended but before its service state save —
#      the logs are then AHEAD of svc_state and the restart cuts them back
# Every report, the event log, and both metric files from each killed+
# restarted service must be byte-identical to the uninterrupted baseline.
#
# Expects: -DSPFAIL_SVC=<path to spfail_svc> -DWORK_DIR=<scratch dir>
if(NOT SPFAIL_SVC OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSPFAIL_SVC=... -DWORK_DIR=... -P svc_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Three jobs: two contending for one explicit /24 (so the admission log has
# deferrals in it), one scheduled later via `at`.
file(WRITE "${WORK_DIR}/control.txt" "\
submit alpha scale 0.004 nets 7
submit beta scale 0.004 seed 5 nets 7
at 2 submit gamma scale 0.004 seed 9 scenario forwarding
drain
")

set(FLAGS --control control.txt --bucket-capacity 1 --max-active-jobs 2
    --metrics metrics.jsonl)

# 1. Uninterrupted baseline into its own state dir.
execute_process(
  COMMAND "${SPFAIL_SVC}" --dir base ${FLAGS}
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_QUIET ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "uninterrupted service failed (exit ${rc})")
endif()
file(RENAME "${WORK_DIR}/metrics.jsonl" "${WORK_DIR}/metrics_base.jsonl")
file(RENAME "${WORK_DIR}/metrics.jsonl.prom" "${WORK_DIR}/metrics_base.prom")

# 2. Same script, killed mid-job on tick 3 right after a job checkpoint —
# the job's checkpoint is then AHEAD of the last service state save.
set(ENV{SPFAIL_SVC_TEST_KILL} "3:ckpt")
execute_process(
  COMMAND "${SPFAIL_SVC}" --dir killed ${FLAGS}
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_QUIET ERROR_QUIET
  RESULT_VARIABLE rc)
unset(ENV{SPFAIL_SVC_TEST_KILL})
if(NOT rc EQUAL 42)
  message(FATAL_ERROR "test kill did not fire (exit ${rc}, expected 42)")
endif()
if(NOT EXISTS "${WORK_DIR}/killed/svc_state")
  message(FATAL_ERROR "killed service left no state file")
endif()

# 3. Restart with identical flags; it must resume and drain.
execute_process(
  COMMAND "${SPFAIL_SVC}" --dir killed ${FLAGS}
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_QUIET ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "restarted service failed (exit ${rc})")
endif()

# Byte-compare every deliverable against the uninterrupted baseline.
foreach(pair
    "base/alpha.report;killed/alpha.report"
    "base/beta.report;killed/beta.report"
    "base/gamma.report;killed/gamma.report"
    "base/events.log;killed/events.log"
    "metrics_base.jsonl;metrics.jsonl"
    "metrics_base.prom;metrics.jsonl.prom")
  list(GET pair 0 lhs)
  list(GET pair 1 rhs)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORK_DIR}/${lhs}" "${WORK_DIR}/${rhs}"
    RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${lhs} and ${rhs} differ: the restarted service is not byte-identical")
  endif()
endforeach()

# 4. Killed on tick 5 right after the log appends, then restarted, into a
# fresh state dir and metric files.
file(REMOVE "${WORK_DIR}/metrics.jsonl" "${WORK_DIR}/metrics.jsonl.prom")
set(ENV{SPFAIL_SVC_TEST_KILL} "5:logs")
execute_process(
  COMMAND "${SPFAIL_SVC}" --dir logs ${FLAGS}
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_QUIET ERROR_QUIET
  RESULT_VARIABLE rc)
unset(ENV{SPFAIL_SVC_TEST_KILL})
if(NOT rc EQUAL 42)
  message(FATAL_ERROR "logs test kill did not fire (exit ${rc}, expected 42)")
endif()
execute_process(
  COMMAND "${SPFAIL_SVC}" --dir logs ${FLAGS}
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_QUIET ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "service restarted after the logs kill failed (exit ${rc})")
endif()

foreach(pair
    "base/alpha.report;logs/alpha.report"
    "base/beta.report;logs/beta.report"
    "base/gamma.report;logs/gamma.report"
    "base/events.log;logs/events.log"
    "metrics_base.jsonl;metrics.jsonl"
    "metrics_base.prom;metrics.jsonl.prom")
  list(GET pair 0 lhs)
  list(GET pair 1 rhs)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORK_DIR}/${lhs}" "${WORK_DIR}/${rhs}"
    RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${lhs} and ${rhs} differ: the service restarted after the logs kill is not byte-identical")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "svc smoke test passed (kill + restart byte-identical)")
