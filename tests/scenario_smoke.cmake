# End-to-end --scenario smoke test, run as a ctest entry (DESIGN.md §17):
#   1. each built-in scenario, initial-only, at --threads 1 vs --threads 8
#      — stdout must be byte-identical
#   2. --scenario baseline vs no flag at all — byte-identical (the control
#      stages nothing and prints nothing extra)
#   3. a composed full-study run (forwarding,misconfig) halted at a mid-study
#      checkpoint then resumed — byte-identical to the uninterrupted run,
#      scenario tables included
#
# Expects: -DSPFAIL_SCAN=<path to spfail_scan> -DWORK_DIR=<scratch dir>
if(NOT SPFAIL_SCAN OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSPFAIL_SCAN=... -DWORK_DIR=... -P scenario_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_scan out_file)
  execute_process(
    COMMAND "${SPFAIL_SCAN}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_FILE "${out_file}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "spfail_scan ${ARGN} failed (exit ${rc})")
  endif()
endfunction()

function(expect_same lhs rhs what)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORK_DIR}/${lhs}" "${WORK_DIR}/${rhs}"
    RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${lhs} and ${rhs} differ: ${what}")
  endif()
endfunction()

set(FLAGS --scale 0.01 --initial-only)

# 1. Per-scenario thread determinism.
foreach(name baseline forwarding alignment misconfig)
  run_scan("${name}_t1.out" ${FLAGS} --scenario ${name} --threads 1)
  run_scan("${name}_t8.out" ${FLAGS} --scenario ${name} --threads 8)
  expect_same("${name}_t1.out" "${name}_t8.out"
              "scenario '${name}' output is thread-dependent")
endforeach()

# 2. The baseline control is invisible.
run_scan(plain.out ${FLAGS})
expect_same(plain.out baseline_t1.out
            "--scenario baseline changed the scenario-less output")

# 3. Composed specs across a halt/resume process restart (full study).
set(STUDY_FLAGS --scale 0.01 --scenario forwarding,misconfig)
run_scan(study_full.out ${STUDY_FLAGS})
run_scan(study_halted.out ${STUDY_FLAGS} --checkpoint snap.bin
         --halt-after-rounds 11)
if(NOT EXISTS "${WORK_DIR}/snap.bin")
  message(FATAL_ERROR "halting scenario scan wrote no checkpoint")
endif()
run_scan(study_resumed.out ${STUDY_FLAGS} --resume snap.bin --threads 4)
expect_same(study_full.out study_resumed.out
            "scenario study output changed across halt/resume")

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "scenario smoke test passed (byte-identical across threads, baseline, and resume)")
