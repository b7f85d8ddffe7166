# Reference check of the reproduction program, run as a ctest entry:
# `spfail_repro --scale 0.05` must print results/scale0.05.txt byte for
# byte. Every paper table, figure and ablation is in that file, so a change
# that moves any reported number fails here; regenerate the file from the
# program when the change is intended. On a mismatch the first differing line
# of both outputs is printed and the actual output is kept in WORK_DIR.
#
# Expects: -DSPFAIL_REPRO=<path to spfail_repro>
#          -DREFERENCE=<path to results/scale0.05.txt> -DWORK_DIR=<scratch dir>
if(NOT SPFAIL_REPRO OR NOT REFERENCE OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSPFAIL_REPRO=... -DREFERENCE=... -DWORK_DIR=... -P repro_reference.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${SPFAIL_REPRO}" --scale 0.05
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_FILE actual.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spfail_repro --scale 0.05 failed (exit ${rc})")
endif()

file(READ "${REFERENCE}" expected)
file(READ "${WORK_DIR}/actual.txt" actual)
if(expected STREQUAL actual)
  file(REMOVE_RECURSE "${WORK_DIR}")
  message(STATUS "spfail_repro --scale 0.05 matches ${REFERENCE}")
  return()
endif()

# Longest common prefix by bisection, then the line it ends in.
string(LENGTH "${expected}" hi)
string(LENGTH "${actual}" actual_length)
if(actual_length LESS hi)
  set(hi ${actual_length})
endif()
set(lo 0)
while(lo LESS hi)
  math(EXPR mid "(${lo} + ${hi} + 1) / 2")
  string(SUBSTRING "${expected}" 0 ${mid} lhs)
  string(SUBSTRING "${actual}" 0 ${mid} rhs)
  if(lhs STREQUAL rhs)
    set(lo ${mid})
  else()
    math(EXPR hi "${mid} - 1")
  endif()
endwhile()
string(SUBSTRING "${expected}" 0 ${lo} prefix)
string(REGEX REPLACE "[^\n]" "" newlines "${prefix}")
string(LENGTH "${newlines}" line)
math(EXPR line "${line} + 1")
string(FIND "${prefix}" "\n" start REVERSE)
math(EXPR start "${start} + 1")
foreach(side expected actual)
  string(SUBSTRING "${${side}}" ${start} -1 rest)
  string(FIND "${rest}" "\n" end)
  string(SUBSTRING "${rest}" 0 ${end} ${side}_line)
endforeach()
message(FATAL_ERROR
        "spfail_repro --scale 0.05 differs from ${REFERENCE} at line ${line}:\n"
        "  reference: ${expected_line}\n"
        "  actual:    ${actual_line}\n"
        "(full output kept in ${WORK_DIR}/actual.txt)")
