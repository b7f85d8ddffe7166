# README flag-table drift check, run as a ctest entry: the markdown table
# `spfail_scan --flag-table` generates from its flag registry, and the one
# `spfail_svc --flag-table` generates from its own, must each appear
# verbatim in README.md. Adding, removing, or re-documenting a flag without
# regenerating the README fails here.
#
# Expects: -DSPFAIL_SCAN=<path to spfail_scan> -DSPFAIL_SVC=<path to
#          spfail_svc> -DREADME=<path to README.md>
if(NOT SPFAIL_SCAN OR NOT SPFAIL_SVC OR NOT README)
  message(FATAL_ERROR "usage: cmake -DSPFAIL_SCAN=... -DSPFAIL_SVC=... -DREADME=... -P readme_flag_tables.cmake")
endif()

file(READ "${README}" readme)

foreach(binary "${SPFAIL_SCAN}" "${SPFAIL_SVC}")
  execute_process(
    COMMAND "${binary}" --flag-table
    OUTPUT_VARIABLE table
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${binary} --flag-table failed (exit ${rc})")
  endif()
  string(FIND "${readme}" "${table}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "README.md does not contain the table `${binary} --flag-table` prints; regenerate it:\n${table}")
  endif()
endforeach()

message(STATUS "README flag tables match both flag registries")
