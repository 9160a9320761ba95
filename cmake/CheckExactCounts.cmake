# Gates the benchmark's exact counts: for each workload, a short traced
# perfbench run at seed 1 must reproduce every count its context line
# marks exact (tokens, static findings, steps and choice points per
# program, runs committed, dedup hits) as committed in
# tests/perfbench_exact_seed1.json. The counts repeat run to run, so any
# difference is a change in what the frontend, the machine or the
# search does. After an intended behaviour change, regenerate the file
# from the same command line and say why the counts moved.
# Run via ctest (test name: perfbench_exact_counts, label: perfbench).
if(NOT DEFINED PERFBENCH OR NOT DEFINED KCC OR NOT DEFINED DESKTOP_DIR
   OR NOT DEFINED EXPECTED OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DPERFBENCH=<perfbench> -DKCC=<kcc> -DDESKTOP_DIR=<dir> -DEXPECTED=<json> -DWORKDIR=<dir> -P CheckExactCounts.cmake")
endif()

file(READ ${EXPECTED} WANT_JSON)
set(FAILURES "")
foreach(WORKLOAD suite-sweep deep-search serve-repeat cli-cold)
  # Its own working directory: serve-repeat binds a Unix socket there.
  set(DIR ${WORKDIR}/${WORKLOAD})
  file(MAKE_DIRECTORY ${DIR})
  execute_process(
    COMMAND ${PERFBENCH} --workload ${WORKLOAD} --smoke --seed 1
      --seconds 1 --trace 1 --kcc ${KCC} --desktop-dir ${DESKTOP_DIR}
      --work-dir .
    WORKING_DIRECTORY ${DIR}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "perfbench ${WORKLOAD}: exit ${RC}: ${ERR}")
  endif()
  # The context line names the exact counts; the result object (the
  # line with "correct") carries their values.
  if(NOT OUT MATCHES "(^|\n)({\"context\"[^\n]*)")
    message(FATAL_ERROR "perfbench ${WORKLOAD}: no context line in:\n${OUT}")
  endif()
  set(CONTEXT "${CMAKE_MATCH_2}")
  if(NOT OUT MATCHES "(^|\n)({\"correct\"[^\n]*)")
    message(FATAL_ERROR "perfbench ${WORKLOAD}: no result object in:\n${OUT}")
  endif()
  set(RESULT "${CMAKE_MATCH_2}")

  string(JSON NAMES_LEN LENGTH "${CONTEXT}" context exact)
  string(JSON WANT_LEN LENGTH "${WANT_JSON}" ${WORKLOAD})
  if(NOT NAMES_LEN EQUAL WANT_LEN)
    list(APPEND FAILURES "${WORKLOAD}: ${NAMES_LEN} exact counts, expected file has ${WANT_LEN}")
  endif()
  math(EXPR LAST "${NAMES_LEN} - 1")
  foreach(I RANGE ${LAST})
    string(JSON NAME GET "${CONTEXT}" context exact ${I})
    string(JSON GOT GET "${RESULT}" metrics ${NAME} value)
    string(JSON WANT ERROR_VARIABLE MISSING GET "${WANT_JSON}" ${WORKLOAD} ${NAME})
    if(MISSING)
      list(APPEND FAILURES "${WORKLOAD} ${NAME}: ${GOT}, not in the expected file")
    elseif(NOT GOT STREQUAL WANT)
      list(APPEND FAILURES "${WORKLOAD} ${NAME}: ${GOT}, expected ${WANT}")
    endif()
  endforeach()
endforeach()

if(FAILURES)
  string(REPLACE ";" "\n  " FAILURES "${FAILURES}")
  message(FATAL_ERROR "exact counts differ from ${EXPECTED}:\n  ${FAILURES}")
endif()
message(STATUS "exact counts match ${EXPECTED} on all four workloads")
