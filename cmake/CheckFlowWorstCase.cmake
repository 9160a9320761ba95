# The flow-sensitive static layer has a bounded worst case. A function
# of N int locals followed by N one-line `if`s (the shape of
# tests/test_static_findings.cpp's generated suite) used to cost time
# and memory quadratic in N: at N = 2000, kcc --static-analyze=only
# took 3.8 s and 254 MiB. Past the layer's per-function bound
# (static/FlowChecker.h, MaxFlowCells) the function gets no flow
# findings, so N = 1000 and N = 2000 must each finish in under 1 s, with
# the same stdout and exit code on a second run. Where MEMORY_LIMIT_KB
# is given (not in sanitizer trees, whose shadow memory a limit breaks),
# each run is also held to that much virtual memory.
# Run via ctest (test name: kcc_flow_worst_case).
if(NOT DEFINED KCC OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DKCC=<kcc> -DWORKDIR=<dir> [-DMEMORY_LIMIT_KB=<kb>] -P CheckFlowWorstCase.cmake")
endif()

file(MAKE_DIRECTORY ${WORKDIR})

# write_locals(<file> <n>): main() with <n> int locals (even ones
# initialized to i % 3, odd ones not) and <n> ifs, each reading one
# local and dividing by it.
function(write_locals FILE N)
  set(TEXT "int main(void) {\n")
  math(EXPR LAST "${N} - 1")
  foreach(I RANGE 0 ${LAST})
    math(EXPR ODD "${I} % 2")
    math(EXPR INIT "${I} % 3")
    if(ODD)
      string(APPEND TEXT "  int x${I};\n")
    else()
      string(APPEND TEXT "  int x${I} = ${INIT};\n")
    endif()
  endforeach()
  foreach(I RANGE 0 ${LAST})
    math(EXPR NEXT "(${I} + 1) % ${N}")
    string(APPEND TEXT "  if (x${I} < 5) x${NEXT} = 10 / x${I};\n")
  endforeach()
  string(APPEND TEXT "  return 0;\n}\n")
  file(WRITE ${WORKDIR}/${FILE} "${TEXT}")
endfunction()

set(RUN ${KCC})
if(DEFINED MEMORY_LIMIT_KB)
  # Only where a trivial program runs under the limit: a machine whose
  # thread stacks alone exceed it cannot check the bound this way.
  set(LIMITED sh -c "ulimit -v ${MEMORY_LIMIT_KB} && exec \"$0\" \"$@\"" ${KCC})
  file(WRITE ${WORKDIR}/trivial.c "int main(void) { return 0; }\n")
  execute_process(COMMAND ${LIMITED} --static-analyze=only ${WORKDIR}/trivial.c
    RESULT_VARIABLE RC OUTPUT_QUIET ERROR_QUIET)
  if(RC STREQUAL "0")
    set(RUN ${LIMITED})
  else()
    message(STATUS "kcc does not start under ulimit -v ${MEMORY_LIMIT_KB}; checking time only")
  endif()
endif()

foreach(N 1000 2000)
  write_locals(locals_${N}.c ${N})
  set(FIRST_OUT "")
  set(FIRST_RC "")
  foreach(RUN_INDEX 1 2)
    string(TIMESTAMP START "%s%f")
    execute_process(
      COMMAND ${RUN} --static-analyze=only ${WORKDIR}/locals_${N}.c
      RESULT_VARIABLE RC
      OUTPUT_VARIABLE OUT
      ERROR_VARIABLE ERR)
    string(TIMESTAMP END "%s%f")
    math(EXPR MILLIS "(${END} - ${START}) / 1000")
    if(NOT (RC STREQUAL "0" OR RC STREQUAL "139"))
      message(FATAL_ERROR "kcc locals_${N}.c: expected exit 0 or 139, got ${RC}: ${ERR}")
    endif()
    if(MILLIS GREATER 1000)
      message(FATAL_ERROR "kcc locals_${N}.c: took ${MILLIS} ms, bound 1000 ms")
    endif()
    if(RUN_INDEX EQUAL 1)
      set(FIRST_OUT "${OUT}")
      set(FIRST_RC "${RC}")
    elseif(NOT OUT STREQUAL FIRST_OUT OR NOT RC STREQUAL FIRST_RC)
      message(FATAL_ERROR "kcc locals_${N}.c: a second run differs (exit ${FIRST_RC} then ${RC})")
    endif()
  endforeach()
endforeach()

message(STATUS "the flow layer's worst case stays bounded")
