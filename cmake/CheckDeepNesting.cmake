# Deeply nested input is a compile error, never a crash: 10 000 nested
# parentheses and 50 000 nested blocks must exit 1 with the parser's
# depth-limit diagnostic (a stack overflow used to end kcc with SIGSEGV,
# whose shell status 139 is also kcc's "undefined" exit code), with and
# without the dynamic search. Nesting within the limit still runs.
# Run via ctest (test name: kcc_deep_nesting).
if(NOT DEFINED KCC OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DKCC=<kcc> -DWORKDIR=<dir> -P CheckDeepNesting.cmake")
endif()

file(MAKE_DIRECTORY ${WORKDIR})

# write_nested(<file> parens|blocks <depth>): a main() returning 0
# through <depth> nested parentheses, or after <depth> nested blocks.
function(write_nested FILE KIND DEPTH)
  if(KIND STREQUAL "parens")
    string(REPEAT "(" ${DEPTH} OPENS)
    string(REPEAT ")" ${DEPTH} CLOSES)
    set(BODY "return ${OPENS}0${CLOSES};")
  else()
    string(REPEAT "{" ${DEPTH} OPENS)
    string(REPEAT "}" ${DEPTH} CLOSES)
    set(BODY "${OPENS}${CLOSES} return 0;")
  endif()
  file(WRITE ${WORKDIR}/${FILE} "int main(void) { ${BODY} }\n")
endfunction()

write_nested(deep_parens.c parens 10000)
write_nested(deep_blocks.c blocks 50000)

foreach(INPUT deep_parens.c deep_blocks.c)
  foreach(MODE "--static-analyze=on" "--static-analyze=only")
    execute_process(
      COMMAND ${KCC} ${MODE} ${WORKDIR}/${INPUT}
      RESULT_VARIABLE RC
      OUTPUT_VARIABLE OUT
      ERROR_VARIABLE ERR)
    if(NOT RC EQUAL 1)
      message(FATAL_ERROR "kcc ${MODE} ${INPUT}: expected exit 1 (compile error), got ${RC}")
    endif()
    if(NOT ERR MATCHES "depth limit")
      message(FATAL_ERROR "kcc ${MODE} ${INPUT}: missing depth-limit diagnostic, got: ${ERR}")
    endif()
  endforeach()
endforeach()

# Within the limit: 200 nested parentheses (C11 5.2.4.1 asks for 63)
# and 1000 nested blocks (it asks for 127) compile and run.
write_nested(nested_parens.c parens 200)
write_nested(nested_blocks.c blocks 1000)
foreach(INPUT nested_parens.c nested_blocks.c)
  execute_process(
    COMMAND ${KCC} ${WORKDIR}/${INPUT}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "kcc ${INPUT}: expected exit 0, got ${RC}: ${ERR}")
  endif()
endforeach()

message(STATUS "kcc rejects over-deep nesting as a compile error")
