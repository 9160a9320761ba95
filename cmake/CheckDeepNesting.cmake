# Deeply nested input is a compile error, never a crash or a hang:
# 10 000 nested parentheses and 50 000 nested blocks must exit 1 with
# the parser's depth-limit diagnostic (a stack overflow used to end kcc
# with SIGSEGV, whose shell status 139 is also kcc's "undefined" exit
# code), with and without the dynamic search. Nesting within the limit still runs. A
# declarator with 100 000 '*' must exit 0 or 1, never with a signal or a
# sanitizer report (sema's type walk used to recurse once per pointer
# level and overflow the stack under AddressSanitizer).
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

# Macro expansion nests too: a 4000-long "#define A0 A1" chain and 4000
# nested calls of an identity macro must stop at the preprocessor's
# depth limit, exit 1 with its diagnostic, and do so quickly (expansion
# used to take time quadratic in the depth: 2.5 s and 5.4 s here). A
# 200-deep chain and 200 nested calls still compile and run.
# write_macros(<file> chain|calls <depth>): a main() returning 0 through
# <depth> chained object-like macros or nested function-like calls.
function(write_macros FILE KIND DEPTH)
  set(TEXT "")
  if(KIND STREQUAL "chain")
    math(EXPR LAST "${DEPTH} - 1")
    foreach(I RANGE 1 ${LAST})
      math(EXPR PREV "${I} - 1")
      string(APPEND TEXT "#define A${PREV} A${I}\n")
    endforeach()
    string(APPEND TEXT "#define A${LAST} 0\nint main(void) { return A0; }\n")
  else()
    string(REPEAT "F(" ${DEPTH} OPENS)
    string(REPEAT ")" ${DEPTH} CLOSES)
    set(TEXT "#define F(x) x\nint main(void) { return ${OPENS}0${CLOSES}; }\n")
  endif()
  file(WRITE ${WORKDIR}/${FILE} "${TEXT}")
endfunction()

write_macros(deep_macro_chain.c chain 4000)
write_macros(deep_macro_calls.c calls 4000)
foreach(INPUT deep_macro_chain.c deep_macro_calls.c)
  string(TIMESTAMP START "%s%f")
  execute_process(
    COMMAND ${KCC} ${WORKDIR}/${INPUT}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  string(TIMESTAMP END "%s%f")
  math(EXPR MILLIS "(${END} - ${START}) / 1000")
  if(NOT RC EQUAL 1)
    message(FATAL_ERROR "kcc ${INPUT}: expected exit 1 (compile error), got ${RC}")
  endif()
  if(NOT ERR MATCHES "depth limit")
    message(FATAL_ERROR "kcc ${INPUT}: missing depth-limit diagnostic, got: ${ERR}")
  endif()
  if(MILLIS GREATER 1000)
    message(FATAL_ERROR "kcc ${INPUT}: took ${MILLIS} ms, bound 1000 ms")
  endif()
endforeach()

write_macros(macro_chain.c chain 200)
write_macros(macro_calls.c calls 200)
foreach(INPUT macro_chain.c macro_calls.c)
  execute_process(
    COMMAND ${KCC} ${WORKDIR}/${INPUT}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "kcc ${INPUT}: expected exit 0, got ${RC}: ${ERR}")
  endif()
endforeach()

# 100 000 pointer levels in a typedef, a global, a return type, a
# parameter and a local. The parser reads '*' in a loop, so this is no
# nesting error; every later pass must walk the chain without recursing.
# An AddressSanitizer stack overflow also exits 1, so its report fails
# the check too.
string(REPEAT "*" 100000 STARS)
file(WRITE ${WORKDIR}/deep_pointers.c
  "typedef int ${STARS}T;\nint ${STARS}g;\n"
  "int ${STARS}f(int ${STARS}q) { return q; }\n"
  "int main(void) { int ${STARS}p = 0; T t = f(p); return t != 0; }\n")
foreach(MODE "--static-analyze=on" "--static-analyze=only")
  execute_process(
    COMMAND ${KCC} ${MODE} ${WORKDIR}/deep_pointers.c
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT (RC STREQUAL "0" OR RC STREQUAL "1") OR ERR MATCHES "Sanitizer")
    message(FATAL_ERROR "kcc ${MODE} deep_pointers.c: expected exit 0 or 1 and no sanitizer report, got ${RC}: ${ERR}")
  endif()
endforeach()

message(STATUS "kcc rejects over-deep nesting and macro expansion as a compile error")
