# Drives kcc's machine-readable mode: --json must emit one
# cundef-kcc-v1 document on stdout (docs/JSON_OUTPUT.md documents the
# schema) with nothing else around it, embed program output instead of
# passing it through, suppress the human report on stderr, and keep the
# exit-code contract (139 undefined / 1 compile failure / program exit
# code otherwise), and match the committed byte-layout goldens. Run via
# ctest (test name: kcc_json_cli).
if(NOT DEFINED KCC OR NOT DEFINED WORKDIR OR NOT DEFINED GOLDEN_DIR)
  message(FATAL_ERROR "usage: cmake -DKCC=<kcc> -DWORKDIR=<dir> -DGOLDEN_DIR=<dir> -P CheckJsonCli.cmake")
endif()

# Byte layout: a document with its run-to-run volatile fields masked
# must equal the golden under GOLDEN_DIR byte for byte. The key list is
# cmake/check_serve_cli.sh's MASK; [^,}\n] keeps the match on one line
# as sed does. Regenerate a golden after an intended change with
#   kcc ... | sed -E "$MASK" > tests/golden/<name>
# (json_ub.c and json_ok.c below, run from their directory).
function(expect_golden NAME TEXT)
  set(VOLATILE "wall_ms|wall_micros|frontend_micros|search_micros|steals|peak_frontier|runs_executed|speculative_waste|commit_lag_peak|snapshot_captures|snapshot_takes|snapshot_hits|snapshot_evictions|workers|lookups|hits|misses|inflight_joins|evictions|abandoned|cache_hit|result_cache_hit|runs_committed")
  string(REGEX REPLACE "\"(${VOLATILE})\": [^,}\n]+" "\"\\1\": X" MASKED "${TEXT}")
  file(READ ${GOLDEN_DIR}/${NAME} WANT)
  if(NOT MASKED STREQUAL WANT)
    file(WRITE ${WORKDIR}/${NAME} "${MASKED}")
    message(FATAL_ERROR "kcc --json: layout differs from ${GOLDEN_DIR}/${NAME}; the masked output is in ${WORKDIR}/${NAME}")
  endif()
endfunction()

file(MAKE_DIRECTORY ${WORKDIR})
set(UB_C ${WORKDIR}/json_ub.c)
file(WRITE ${UB_C} "int d = 5;\nint setDenom(int x) { return d = x; }\nint main(void) { return (10 / d) + setDenom(0); }\n")
set(OK_C ${WORKDIR}/json_ok.c)
file(WRITE ${OK_C} "#include <stdio.h>\nint main(void) { printf(\"hi-json\\n\"); return 5; }\n")
set(BAD_C ${WORKDIR}/json_bad.c)
file(WRITE ${BAD_C} "int main(void) { return 0 }\n")

# Undefined program: exit 139, verdict, findings with the catalog code,
# the witness array, and the scheduler counters.
execute_process(
  COMMAND ${KCC} --json --search=64 ${UB_C}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 139)
  message(FATAL_ERROR "kcc --json (ub): expected exit 139, got ${RC}")
endif()
if(NOT OUT MATCHES "\"schema\": \"cundef-kcc-v1\"")
  message(FATAL_ERROR "kcc --json: missing schema marker: ${OUT}")
endif()
if(NOT OUT MATCHES "\"exit_code\": 139")
  message(FATAL_ERROR "kcc --json: exit_code field disagrees with contract: ${OUT}")
endif()
if(NOT OUT MATCHES "\"verdict\": \"undefined\"")
  message(FATAL_ERROR "kcc --json: missing undefined verdict: ${OUT}")
endif()
if(NOT OUT MATCHES "\"code\": \"00001\"")
  message(FATAL_ERROR "kcc --json: missing division-by-zero finding: ${OUT}")
endif()
if(NOT OUT MATCHES "\"witness\": \\[1\\]")
  message(FATAL_ERROR "kcc --json: missing witness bytes: ${OUT}")
endif()
if(NOT OUT MATCHES "\"orders_explored\":" OR NOT OUT MATCHES "\"wall_micros\":")
  message(FATAL_ERROR "kcc --json: missing search/timing fields: ${OUT}")
endif()
# The cundef-kcc-v1 compile block (backward-compatible addition): the
# per-job cache flag and the frontend/search cost split, plus the
# engine-wide translation_cache object.
if(NOT OUT MATCHES "\"compile\": \\{" OR NOT OUT MATCHES "\"cache_hit\":"
   OR NOT OUT MATCHES "\"frontend_micros\":"
   OR NOT OUT MATCHES "\"search_micros\":")
  message(FATAL_ERROR "kcc --json: missing compile block fields: ${OUT}")
endif()
if(NOT OUT MATCHES "\"translation_cache\": \\{" OR NOT OUT MATCHES "\"inflight_joins\":")
  message(FATAL_ERROR "kcc --json: missing translation_cache block: ${OUT}")
endif()
# The result-cache additions (same backward-compatible lineage): the
# per-job hit flag in the compile block and the engine-wide
# result_cache counters object.
if(NOT OUT MATCHES "\"result_cache_hit\":" OR NOT OUT MATCHES "\"result_cache\": \\{"
   OR NOT OUT MATCHES "\"abandoned\":")
  message(FATAL_ERROR "kcc --json: missing result_cache fields: ${OUT}")
endif()
if(ERR MATCHES "ERROR! KCC")
  message(FATAL_ERROR "kcc --json: human report leaked to stderr: ${ERR}")
endif()
# The document must be the entire stdout (machine-readable boundary).
if(NOT OUT MATCHES "^\\{" OR NOT OUT MATCHES "\\}\n$")
  message(FATAL_ERROR "kcc --json: stdout is not exactly one JSON document")
endif()

# Clean program: its exit code passes through the contract; output is
# embedded, not printed.
execute_process(
  COMMAND ${KCC} --json ${OK_C}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 5)
  message(FATAL_ERROR "kcc --json (ok): expected exit 5, got ${RC}")
endif()
if(NOT OUT MATCHES "\"verdict\": \"clean\"")
  message(FATAL_ERROR "kcc --json (ok): missing clean verdict: ${OUT}")
endif()
if(NOT OUT MATCHES "\"output\": \"hi-json\\\\n\"")
  message(FATAL_ERROR "kcc --json (ok): program output not embedded: ${OUT}")
endif()
if(OUT MATCHES "^hi-json")
  message(FATAL_ERROR "kcc --json (ok): program output leaked around the document")
endif()

# Compile failure: exit 1, verdict compile-error, diagnostics embedded.
execute_process(
  COMMAND ${KCC} --json ${BAD_C} ${OK_C}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 1)
  message(FATAL_ERROR "kcc --json (bad, ok): expected exit 1, got ${RC}")
endif()
if(NOT OUT MATCHES "\"verdict\": \"compile-error\"")
  message(FATAL_ERROR "kcc --json (bad): missing compile-error verdict: ${OUT}")
endif()
if(NOT OUT MATCHES "\"compile_errors\": \"[^\"]")
  message(FATAL_ERROR "kcc --json (bad): compile diagnostics not embedded: ${OUT}")
endif()

# Batch: one document, both programs, pool counters.
execute_process(
  COMMAND ${KCC} --json --search=64 --search-jobs=2 ${UB_C} ${OK_C}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 139)
  message(FATAL_ERROR "kcc --json (batch): expected exit 139, got ${RC}")
endif()
if(NOT OUT MATCHES "json_ub.c" OR NOT OUT MATCHES "json_ok.c")
  message(FATAL_ERROR "kcc --json (batch): missing per-program entries: ${OUT}")
endif()
if(NOT OUT MATCHES "\"pool\": \\{" OR NOT OUT MATCHES "\"programs\": 2")
  message(FATAL_ERROR "kcc --json (batch): missing pool stats: ${OUT}")
endif()

# The same pair in one batch, by relative name so the document does not
# depend on the build directory: the whole layout is pinned.
execute_process(
  COMMAND ${KCC} --json --search=64 json_ub.c json_ok.c
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 139)
  message(FATAL_ERROR "kcc --json (golden pair): expected exit 139, got ${RC}")
endif()
expect_golden(kcc_json_pair.json "${OUT}")

execute_process(
  COMMAND ${KCC} --json --catalog-coverage
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "kcc --json --catalog-coverage (golden): expected exit 0, got ${RC}: ${ERR}")
endif()
expect_golden(kcc_json_coverage.json "${OUT}")

# Coverage mode: --json --catalog-coverage emits the coverage document
# of the same schema (backward-compatible: a new top-level block, the
# schema marker and exit_code keys unchanged), the four verdict counts
# must partition all 221 catalog rows, and per-entry verdicts are
# present.
execute_process(
  COMMAND ${KCC} --json --catalog-coverage=quick
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "kcc --json --catalog-coverage: expected exit 0, got ${RC}: ${ERR}")
endif()
if(NOT OUT MATCHES "\"schema\": \"cundef-kcc-v1\"")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing schema marker: ${OUT}")
endif()
if(NOT OUT MATCHES "\"coverage\": \\{" OR NOT OUT MATCHES "\"mode\": \"quick\"")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing coverage block: ${OUT}")
endif()
if(NOT OUT MATCHES "\"total\": 221")
  message(FATAL_ERROR "kcc --json --catalog-coverage: total is not 221: ${OUT}")
endif()
if(NOT OUT MATCHES "\"covered\": ([0-9]+)")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing covered count")
endif()
set(COV_COVERED ${CMAKE_MATCH_1})
if(NOT OUT MATCHES "\"wrong_code\": ([0-9]+)")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing wrong_code count")
endif()
set(COV_WRONG ${CMAKE_MATCH_1})
if(NOT OUT MATCHES "\"missed\": ([0-9]+)")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing missed count")
endif()
set(COV_MISSED ${CMAKE_MATCH_1})
if(NOT OUT MATCHES "\"inexpressible\": ([0-9]+)")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing inexpressible count")
endif()
set(COV_INEXPR ${CMAKE_MATCH_1})
math(EXPR COV_SUM "${COV_COVERED} + ${COV_WRONG} + ${COV_MISSED} + ${COV_INEXPR}")
if(NOT COV_SUM EQUAL 221)
  message(FATAL_ERROR "kcc --json --catalog-coverage: counts ${COV_COVERED}+${COV_WRONG}+${COV_MISSED}+${COV_INEXPR}=${COV_SUM} != 221")
endif()
if(NOT OUT MATCHES "\"entries\": \\[" OR NOT OUT MATCHES "\"verdict\": \"covered\"")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing per-entry verdicts: ${OUT}")
endif()
if(NOT OUT MATCHES "\"exit_code\": 0")
  message(FATAL_ERROR "kcc --json --catalog-coverage: missing exit_code: ${OUT}")
endif()
if(NOT OUT MATCHES "^\\{" OR NOT OUT MATCHES "\\}\n$")
  message(FATAL_ERROR "kcc --json --catalog-coverage: stdout is not exactly one JSON document")
endif()

message(STATUS "kcc --json behaves as documented")
