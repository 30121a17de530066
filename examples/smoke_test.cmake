# CTest smoke test for the sqo_cli observability surface. Invoked as:
#
#   cmake -DSQO_CLI=<binary> -DINPUT=<figure1.dl> -DWORK_DIR=<dir>
#         -P smoke_test.cmake
#
# Runs the CLI with --eval --profile --stats-json --trace on the Figure-1
# example, then validates both JSON artifacts with the CLI's built-in
# minimal JSON parser (--check-json) and greps for the expected keys.

set(STATS "${WORK_DIR}/smoke_stats.json")
set(TRACE "${WORK_DIR}/smoke_trace.json")

execute_process(
  COMMAND "${SQO_CLI}" --eval --profile
          "--stats-json=${STATS}" "--trace=${TRACE}" "${INPUT}"
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "sqo_cli failed (rc=${RC}):\n${STDOUT}\n${STDERR}")
endif()

# The eval report must show matching answers and both profile tables.
foreach(needle
    "match: yes"
    "per-rule profile, original program P:"
    "per-rule profile, rewritten program P':"
    "span tree:")
  string(FIND "${STDOUT}" "${needle}" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR "missing '${needle}' in sqo_cli output:\n${STDOUT}")
  endif()
endforeach()

# Both artifacts parse with the built-in minimal JSON parser.
foreach(artifact "${STATS}" "${TRACE}")
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "${artifact} was not written")
  endif()
  execute_process(
    COMMAND "${SQO_CLI}" "--check-json=${artifact}"
    ERROR_VARIABLE CHECK_ERR
    RESULT_VARIABLE CHECK_RC)
  if(NOT CHECK_RC EQUAL 0)
    message(FATAL_ERROR "invalid JSON in ${artifact}: ${CHECK_ERR}")
  endif()
endforeach()

# Spot-check the expected metric and span names.
file(READ "${STATS}" STATS_TEXT)
foreach(needle
    "eval/original/tuples_derived"
    "eval/rewritten/tuples_derived"
    "sqo/phase/adorn_ns"
    "cli/answers_match\":1")
  string(FIND "${STATS_TEXT}" "${needle}" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR "missing '${needle}' in ${STATS}:\n${STATS_TEXT}")
  endif()
endforeach()

file(READ "${TRACE}" TRACE_TEXT)
foreach(needle "traceEvents" "sqo.optimize" "sqo.adorn" "eval.iteration")
  string(FIND "${TRACE_TEXT}" "${needle}" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR "missing '${needle}' in ${TRACE}")
  endif()
endforeach()

# --list-passes prints the pipeline in order and exits cleanly.
execute_process(
  COMMAND "${SQO_CLI}" --list-passes
  OUTPUT_VARIABLE PASS_LIST
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "sqo_cli --list-passes failed (rc=${RC})")
endif()
string(STRIP "${PASS_LIST}" PASS_LIST)
string(REPLACE "\n" ";" PASS_LIST "${PASS_LIST}")
set(EXPECTED_PASSES
    validate normalize fd_rewrite local_rewrite adorn tree residues prune)
if(NOT PASS_LIST STREQUAL EXPECTED_PASSES)
  message(FATAL_ERROR
      "--list-passes mismatch: got '${PASS_LIST}', want '${EXPECTED_PASSES}'")
endif()

# --disable-pass=NAME ablates one pass.
execute_process(
  COMMAND "${SQO_CLI}" --passes --disable-pass=residues "${INPUT}"
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR
      "sqo_cli --disable-pass run failed (rc=${RC}):\n${STDOUT}\n${STDERR}")
endif()
string(REGEX MATCH "residues[ ]+disabled" DISABLED_LINE "${STDOUT}")
if(DISABLED_LINE STREQUAL "")
  message(FATAL_ERROR
      "pass table does not mark residues as disabled:\n${STDOUT}")
endif()

# --reprepare demonstrates that the session's second Prepare is a pure
# cache hit (one pipeline run).
set(REPREPARE_STATS "${WORK_DIR}/smoke_reprepare_stats.json")
execute_process(
  COMMAND "${SQO_CLI}" --reprepare "--stats-json=${REPREPARE_STATS}"
          "${INPUT}"
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR
      "sqo_cli --reprepare run failed (rc=${RC}):\n${STDOUT}\n${STDERR}")
endif()
file(READ "${REPREPARE_STATS}" REPREPARE_TEXT)
foreach(needle
    "engine/prepare_cache_hits\":1"
    "engine/prepare_cache_misses\":1"
    "engine/pipeline_runs\":1")
  string(FIND "${REPREPARE_TEXT}" "${needle}" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR
        "missing '${needle}' in ${REPREPARE_STATS}:\n${REPREPARE_TEXT}")
  endif()
endforeach()

# An ablation prepares a one-off program outside the session, so asking to
# re-prepare or maintain the session's program alongside it is a usage
# error.
set(SMOKE_DELTA "${WORK_DIR}/smoke_delta.txt")
file(WRITE "${SMOKE_DELTA}" "batch\n+a(9, 9).\n")
foreach(combo "--reprepare;--disable-pass=residues" "--reprepare;--tree"
        "--apply-delta=${SMOKE_DELTA};--adornments")
  execute_process(
    COMMAND "${SQO_CLI}" ${combo} "${INPUT}"
    OUTPUT_VARIABLE STDOUT
    ERROR_VARIABLE STDERR
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 2)
    message(FATAL_ERROR "${combo}: want exit 2, got ${RC}:\n${STDERR}")
  endif()
endforeach()

# An unknown pass name is rejected with a helpful error.
execute_process(
  COMMAND "${SQO_CLI}" --disable-pass=typo "${INPUT}"
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR
  RESULT_VARIABLE RC)
if(RC EQUAL 0)
  message(FATAL_ERROR "--disable-pass=typo unexpectedly succeeded")
endif()
string(FIND "${STDERR}" "INVALID_ARGUMENT" POS)
if(POS EQUAL -1)
  message(FATAL_ERROR "expected INVALID_ARGUMENT in stderr:\n${STDERR}")
endif()

# Ablation is in-process only: the server prepares every unit with the
# default options, so --disable-pass with --serve-batch is a usage error.
execute_process(
  COMMAND "${SQO_CLI}" --serve-batch --disable-pass=residues "${INPUT}"
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 2)
  message(FATAL_ERROR
      "--serve-batch --disable-pass: want exit 2, got ${RC}:\n${STDERR}")
endif()

# A unit outside the rewriting's theory (negation on an IDB predicate) has
# no rewriting to print: the CLI names the reason and exits 2, although a
# session serves such a unit as P.
set(UNSUPPORTED_INPUT "${WORK_DIR}/smoke_unsupported.dl")
file(WRITE "${UNSUPPORTED_INPUT}"
     "q(X) :- e(X, Y).\np(X) :- e(X, Y), !q(Y).\ne(1, 2). e(2, 3).\n?- p.\n")
execute_process(
  COMMAND "${SQO_CLI}" --eval "${UNSUPPORTED_INPUT}"
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR
  RESULT_VARIABLE RC)
string(FIND "${STDERR}" "optimizer error [UNSUPPORTED]" POS)
if(NOT RC EQUAL 2 OR POS EQUAL -1)
  message(FATAL_ERROR
      "unsupported unit: want exit 2 and an UNSUPPORTED optimizer error, "
      "got ${RC}:\n${STDOUT}\n${STDERR}")
endif()

# --serve-batch pushes the same unit through the concurrent QueryService:
# all requests succeed with matching answers, and the stats must show the
# single-flight guarantee (8 requests, 1 optimizer pipeline run) plus the
# per-request latency histograms.
set(SERVE_STATS "${WORK_DIR}/smoke_serve_stats.json")
execute_process(
  COMMAND "${SQO_CLI}" --serve-batch --threads=4 --requests=8
          "--stats-json=${SERVE_STATS}" "${INPUT}"
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR
      "sqo_cli --serve-batch failed (rc=${RC}):\n${STDOUT}\n${STDERR}")
endif()
foreach(needle
    "ok=8 rejected=0 cancelled=0 deadline_exceeded=0 failed=0"
    "(all match: yes)"
    "queue_wait p50=")
  string(FIND "${STDOUT}" "${needle}" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR
        "missing '${needle}' in serve-batch output:\n${STDOUT}")
  endif()
endforeach()
execute_process(
  COMMAND "${SQO_CLI}" "--check-json=${SERVE_STATS}"
  ERROR_VARIABLE CHECK_ERR
  RESULT_VARIABLE CHECK_RC)
if(NOT CHECK_RC EQUAL 0)
  message(FATAL_ERROR "invalid JSON in ${SERVE_STATS}: ${CHECK_ERR}")
endif()
file(READ "${SERVE_STATS}" SERVE_TEXT)
foreach(needle
    "service/requests_accepted\":8"
    "service/requests_completed\":8"
    "engine/pipeline_runs\":1"
    "engine/sessions_opened\":1"
    "service/queue_wait_ns"
    "service/execute_ns")
  string(FIND "${SERVE_TEXT}" "${needle}" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR "missing '${needle}' in ${SERVE_STATS}:\n${SERVE_TEXT}")
  endif()
endforeach()

message(STATUS "sqo_cli smoke test passed")
