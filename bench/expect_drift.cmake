# Drift twin check, run as `cmake -DRUN_BASELINE=<exe> -DBASELINE=<json>
# [-DFLAGS=<flag>] -P expect_drift.cmake`: runs `run_baseline FLAGS
# --check=BASELINE` against a copy of the baseline with one value set to
# -1.0000, and passes only if the gate takes its failure path (exit status 1
# and the "quality gate failed" error) and reports that value's drift.  A
# crash exits non-zero too, but prints neither line.
execute_process(COMMAND ${RUN_BASELINE} ${FLAGS} --check=${BASELINE}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "run_baseline --check exited with ${status}, not 1\n${out}${err}")
endif()
if(NOT err MATCHES "bench failed: quality gate failed against ")
  message(FATAL_ERROR "run_baseline --check did not report the failed gate\n${out}${err}")
endif()
if(NOT out MATCHES "quality gate: DRIFT in [^\n]*: committed -1\\.0000")
  message(FATAL_ERROR "run_baseline --check did not report the altered row\n${out}${err}")
endif()
