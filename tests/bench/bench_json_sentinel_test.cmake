# A perf binary's listing and a filtered run must leave a committed
# BENCH_*.json alone (bench/bench_json.h). Runs both in a fresh directory
# holding a sentinel BENCH_window.json and fails unless the sentinel is
# byte-identical afterwards.
#
#   cmake -DPERF=<path to perf_window> -DWORK_DIR=<scratch dir> \
#         -P bench_json_sentinel_test.cmake
if(NOT PERF OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DPERF=... -DWORK_DIR=... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(sentinel "${WORK_DIR}/BENCH_window.json")
file(WRITE "${sentinel}" "{\"sentinel\": \"committed rows\"}\n")
file(READ "${sentinel}" before HEX)

function(run_and_check label)
  execute_process(COMMAND "${PERF}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label}: perf_window exited with ${rc}")
  endif()
  file(READ "${sentinel}" after HEX)
  if(NOT after STREQUAL before)
    message(FATAL_ERROR "${label} rewrote the sentinel BENCH_window.json")
  endif()
endfunction()

run_and_check("--benchmark_list_tests" --benchmark_list_tests)
# BM_WindowAccumulatorAdd trains no model, so the filtered run is quick.
run_and_check("a filtered run"
              --benchmark_filter=BM_WindowAccumulatorAdd
              --benchmark_min_time=0.01)
