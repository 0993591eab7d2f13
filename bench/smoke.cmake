# Runs one paper bench at smoke scale for ctest (the bench.* tests in
# bench/CMakeLists.txt, which set CHAM_BENCH_MAXP and
# CHAM_BENCH_STEP_DIVISOR): the bench must exit 0 and print its
# "== <title> ==" header.
#
#   cmake -DBENCH=<bench binary> -P bench/smoke.cmake
execute_process(COMMAND "${BENCH}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}\n${out}${err}")
endif()
if(NOT out MATCHES "(^|\n)== [^\n]+ ==")
  message(FATAL_ERROR "${BENCH} printed no \"== <title> ==\" header\n${out}")
endif()
