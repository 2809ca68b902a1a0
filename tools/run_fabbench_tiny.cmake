# Runs one tiny-scale fabbench pass and fails unless its result line (the
# last line of output) reports every output correct and no failed
# operation. Registered with ctest by the root CMakeLists.txt:
#
#   cmake -DFABBENCH=<fabbench> -DWORKLOAD=<name> -DSPANS=<dir> \
#         -P tools/run_fabbench_tiny.cmake

execute_process(
  COMMAND ${FABBENCH} --workload ${WORKLOAD} --seed 1 --seconds 1
          --trace 0 --tiny --spans ${SPANS}
  OUTPUT_VARIABLE Out
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "fabbench --workload ${WORKLOAD} exited ${Rc}\n${Out}")
endif()
string(STRIP "${Out}" Out)
string(FIND "${Out}" "\n" Pos REVERSE)
math(EXPR Pos "${Pos} + 1")
string(SUBSTRING "${Out}" ${Pos} -1 Result)
if(NOT Result MATCHES "\"correct\": true" OR
   NOT Result MATCHES "\"failed\": 0[,}]")
  message(FATAL_ERROR "fabbench --workload ${WORKLOAD}: result is not "
                      "correct with 0 failed\n${Result}")
endif()
message(STATUS "fabbench ${WORKLOAD}: correct, 0 failed")
