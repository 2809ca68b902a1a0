# Runs one tiny-scale fabbench pass and fails unless its result line (the
# last line of output) reports every output correct and no failed
# operation, and its two deterministic simulated figures meet the values
# committed below. Registered with ctest by the root CMakeLists.txt:
#
#   cmake -DFABBENCH=<fabbench> -DWORKLOAD=<name> -DSPANS=<dir> \
#         -P tools/run_fabbench_tiny.cmake

# Seed-1 tiny-run values, as fabbench prints them. They are simulated,
# so every build, build type and host prints them exactly: the gate has
# no tolerance. sim_speedup_geomean must not fall below its value and
# gen_instrs_per_word must not rise above it. A change that improves one
# updates it here.
set(Committed_paper-suite 0.51441878851639489 9.5821480271063741)
set(Committed_serve-churn 0.37923912323935322 11.220854434774077)
if(NOT DEFINED Committed_${WORKLOAD})
  message(FATAL_ERROR "no committed values for workload ${WORKLOAD}")
endif()
list(GET Committed_${WORKLOAD} 0 MinSpeedup)
list(GET Committed_${WORKLOAD} 1 MaxGenInstrsPerWord)

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

# The metric's value from the result line, e.g.
# "sim_speedup_geomean": {"value": 0.51441878851639489, "unit": "x"}.
function(metric Name Out)
  if(NOT Result MATCHES "\"${Name}\": {\"value\": ([^,}]+)")
    message(FATAL_ERROR "fabbench --workload ${WORKLOAD}: no ${Name}\n"
                        "${Result}")
  endif()
  set(${Out} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()
metric(sim_speedup_geomean Speedup)
metric(gen_instrs_per_word GenInstrsPerWord)
if(Speedup LESS MinSpeedup)
  message(FATAL_ERROR "fabbench --workload ${WORKLOAD}: sim_speedup_geomean "
                      "${Speedup} is below the committed ${MinSpeedup}")
endif()
if(GenInstrsPerWord GREATER MaxGenInstrsPerWord)
  message(FATAL_ERROR "fabbench --workload ${WORKLOAD}: gen_instrs_per_word "
                      "${GenInstrsPerWord} is above the committed "
                      "${MaxGenInstrsPerWord}")
endif()
message(STATUS "fabbench ${WORKLOAD}: correct, 0 failed, "
               "sim_speedup_geomean ${Speedup}, "
               "gen_instrs_per_word ${GenInstrsPerWord}")
