# Each bench in BENCHES (comma-separated) takes no flags and must reject
# one with a usage line and a non-zero exit, so an unsupported flag never
# silently runs the default experiment.  fig2_scale_network fed an SWF
# log with a NaN or overflowing submit time must exit 2 naming the field,
# not abort inside the first simulation.
#
#   cmake -DBENCH_DIR=<dir> -DBENCHES=a,b -DOUT_DIR=<dir>
#         -P bench_rejects_args.cmake

set(failures 0)
string(REPLACE "," ";" benches "${BENCHES}")
foreach(name IN LISTS benches)
  execute_process(COMMAND "${BENCH_DIR}/${name}" --faults net:drop=2
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                  TIMEOUT 60)
  if(rc EQUAL 0 OR NOT err MATCHES "usage:")
    message(SEND_ERROR "${name} --faults net:drop=2: exit ${rc}: ${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")
foreach(bad nan 1e400)
  set(swf "${OUT_DIR}/bad_${bad}.swf")
  file(WRITE "${swf}" "1 0 0 10\n2 ${bad} 0 10\n")
  execute_process(COMMAND "${BENCH_DIR}/fig2_scale_network" --swf "${swf}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "bad field '${bad}'")
    message(SEND_ERROR "fig2_scale_network --swf (${bad}): exit ${rc}: ${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "bench_rejects_args: ${failures} failure(s)")
endif()
