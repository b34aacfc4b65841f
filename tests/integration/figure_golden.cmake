# Figure-output canary: runs each bench named in DIGESTS (sha256sum
# format, one <name>.csv per line) with SCAL_BENCH_FAST=1 at every lane
# count in JOBS and compares the SHA-256 of the CSV it writes.  Figure
# drift must be deliberate: refresh the digest file with `sha256sum *.csv`
# from a SCAL_BENCH_FAST=1 SCAL_BENCH_CSV=dir run of the same benches.
#
#   cmake -DBENCH_DIR=<dir> -DDIGESTS=<file> -DOUT_DIR=<dir> -DJOBS=1,4
#         -P figure_golden.cmake

# Every other bench knob must sit at its default.
foreach(knob SCAL_BENCH_EVALS SCAL_BENCH_SEED SCAL_BENCH_FAULTS
             SCAL_BENCH_MTBF SCAL_BENCH_MTTR SCAL_BENCH_WORKLOAD
             SCAL_BENCH_MODULATE SCAL_BENCH_RESULT_MODE
             SCAL_BENCH_EVAL_CACHE SCAL_BENCH_TARGET_JOBS
             SCAL_ARRIVAL_CACHE_BYTES SCAL_TREE_CACHE_BYTES)
  unset(ENV{${knob}})
endforeach()
set(ENV{SCAL_BENCH_FAST} 1)

file(STRINGS "${DIGESTS}" lines REGEX "^[0-9a-f]+  ")
set(names "")
foreach(line IN LISTS lines)
  string(REGEX MATCH "^([0-9a-f]+)  (.+)\\.csv$" _ "${line}")
  set(expected_${CMAKE_MATCH_2} "${CMAKE_MATCH_1}")
  list(APPEND names "${CMAKE_MATCH_2}")
endforeach()
if(names STREQUAL "")
  message(FATAL_ERROR "figure_golden: no digests in ${DIGESTS}")
endif()

set(failures 0)
string(REPLACE "," ";" job_counts "${JOBS}")
foreach(jobs IN LISTS job_counts)
  set(dir "${OUT_DIR}/jobs${jobs}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  set(ENV{SCAL_JOBS} ${jobs})
  set(ENV{SCAL_BENCH_CSV} "${dir}")
  foreach(name IN LISTS names)
    execute_process(COMMAND "${BENCH_DIR}/${name}" WORKING_DIRECTORY "${dir}"
                    RESULT_VARIABLE rc OUTPUT_QUIET
                    ERROR_FILE "${dir}/${name}.err")
    if(rc EQUAL 0)
      file(SHA256 "${dir}/${name}.csv" actual)
    else()
      set(actual "exit ${rc}, see ${dir}/${name}.err")
    endif()
    if(NOT actual STREQUAL expected_${name})
      message(SEND_ERROR "${name}.csv (SCAL_JOBS=${jobs}): ${actual}, "
                         "pinned ${expected_${name}}")
      math(EXPR failures "${failures} + 1")
    endif()
  endforeach()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "figure_golden: ${failures} mismatch(es)")
endif()
