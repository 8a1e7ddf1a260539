# The environment spelling of the bench knobs (BenchConfig's fallback
# under the flags) must select the same run as the flag spelling.
#
#   cmake -DBENCH=<bench_fig6_mfi> -DOUT=<scratch dir> -P env_spelling.cmake
#
# Both runs print host-independent tables, so their stdout must match
# byte for byte; the environment's artifact directory must receive the
# JSON artifact.
file(REMOVE_RECURSE ${OUT})
execute_process(
    COMMAND ${BENCH} --scale 0.02 --only bzip2 --jobs 1
    OUTPUT_VARIABLE flags RESULT_VARIABLE flagsRc)
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env DISE_BENCH_SCALE=0.02
            DISE_BENCH_ONLY=bzip2 DISE_BENCH_JOBS=2
            DISE_BENCH_JSON=${OUT} ${BENCH}
    OUTPUT_VARIABLE env RESULT_VARIABLE envRc)
if(NOT flagsRc EQUAL 0 OR NOT envRc EQUAL 0)
    message(FATAL_ERROR "bench failed: flags ${flagsRc}, env ${envRc}")
endif()
if(NOT flags STREQUAL env)
    message(FATAL_ERROR "env spelling differs from the flags:\n"
                        "${flags}\n---\n${env}")
endif()
if(NOT EXISTS ${OUT}/BENCH_fig6_mfi.json)
    message(FATAL_ERROR "DISE_BENCH_JSON wrote no ${OUT}/BENCH_fig6_mfi.json")
endif()
