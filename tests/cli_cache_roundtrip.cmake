# Cold-then-warm run of one michican_cli subcommand through --cache-dir.
#
#   cmake -DCLI=<michican_cli> -DWORK=<scratch dir> \
#         "-DARGS=<subcommand and operands>" -P cli_cache_roundtrip.cmake
#
# Wipes WORK, runs the command twice against WORK/cache with --no-runtime
# reports, and fails unless
#   * the cold run replays nothing (0 hits) and the warm run computes
#     nothing (0 misses, 0 corrupt, hits == the cold run's misses), and
#   * the two reports are byte-identical.
# This is the cold/warm byte-identity and 100%-warm-hit contract of the
# content-addressed cell cache, checked at the command line.
if(NOT CLI OR NOT WORK OR NOT ARGS)
  message(FATAL_ERROR
    "usage: cmake -DCLI=... -DWORK=... -DARGS=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
separate_arguments(cmd_args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

foreach(run cold warm)
  execute_process(
    COMMAND "${CLI}" ${cmd_args} --cache-dir "${WORK}/cache" --no-runtime
            --report "${WORK}/${run}.json"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${run} run exited ${rc}:\n${out}${err}")
  endif()
  if(NOT out MATCHES "cache: ([0-9]+) hits, ([0-9]+) misses, ([0-9]+) corrupt")
    message(FATAL_ERROR "${run} run printed no cache line:\n${out}")
  endif()
  set(${run}_hits ${CMAKE_MATCH_1})
  set(${run}_misses ${CMAKE_MATCH_2})
  set(${run}_corrupt ${CMAKE_MATCH_3})
  message(STATUS "${run}: ${CMAKE_MATCH_0}")
endforeach()

if(NOT cold_hits EQUAL 0 OR cold_misses EQUAL 0)
  message(FATAL_ERROR
    "cold run should compute every cell: ${cold_hits} hits, ${cold_misses} misses")
endif()
if(NOT warm_misses EQUAL 0 OR NOT warm_corrupt EQUAL 0
   OR NOT warm_hits EQUAL cold_misses)
  message(FATAL_ERROR "warm run should replay all ${cold_misses} cells: "
    "${warm_hits} hits, ${warm_misses} misses, ${warm_corrupt} corrupt")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORK}/cold.json"
          "${WORK}/warm.json"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "warm report differs from cold: ${WORK}/{cold,warm}.json")
endif()
file(REMOVE_RECURSE "${WORK}")
