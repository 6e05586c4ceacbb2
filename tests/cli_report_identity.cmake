# michican_cli commands run under several flag variants; every run must
# exit 0 and, per command, write the same --no-runtime report bytes.
#
#   cmake -DCLI=<michican_cli> -DWORK=<scratch dir> \
#         "-DARGS=<subcommand and operands>|<subcommand and operands>|..." \
#         "-DVARIANTS=<flags>|<flags>|..." -P cli_report_identity.cmake
#
# Wipes WORK, runs `CLI <command> <variant flags> --no-runtime --report ...`
# once per command and variant, and compares each report with the one the
# first variant wrote for the same command using `cmake -E compare_files`.
# This is the byte-identity contract of the deterministic report section
# across --jobs values and engine tiers, and a nonzero exit (a failed cell,
# a fuzz divergence) fails it too.
if(NOT CLI OR NOT WORK OR NOT ARGS OR NOT VARIANTS)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORK=... -DARGS=... "
    "-DVARIANTS=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
string(REPLACE "|" ";" commands "${ARGS}")
string(REPLACE "|" ";" variants "${VARIANTS}")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

set(command_index 0)
foreach(command IN LISTS commands)
  separate_arguments(cmd_args UNIX_COMMAND "${command}")
  set(index 0)
  foreach(variant IN LISTS variants)
    separate_arguments(variant_args UNIX_COMMAND "${variant}")
    set(report "${WORK}/${command_index}_${index}.json")
    execute_process(
      COMMAND "${CLI}" ${cmd_args} ${variant_args} --no-runtime
              --report "${report}"
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "'${command}' '${variant}' run exited ${rc}:\n"
        "${out}${err}")
    endif()
    if(index GREATER 0)
      execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${WORK}/${command_index}_0.json" "${report}"
        RESULT_VARIABLE differ)
      if(NOT differ EQUAL 0)
        message(FATAL_ERROR "'${command}' '${variant}' report differs from "
          "the first variant's: ${WORK}/${command_index}_{0,${index}}.json")
      endif()
    endif()
    message(STATUS "'${command}' '${variant}': ok")
    math(EXPR index "${index} + 1")
  endforeach()
  math(EXPR command_index "${command_index} + 1")
endforeach()
file(REMOVE_RECURSE "${WORK}")
