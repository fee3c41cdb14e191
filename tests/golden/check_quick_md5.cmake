# Run one program and compare the md5 of its stdout to a pin.
#   cmake -DBENCH=<binary> -DARGS="<args>" -DEXPECTED=<md5> -P check_quick_md5.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}:\n${err}")
endif()
string(MD5 actual "${out}")
if(NOT actual STREQUAL EXPECTED)
  message(FATAL_ERROR "${BENCH} ${ARGS} stdout md5 ${actual}, pinned ${EXPECTED}\n"
                      "--- stdout ---\n${out}")
endif()
