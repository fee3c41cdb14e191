# Run one bench with --quick and compare the md5 of its stdout to a pin.
#   cmake -DBENCH=<bench binary> -DEXPECTED=<md5> -P check_quick_md5.cmake
execute_process(COMMAND "${BENCH}" --quick
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --quick exited with ${rc}:\n${err}")
endif()
string(MD5 actual "${out}")
if(NOT actual STREQUAL EXPECTED)
  message(FATAL_ERROR "${BENCH} --quick stdout md5 ${actual}, pinned ${EXPECTED}\n"
                      "--- stdout ---\n${out}")
endif()
