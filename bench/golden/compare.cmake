# Runs one bench and compares its stdout, byte for byte, with a copy
# captured when the figure was pinned. Invoked by ctest:
#   cmake -DBENCH=<binary> -DEXPECTED=<golden .txt> -DACTUAL=<out file>
#         -P compare.cmake
execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${ACTUAL}" "${EXPECTED}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "stdout of ${BENCH} (${ACTUAL}) differs from "
                        "${EXPECTED}")
endif()
