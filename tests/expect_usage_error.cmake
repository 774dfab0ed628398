# Runs BIN with the space-separated arguments ARGS and fails unless it
# exits 2 and prints EXPECT on stderr.
#   cmake -DBIN=<exe> "-DARGS=<args>" "-DEXPECT=<text>" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit '${rc}', expected 2\n${out}${err}")
endif()
string(FIND "${err}" "${EXPECT}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "${BIN} ${ARGS}: stderr lacks \"${EXPECT}\":\n${err}")
endif()
