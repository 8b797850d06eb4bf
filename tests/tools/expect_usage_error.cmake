# Runs TOOL with the arguments ARG (one argument, or a list of them) and
# passes only when the tool exits non-zero and its stderr contains the
# literal text EXPECT.
#
#   cmake -DTOOL=path/to/magicrecsd -DARG=--port=70000 \
#         "-DEXPECT=invalid value for --port: '70000'" \
#         -P expect_usage_error.cmake
#
# From add_test, join several arguments with $<SEMICOLON>:
#   -DARG=--graph=fig1$<SEMICOLON>--users=5

execute_process(COMMAND "${TOOL}" ${ARG}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 30)
string(REPLACE ";" " " args "${ARG}")
if(rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} ${args} exited 0; expected a usage error")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "${TOOL} ${args} (exit ${rc}) stderr lacks \"${EXPECT}\":\n${err}")
endif()
