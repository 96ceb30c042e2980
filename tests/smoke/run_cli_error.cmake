# CLI usage-error check, driven by CTest: the command must fail with the
# expected exit code and name the offending token on stderr.
#
# Invocation (see tests/CMakeLists.txt):
#   cmake -DPILOT_BIN=<path> -DARGS=<;-separated arguments>
#         -DEXPECT_CODE=<code> -DEXPECT_STDERR=<regex> -P run_cli_error.cmake

foreach(required PILOT_BIN ARGS EXPECT_CODE EXPECT_STDERR)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "run_cli_error.cmake: missing -D${required}")
  endif()
endforeach()

execute_process(
  COMMAND "${PILOT_BIN}" ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT rc EQUAL ${EXPECT_CODE})
  message(FATAL_ERROR
    "expected exit code ${EXPECT_CODE}, got ${rc}\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
message(STATUS "cli error case: exit ${rc}, stderr names '${EXPECT_STDERR}'")
