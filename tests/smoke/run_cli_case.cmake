# End-to-end smoke check for the `pilot` CLI, driven by CTest.
#
# Invocation (see tests/CMakeLists.txt):
#   cmake -DPILOT_BIN=<path> -DFAMILY=<family name> -DEXPECT_CODE=<0|1>
#         -DWORK_DIR=<scratch dir> [-DENGINE=<engine spec>]
#         [-DGEN=<strategy spec>] [-DEXTRA_FLAGS=<flag>]
#         -P run_cli_case.cmake
#
# Steps:
#   1. `pilot --family FAMILY --family-out WORK_DIR/FAMILY.aag` — exercises
#      the circuit generator and the AIGER writer; must exit 0.
#   2. `pilot --witness [--engine ENGINE] [--set gen=GEN] FILE` — exercises
#      the AIGER reader and the engine (ENGINE defaults to the CLI's default;
#      pass e.g. "portfolio" or "portfolio-x:bmc+kind" to cover the
#      scheduler, GEN e.g. "dynamic" to cover a strategy override); must
#      exit EXPECT_CODE, print the matching verdict line, and emit the
#      matching HWMCC witness block ("1\nb…" counterexample for UNSAFE,
#      "0\nb…" certificate header for SAFE).

foreach(required PILOT_BIN FAMILY EXPECT_CODE WORK_DIR)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "run_cli_case.cmake: missing -D${required}")
  endif()
endforeach()

set(engine_args "")
if(DEFINED ENGINE)
  list(APPEND engine_args --engine "${ENGINE}")
endif()
if(DEFINED GEN)
  list(APPEND engine_args --set "gen=${GEN}")
endif()
if(DEFINED EXTRA_FLAGS)
  list(APPEND engine_args ${EXTRA_FLAGS})
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(model "${WORK_DIR}/${FAMILY}.aag")

execute_process(
  COMMAND "${PILOT_BIN}" --family "${FAMILY}" --family-out "${model}"
  RESULT_VARIABLE gen_rc
  ERROR_VARIABLE gen_err)
if(NOT gen_rc EQUAL 0)
  message(FATAL_ERROR
    "generation failed (exit ${gen_rc}) for --family ${FAMILY}:\n${gen_err}")
endif()

execute_process(
  COMMAND "${PILOT_BIN}" --witness --budget-ms 60000 ${engine_args} "${model}"
  RESULT_VARIABLE check_rc
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err)

if(NOT check_rc EQUAL ${EXPECT_CODE})
  message(FATAL_ERROR
    "expected exit code ${EXPECT_CODE}, got ${check_rc} on ${model}\n"
    "stdout:\n${check_out}\nstderr:\n${check_err}")
endif()

if(EXPECT_CODE EQUAL 0)
  set(verdict "SAFE")
  set(witness_head "0\nb")
else()
  set(verdict "UNSAFE")
  set(witness_head "1\nb")
endif()

if(NOT check_out MATCHES "(^|\n)${verdict}\n")
  message(FATAL_ERROR
    "verdict line '${verdict}' missing from stdout:\n${check_out}")
endif()
string(FIND "${check_out}" "${witness_head}" witness_pos)
if(witness_pos EQUAL -1)
  message(FATAL_ERROR
    "witness block starting '${witness_head}' missing from stdout:\n"
    "${check_out}")
endif()

if(DEFINED ENGINE)
  set(engine_note " (engine ${ENGINE})")
else()
  set(engine_note "")
endif()
message(STATUS
  "cli smoke ${FAMILY}${engine_note}: "
  "verdict ${verdict}, exit ${check_rc}, witness ok")
