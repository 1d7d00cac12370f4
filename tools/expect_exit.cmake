# Runs the command given after `--` and fails unless it exits with status
# EXIT_CODE and its combined stdout/stderr matches the regular expression
# EXPECT. ctest's PASS_REGULAR_EXPRESSION alone ignores the exit status,
# so a CLI that printed the right message and then aborted would pass.
#
#   cmake -DEXIT_CODE=2 -DEXPECT=<regex> -P expect_exit.cmake -- <cmd> <args>
#
# No argument may contain ';', which CMake reads as a list separator.
set(cmd)
set(in_cmd FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_cmd TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT "${rc}" STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR "exit status ${rc}, want ${EXIT_CODE}; output:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}':\n${out}")
endif()
