# Runs each program named after the script and fails unless it exits 0 with
# stdout byte-identical to GOLDEN_DIR/<program name>.txt.  A mismatch leaves
# the output it got in <program name>.actual.txt in the working directory.
#
#   cmake -DGOLDEN_DIR=<dir> -P compare_stdout.cmake <program>...
cmake_minimum_required(VERSION 3.16)

set(programs "")
set(state "options")  # then "script" (the next argument), then "programs"
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  set(arg "${CMAKE_ARGV${i}}")
  if(state STREQUAL "programs")
    list(APPEND programs "${arg}")
  elseif(state STREQUAL "script")
    set(state "programs")
  elseif(arg STREQUAL "-P")
    set(state "script")
  endif()
endforeach()
if(programs STREQUAL "")
  message(FATAL_ERROR "no program to compare")
endif()

foreach(program IN LISTS programs)
  get_filename_component(name "${program}" NAME)
  execute_process(COMMAND "${program}" OUTPUT_VARIABLE got RESULT_VARIABLE rc)
  file(READ "${GOLDEN_DIR}/${name}.txt" want)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} exited with status ${rc}")
  endif()
  if(NOT got STREQUAL want)
    file(WRITE "${name}.actual.txt" "${got}")
    message(FATAL_ERROR "${name}: stdout differs from ${GOLDEN_DIR}/${name}.txt "
                        "(got ${name}.actual.txt)")
  endif()
  message(STATUS "${name}: stdout matches ${GOLDEN_DIR}/${name}.txt")
endforeach()
