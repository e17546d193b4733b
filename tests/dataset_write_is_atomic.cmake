# `mvgnn dataset` writes its output atomically: when the write fails (here an
# injected fault between the temp write and the rename), the command exits
# nonzero, the file already at the output path keeps its bytes, and no temp
# file is left behind. Driven by ctest (see tests/CMakeLists.txt):
#   cmake -DCLI=... -DOUT_DIR=... -P dataset_write_is_atomic.cmake
file(MAKE_DIRECTORY ${OUT_DIR})
set(out ${OUT_DIR}/out.bin)
file(REMOVE ${out}.tmp)
file(WRITE ${out} "a good dataset from an earlier run\n")
file(READ ${out} before HEX)

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env MVGNN_FAULT=io.write@1
          ${CLI} dataset ${out} --corpus 12
  RESULT_VARIABLE rv
  OUTPUT_VARIABLE log
  ERROR_VARIABLE log)
if(rv EQUAL 0)
  message(FATAL_ERROR "mvgnn dataset succeeded despite the write fault:\n${log}")
endif()
file(READ ${out} after HEX)
if(NOT after STREQUAL before)
  message(FATAL_ERROR "a failed mvgnn dataset changed ${out}:\n${log}")
endif()
if(EXISTS ${out}.tmp)
  message(FATAL_ERROR "a failed mvgnn dataset left ${out}.tmp behind")
endif()
