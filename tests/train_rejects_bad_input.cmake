# `mvgnn train` must reject an input that does not compile before it trains:
# a syntax error and a program without `kernel` each exit nonzero without
# the "training MV-GNN" log line. Driven by ctest (see tests/CMakeLists.txt):
#   cmake -DCLI=... -DOUT_DIR=... -P train_rejects_bad_input.cmake
file(MAKE_DIRECTORY ${OUT_DIR})
file(WRITE ${OUT_DIR}/syntax_error.minic
  "void kernel(float[] a) {\n  for (int i = 0; i < 8; i += 1) {\n    a[i] = 1.0\n  }\n}\n")
file(WRITE ${OUT_DIR}/no_kernel.minic
  "void other(float[] a) {\n  for (int i = 0; i < 8; i += 1) {\n    a[i] = 1.0;\n  }\n}\n")

foreach(name syntax_error no_kernel)
  execute_process(
    COMMAND ${CLI} train ${OUT_DIR}/${name}.minic --corpus 12 --epochs 1
    RESULT_VARIABLE rv
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  if(rv EQUAL 0)
    message(FATAL_ERROR "mvgnn train accepted ${name}.minic:\n${out}")
  endif()
  if(out MATCHES "training MV-GNN")
    message(FATAL_ERROR "mvgnn train trained before rejecting ${name}.minic:\n${out}")
  endif()
endforeach()
