# stdout_digest.cmake — run a program and compare the SHA-256 of its
# stdout with a pinned value.  Used by the `osu` ctest targets to hold the
# OSU figure benches (fig5-fig8) to byte-identical output.
#
#   cmake -DCMD=<program> "-DARGS=a;b;c" -DEXPECT=<sha256 hex> \
#         -P tools/stdout_digest.cmake
#
# Prints the digest either way, so a deliberate output change can be
# re-pinned from the test log.
if(NOT DEFINED CMD OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "stdout_digest: CMD and EXPECT are required")
endif()
execute_process(COMMAND ${CMD} ${ARGS}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stdout_digest: ${CMD} exited with ${rc}")
endif()
string(SHA256 digest "${out}")
message(STATUS "stdout_digest: ${CMD} ${ARGS} -> ${digest}")
if(NOT digest STREQUAL EXPECT)
  message(FATAL_ERROR "stdout_digest: expected ${EXPECT}\n${out}")
endif()
