# The determinism bans no type can state, as a token check over C++ files.
#
#   cmake -DROOT=<dir> [-DEXPECT=<n>] -P tools/determinism_tokens.cmake
#
# Every run must replay bit for bit.  So under ROOT, no file below a core/,
# sched/, sim/ or workload/ directory calls rand(), srand() or time() with
# no argument or names system_clock, and no file but util/hashed.h names a
# std hash container: util/hashed.h wraps them so their order cannot leak.
# Text after // is skipped.  Prints each finding as <file>:<line>: <code>
# and fails unless there are EXPECT of them (default 0).
if(NOT DEFINED EXPECT)
  set(EXPECT 0)
endif()
set(start "(^|[^A-Za-z0-9_])")
set(hash_ban "${start}unordered_(multi)?(map|set)($|[^A-Za-z0-9_])")
set(clock_ban "${start}(s?rand *\\(|time *\\( *(nullptr|NULL|0)? *\\))")
get_filename_component(ROOT "${ROOT}" ABSOLUTE)
file(GLOB_RECURSE files RELATIVE "${ROOT}" "${ROOT}/*.h" "${ROOT}/*.cpp")
if(NOT files)
  message(FATAL_ERROR "no .h or .cpp file under ${ROOT}")
endif()
set(count 0)
foreach(rel IN LISTS files)
  if(rel STREQUAL "util/hashed.h")
    continue()
  endif()
  set(ban "${hash_ban}")
  if("/${rel}" MATCHES "/(core|sched|sim|workload)/")
    string(APPEND ban "|${clock_ban}|system_clock")
  endif()
  file(READ "${ROOT}/${rel}" text)
  # One list element per line: blank what a CMake list treats specially.
  string(REGEX REPLACE "[][;\\]" " " text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(line_no 0)
  foreach(line IN LISTS lines)
    math(EXPR line_no "${line_no} + 1")
    string(REGEX REPLACE "//.*" "" code "${line}")
    if(code MATCHES "${ban}")
      string(STRIP "${code}" code)
      message("${rel}:${line_no}: ${code}")
      math(EXPR count "${count} + 1")
    endif()
  endforeach()
endforeach()
if(NOT count EQUAL EXPECT)
  message(FATAL_ERROR "${count} findings under ${ROOT}; expected ${EXPECT}")
endif()
