# Fails when the -mavx2 splat-kernel object (gs/row_kernels_avx2.cc)
# defines any global or weak symbol other than
# rtgs::gs::splatKernelsAvx2(). A helper that a shared header emits from
# both kernel TUs becomes a weak symbol in each object; the linker may
# then keep the -mavx2 copy for the scalar callers too, which raises
# SIGILL on a CPU without AVX2.
#
#   cmake -DNM=<nm> -DOBJECTS=<the rtgs objects> -P check_avx2_symbols.cmake

set(allowed "rtgs::gs::splatKernelsAvx2()")

set(object "")
foreach(candidate IN LISTS OBJECTS)
  if(candidate MATCHES "row_kernels_avx2\\.cc\\.o(bj)?$")
    set(object "${candidate}")
  endif()
endforeach()
if(NOT object)
  message(FATAL_ERROR "row_kernels_avx2.cc.o is not among: ${OBJECTS}")
endif()

execute_process(COMMAND "${NM}" -C --defined-only "${object}"
                OUTPUT_VARIABLE symbols
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${object}")
endif()

# nm prints "<address> <type> <name>"; an upper-case type is global, and
# u is a GNU unique global.
string(REPLACE "\n" ";" lines "${symbols}")
set(extra "")
foreach(line IN LISTS lines)
  if(line MATCHES "^[0-9a-fA-F]* *([A-Zu]) (.+)$")
    if(NOT CMAKE_MATCH_2 STREQUAL allowed)
      string(APPEND extra "\n  ${line}")
    endif()
  endif()
endforeach()
if(extra)
  message(FATAL_ERROR
          "${object} defines global or weak symbols besides ${allowed}; "
          "give them internal linkage:${extra}")
endif()
message(STATUS "${object}: only ${allowed} is global")
