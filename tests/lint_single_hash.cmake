# Source lint behind the lint_src_single_hash test: fails when a
# decision the library makes in one place is duplicated again.
#
#   - The FNV-1a prime may appear under src/ only in util/hash.hh, the
#     one hash implementation.
#   - The C ABI layers (src/api, src/svc) may not classify errors by
#     message prefix (`rfind(`): statuses are typed (api::Status).
#
# Run from ctest, or by hand:  cmake -DSRC=<repo>/src -P <this file>

if (NOT SRC OR NOT IS_DIRECTORY "${SRC}")
    message(FATAL_ERROR "lint_single_hash: pass -DSRC=<repo>/src")
endif()

set(prime_re "0[xX]0*100000001[bB]3")
file(GLOB_RECURSE sources "${SRC}/*.cc" "${SRC}/*.hh" "${SRC}/*.h")

# The scan must see the one allowed copy, or it is scanning nothing.
file(STRINGS "${SRC}/util/hash.hh" own REGEX "${prime_re}")
if (NOT own)
    message(FATAL_ERROR
        "lint_single_hash: no FNV-1a prime in ${SRC}/util/hash.hh")
endif()

set(findings 0)
foreach(path IN LISTS sources)
    file(RELATIVE_PATH rel "${SRC}" "${path}")
    if (NOT rel STREQUAL "util/hash.hh")
        file(STRINGS "${path}" hits REGEX "${prime_re}")
        foreach(line IN LISTS hits)
            message("src/${rel}: FNV-1a prime outside util/hash.hh: "
                    "${line}")
            math(EXPR findings "${findings} + 1")
        endforeach()
    endif()
    if (rel MATCHES "^(api|svc)/")
        file(STRINGS "${path}" hits REGEX "rfind\\(")
        foreach(line IN LISTS hits)
            message("src/${rel}: error classified by message prefix: "
                    "${line}")
            math(EXPR findings "${findings} + 1")
        endforeach()
    endif()
endforeach()

if (findings GREATER 0)
    message(FATAL_ERROR "lint_single_hash: ${findings} finding(s)")
endif()
message(STATUS "lint_single_hash: clean")
