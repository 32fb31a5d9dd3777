# Runs `specfig table1 table2 fig13 fig14 fig15 seq-vs-hash` at 1%
# scale and checks that it exits 0 and prints each artifact's banner.
# Invoked by ctest as
#   cmake -DSPECFIG=... -P this-file

if(NOT DEFINED SPECFIG)
    message(FATAL_ERROR "missing -DSPECFIG=")
endif()

execute_process(
    COMMAND "${SPECFIG}" table1 table2 fig13 fig14 fig15 seq-vs-hash
            --scale=0.01
    RESULT_VARIABLE status
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "specfig failed (${status}):\n${output}")
endif()

foreach(banner
        "== Table 1: system configuration =="
        "== Table 2: size and number of transactions =="
        "== Figure 13: speedup over EDE =="
        "== Figure 14: write-traffic reduction over EDE, percent =="
        "== Figure 15: speedup & traffic vs log memory =="
        "== Section 4: hash-table log slowdown vs sequential log ==")
    string(FIND "${output}" "${banner}" found)
    if(found EQUAL -1)
        message(FATAL_ERROR "specfig printed no `${banner}`:\n${output}")
    endif()
endforeach()

message(STATUS "specfig artifacts printed")
