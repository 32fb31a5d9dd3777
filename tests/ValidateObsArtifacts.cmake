# Runs `speckv bench` with --metrics-out/--trace-out and validates the
# artifacts: both must pass `specstat check` (and broken copies must
# fail it), the metrics exposition must carry the core
# tx/fence/reclaim/recovery series, and the trace must hold at least
# one span of every category. Invoked by ctest as
#   cmake -DSPECKV=... -DSPECSTAT=... -DWORK_DIR=... -P this-file

foreach(var SPECKV SPECSTAT WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "missing -D${var}=")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(metrics "${WORK_DIR}/metrics.prom")
set(trace "${WORK_DIR}/trace.json")

execute_process(
    COMMAND "${SPECKV}" bench --runtimes=spec --mixes=A --threads=2
            --shards=2 --keys=2048 --ops=400
            "--metrics-out=${metrics}" "--trace-out=${trace}"
    RESULT_VARIABLE bench_status
    OUTPUT_VARIABLE bench_output
    ERROR_VARIABLE bench_output)
if(NOT bench_status EQUAL 0)
    message(FATAL_ERROR
            "speckv bench failed (${bench_status}):\n${bench_output}")
endif()

foreach(artifact "${metrics}" "${trace}")
    if(NOT EXISTS "${artifact}")
        message(FATAL_ERROR "artifact not written: ${artifact}")
    endif()
endforeach()

# Both artifacts must parse (Prometheus text / trace JSON).
execute_process(
    COMMAND "${SPECSTAT}" check "${metrics}" "${trace}"
    RESULT_VARIABLE check_status
    OUTPUT_VARIABLE check_output
    ERROR_VARIABLE check_output)
if(NOT check_status EQUAL 0)
    message(FATAL_ERROR
            "specstat check failed (${check_status}):\n${check_output}")
endif()

# Broken JSON must fail the check: a truncated copy of the trace,
# trailing garbage after the valid trace object, and an unterminated
# string.
file(READ "${trace}" trace_text)
string(LENGTH "${trace_text}" trace_len)
math(EXPR half "${trace_len} / 2")
string(SUBSTRING "${trace_text}" 0 ${half} truncated)
file(WRITE "${WORK_DIR}/bad-truncated.json" "${truncated}")
file(WRITE "${WORK_DIR}/bad-trailing.json" "${trace_text}garbage")
file(WRITE "${WORK_DIR}/bad-unterminated.json"
     "{\"traceEvents\": [], \"name\": \"abc")
foreach(bad bad-truncated bad-trailing bad-unterminated)
    execute_process(
        COMMAND "${SPECSTAT}" check "${WORK_DIR}/${bad}.json"
        RESULT_VARIABLE bad_status
        OUTPUT_QUIET ERROR_QUIET)
    if(bad_status EQUAL 0)
        message(FATAL_ERROR "specstat check accepted ${bad}.json")
    endif()
endforeach()

# The registry dump must carry the core series of every layer.
file(READ "${metrics}" metrics_text)
foreach(series
        specpmt_spec_tx_commits_total
        specpmt_pmem_fences_total
        specpmt_pmem_stores_total
        specpmt_reclaim_cycles_total
        specpmt_recoveries_total
        specpmt_kv_puts_total
        specpmt_sim_ns_total
        specpmt_kv_read_latency_ns_count)
    string(FIND "${metrics_text}" "${series}" found)
    if(found EQUAL -1)
        message(FATAL_ERROR
                "metrics exposition is missing ${series}")
    endif()
endforeach()

# The trace must witness at least one span per category.
foreach(category tx flush reclaim recovery)
    string(FIND "${trace_text}" "\"cat\": \"${category}\"" found)
    if(found EQUAL -1)
        message(FATAL_ERROR
                "trace has no span in category '${category}'")
    endif()
endforeach()

# `specstat diff` of an exposition against itself reports no deltas
# and exits 0 (the CI diff step relies on both properties).
execute_process(
    COMMAND "${SPECSTAT}" diff "${metrics}" "${metrics}"
    RESULT_VARIABLE diff_status
    OUTPUT_VARIABLE diff_output
    ERROR_VARIABLE diff_output)
if(NOT diff_status EQUAL 0)
    message(FATAL_ERROR
            "specstat diff failed (${diff_status}):\n${diff_output}")
endif()
string(FIND "${diff_output}" "# 0 samples differ" no_deltas)
if(no_deltas EQUAL -1)
    message(FATAL_ERROR
            "self-diff reported deltas:\n${diff_output}")
endif()

message(STATUS "observability artifacts validated")
