/**
 * @file
 * Shared `--metrics-out=` / `--trace-out=` command-line handling for
 * benches and tools. Parsing a trace path enables the tracer for the
 * rest of the run; writeArtifacts() dumps both sinks once the
 * workload finishes.
 */

#ifndef SPECPMT_OBS_ARTIFACTS_HH
#define SPECPMT_OBS_ARTIFACTS_HH

#include <string>
#include <string_view>

namespace specpmt::obs
{

/** Parsed observability output sinks. */
struct OutputFlags
{
    /** Prometheus text exposition; a ".json" suffix selects JSON. */
    std::string metricsPath;
    /** Chrome trace-event / Perfetto JSON. */
    std::string tracePath;

    /**
     * Consume @p arg if it is one of ours; enables the tracer as a
     * side effect of seeing --trace-out=. Returns false for
     * arguments the caller should handle itself.
     */
    bool accept(std::string_view arg);

    /** Write whichever sinks were requested (no-op when neither). */
    void writeArtifacts() const;
};

} // namespace specpmt::obs

#endif // SPECPMT_OBS_ARTIFACTS_HH
