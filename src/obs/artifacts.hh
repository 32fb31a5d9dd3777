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

#include "common/flags.hh"

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
     * Declare --metrics-out= and --trace-out= to @p flags; parsing a
     * non-empty trace path enables the tracer.
     */
    void declare(Flags &flags);

    /**
     * Write whichever sinks were requested (no-op when neither).
     * @return "" on success, else the error naming the flag whose
     * path could not be written.
     */
    [[nodiscard]] std::string writeArtifacts() const;
};

} // namespace specpmt::obs

#endif // SPECPMT_OBS_ARTIFACTS_HH
