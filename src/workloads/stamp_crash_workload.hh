/**
 * @file
 * Crash workload for the STAMP-analog kernels.
 *
 * Wraps one Workload kernel (selected by its workloadKindName, e.g.
 * "genome" or "vacation-low") over a single device/pool/runtime stack
 * so the crash explorer can enumerate its persistence events. After
 * recovery the check is the workload's *structural* invariant —
 * the property that holds at every committed-transaction boundary and
 * needs none of the kernel's volatile tallies. The continuation check
 * re-crashes the recovered pool cleanly and re-verifies (recovery
 * idempotence). The check reads only durable state, so the prune key
 * is the device image alone (the default shadowHash()).
 */

#ifndef SPECPMT_WORKLOADS_STAMP_CRASH_WORKLOAD_HH
#define SPECPMT_WORKLOADS_STAMP_CRASH_WORKLOAD_HH

#include <memory>
#include <string_view>

#include "sim/crash_explorer.hh"

namespace specpmt::workloads
{

/** True if @p name is a STAMP-analog workload kind name. */
bool isStampWorkloadName(std::string_view name);

/**
 * Build the STAMP crash workload for @p cell (cell.workload names a
 * WorkloadKind; cell.scale sizes the run). Throws std::runtime_error
 * for unknown workload names or non-recoverable runtimes.
 */
std::unique_ptr<sim::CrashWorkload>
makeStampCrashWorkload(const sim::CrashCell &cell);

/**
 * Factory covering the STAMP-analog kinds here, everything else via
 * sim::builtinCrashWorkloadFactory().
 */
sim::CrashWorkloadFactory stampCrashWorkloadFactory();

} // namespace specpmt::workloads

#endif // SPECPMT_WORKLOADS_STAMP_CRASH_WORKLOAD_HH
