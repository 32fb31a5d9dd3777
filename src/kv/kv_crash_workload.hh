/**
 * @file
 * Crash workload for the sharded KV service.
 *
 * A single-client YCSB-A-style scenario (50% reads, 40% puts, 10%
 * cross-shard multiPuts over a uniform keyspace) with a shadow of
 * every acknowledged mutation. Its devices are the shard devices, so
 * the explorer's one countdown indexes the service-global
 * persistence-event sequence, and the shadow joins the shard images
 * in the prune key. Verification is per-shard prefix consistency:
 * after recovery each shard must equal its acknowledged state,
 * possibly plus the *whole* shard-local part of the one in-flight
 * transaction.
 */

#ifndef SPECPMT_KV_KV_CRASH_WORKLOAD_HH
#define SPECPMT_KV_KV_CRASH_WORKLOAD_HH

#include <memory>

#include "sim/crash_explorer.hh"

namespace specpmt::kv
{

/**
 * Build the KV crash workload for @p cell (cell.workload == "kv").
 * Throws std::runtime_error if cell.runtime is not a factory-
 * constructible recoverable scheme.
 */
std::unique_ptr<sim::CrashWorkload>
makeKvCrashWorkload(const sim::CrashCell &cell);

/**
 * Factory covering every workload the KV layer can reach: "kv" here,
 * everything else via sim::builtinCrashWorkloadFactory().
 */
sim::CrashWorkloadFactory kvCrashWorkloadFactory();

} // namespace specpmt::kv

#endif // SPECPMT_KV_KV_CRASH_WORKLOAD_HH
