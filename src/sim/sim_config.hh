/**
 * @file
 * Simulated system configuration, mirroring Table 1 of the paper
 * (Section 7.1.3). `specfig table1` prints it.
 */

#ifndef SPECPMT_SIM_SIM_CONFIG_HH
#define SPECPMT_SIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace specpmt::sim
{

/** Machine parameters for the trace-driven timing model. */
struct SimConfig
{
    /** @name CPU */
    /// @{
    double cpuGhz = 4.0; ///< out-of-order x86 core @ 4GHz
    /// @}

    /** @name TLBs (private per core) */
    /// @{
    unsigned l1TlbEntries = 64;
    unsigned l1TlbWays = 8;
    unsigned l2TlbEntries = 1536;
    unsigned l2TlbWays = 12;
    /// @}

    /** @name Caches */
    /// @{
    std::size_t l1Bytes = 32 * 1024; ///< private, 8-way, 2 cycles
    unsigned l1Ways = 8;
    SimNs l1HitNs = 1;               ///< 2 cycles @ 4GHz, rounded up
    std::size_t l2Bytes = 2 * 1024 * 1024; ///< shared, 12-way, 20 cyc
    unsigned l2Ways = 12;
    SimNs l2HitNs = 5;
    /// @}

    /** @name Persistent memory */
    /// @{
    unsigned wpqLines = 8;     ///< 512-byte write pending queue
    SimNs wpqAcceptNs = 10;
    SimNs pmReadNs = 150;
    SimNs pmWriteNs = 500;
    SimNs pmWriteSameXpLineNs = 125; ///< XPLine write combining
    /// @}

    /** @name Hardware SpecPMT */
    /// @{
    unsigned hotCounterMax = 7;      ///< 3-bit saturating counter
    /** Commits between cold-counter aging steps (hotness is a rate). */
    unsigned hotnessDecayCommits = 128;
    std::size_t epochMaxBytes = 2u << 20;  ///< start new epoch beyond
    unsigned epochMaxPages = 200;
    unsigned numEpochs = 8;          ///< epoch pointers (Figure 10)
    /// @}

    /** @name HOOP */
    /// @{
    std::size_t hoopGcBatchBytes = 128 * 1024; ///< GC reclaim unit
    /// @}

    /** Render the Table 1 rows. */
    std::string toString() const;
};

} // namespace specpmt::sim

#endif // SPECPMT_SIM_SIM_CONFIG_HH
