/**
 * @file
 * CRC32C (Castagnoli), used as the speculative log record checksum.
 * The checksum doubles as the transaction commit flag in software
 * SpecPMT (Section 4.1 of the paper), so it must detect torn
 * (partially persisted) records with high probability.
 *
 * crc32c() runs on the SSE4.2 `crc32` instruction when the CPU has
 * it and on a byte-at-a-time table loop otherwise; both compute the
 * same function, and the table loop stays callable as the reference
 * the hardware path is tested against.
 */

#ifndef SPECPMT_COMMON_CRC32_HH
#define SPECPMT_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace specpmt
{

/**
 * Compute CRC32C over a byte buffer.
 *
 * @param data  The buffer to checksum.
 * @param size  Number of bytes.
 * @param seed  Initial CRC state for incremental use (default fresh).
 * @return The CRC32C value.
 */
std::uint32_t crc32c(const void *data, std::size_t size,
                     std::uint32_t seed = 0);

/** The portable table loop: crc32c()'s fallback and test reference. */
std::uint32_t crc32cTable(const void *data, std::size_t size,
                          std::uint32_t seed = 0);

/** True when crc32c() runs on the SSE4.2 crc32 instruction. */
bool crc32cHardware();

} // namespace specpmt

#endif // SPECPMT_COMMON_CRC32_HH
