/**
 * @file
 * Save/load of PmemDevice crash images as files, so a post-crash
 * persistence domain can leave the process that produced it and be
 * examined offline (tools/pminspect) or attached to a CI failure.
 *
 * The format is deliberately trivial: a 16-byte header (magic +
 * payload size) followed by the raw image bytes. The magic pins
 * endianness and version; the explicit size rejects truncated files
 * before any walker touches them.
 */

#ifndef SPECPMT_PMEM_IMAGE_IO_HH
#define SPECPMT_PMEM_IMAGE_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pmem/pmem_device.hh"

namespace specpmt::pmem
{

/** Image file magic ("SPMTIMG1", little-endian). */
constexpr std::uint64_t kImageMagic = 0x31474D49544D5053ull;

/**
 * Write @p image to @p path (header + raw bytes).
 * @return true on success; on failure @p error describes the problem.
 */
bool saveImage(const std::string &path,
               const std::vector<std::uint8_t> &image,
               std::string &error);

/**
 * Read an image file written by saveImage().
 * @return true on success with the payload in @p image; false with
 *         @p error set on a missing/truncated/foreign file.
 */
bool loadImage(const std::string &path, std::vector<std::uint8_t> &image,
               std::string &error);

/**
 * Build a device whose volatile *and* persistent images both equal
 * @p image — the state a machine wakes up to after the power failure
 * that produced the image. The device is untimed and has no pending
 * cache state; walking it reads exactly the surviving bytes.
 */
std::unique_ptr<PmemDevice>
deviceFromImage(const std::vector<std::uint8_t> &image);

} // namespace specpmt::pmem

#endif // SPECPMT_PMEM_IMAGE_IO_HH
