#include "common/crc32.hh"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace specpmt
{

namespace
{

/** Build the CRC32C (polynomial 0x1EDC6F41, reflected) lookup table. */
constexpr std::array<std::uint32_t, 256>
makeTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit) {
            if (crc & 1u)
                crc = (crc >> 1) ^ 0x82F63B78u;
            else
                crc >>= 1;
        }
        table[i] = crc;
    }
    return table;
}

constexpr auto kTable = makeTable();

/** Advance the raw (uninverted) CRC state over @p size bytes. */
using Kernel = std::uint32_t (*)(const std::uint8_t *, std::size_t,
                                 std::uint32_t);

std::uint32_t
tableKernel(const std::uint8_t *bytes, std::size_t size, std::uint32_t crc)
{
    for (std::size_t i = 0; i < size; ++i)
        crc = kTable[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
    return crc;
}

#if defined(__x86_64__)
/** The SSE4.2 crc32 instruction computes exactly this polynomial. */
__attribute__((target("sse4.2"))) std::uint32_t
hardwareKernel(const std::uint8_t *bytes, std::size_t size,
               std::uint32_t crc)
{
    // Bytes up to an 8-byte boundary, then whole words, then the rest.
    while (size > 0 && (reinterpret_cast<std::uintptr_t>(bytes) & 7u)) {
        crc = _mm_crc32_u8(crc, *bytes++);
        --size;
    }
    std::uint64_t wide = crc;
    for (; size >= 8; size -= 8, bytes += 8) {
        std::uint64_t word;
        std::memcpy(&word, bytes, sizeof(word));
        wide = _mm_crc32_u64(wide, word);
    }
    crc = static_cast<std::uint32_t>(wide);
    while (size-- > 0)
        crc = _mm_crc32_u8(crc, *bytes++);
    return crc;
}
#endif

/** The kernel for this CPU, chosen on first use. */
Kernel
kernel()
{
#if defined(__x86_64__)
    static const Kernel chosen =
        __builtin_cpu_supports("sse4.2") ? hardwareKernel : tableKernel;
    return chosen;
#else
    return tableKernel;
#endif
}

} // namespace

std::uint32_t
crc32c(const void *data, std::size_t size, std::uint32_t seed)
{
    return ~kernel()(static_cast<const std::uint8_t *>(data), size, ~seed);
}

std::uint32_t
crc32cTable(const void *data, std::size_t size, std::uint32_t seed)
{
    return ~tableKernel(static_cast<const std::uint8_t *>(data), size,
                        ~seed);
}

bool
crc32cHardware()
{
    return kernel() != tableKernel;
}

} // namespace specpmt
