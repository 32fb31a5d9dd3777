#include "pmem/image_io.hh"

#include <algorithm>
#include <cstring>
#include <fstream>

namespace specpmt::pmem
{

namespace
{

struct ImageFileHeader
{
    std::uint64_t magic;
    std::uint64_t sizeBytes;
};
static_assert(sizeof(ImageFileHeader) == 16);

} // namespace

bool
saveImage(const std::string &path, const std::vector<std::uint8_t> &image,
          std::string &error)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        error = "cannot open " + path + " for writing";
        return false;
    }
    const ImageFileHeader header{kImageMagic, image.size()};
    out.write(reinterpret_cast<const char *>(&header), sizeof(header));
    out.write(reinterpret_cast<const char *>(image.data()),
              static_cast<std::streamsize>(image.size()));
    if (!out) {
        error = "short write to " + path;
        return false;
    }
    return true;
}

bool
loadImage(const std::string &path, std::vector<std::uint8_t> &image,
          std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    ImageFileHeader header{};
    in.read(reinterpret_cast<char *>(&header), sizeof(header));
    if (!in || in.gcount() != sizeof(header)) {
        error = path + ": truncated header";
        return false;
    }
    if (header.magic != kImageMagic) {
        error = path + ": not a SpecPMT image file (bad magic)";
        return false;
    }
    image.resize(header.sizeBytes);
    in.read(reinterpret_cast<char *>(image.data()),
            static_cast<std::streamsize>(image.size()));
    if (!in || static_cast<std::uint64_t>(in.gcount()) !=
                   header.sizeBytes) {
        error = path + ": truncated payload (header promises " +
                std::to_string(header.sizeBytes) + " bytes)";
        return false;
    }
    return true;
}

std::unique_ptr<PmemDevice>
deviceFromImage(const std::vector<std::uint8_t> &image)
{
    // The device rounds its size up to a whole cache line; pad a
    // truncated (unaligned) image with zeros, which read back as tail
    // poison — exactly what a cut-off log should look like.
    const std::size_t rounded =
        std::max<std::size_t>(
            (image.size() + kCacheLineSize - 1) & ~(kCacheLineSize - 1),
            kCacheLineSize);
    auto dev = std::make_unique<PmemDevice>(rounded);
    auto padded = image;
    padded.resize(rounded, 0);
    dev->resetFromImage(padded);
    return dev;
}

} // namespace specpmt::pmem
