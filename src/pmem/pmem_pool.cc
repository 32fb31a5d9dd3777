#include "pmem/pmem_pool.hh"

#include "common/logging.hh"

namespace specpmt::pmem
{

PoolExhausted::PoolExhausted(std::size_t need, PmOff at,
                             std::size_t capacity)
    : std::runtime_error("pmem pool exhausted: need " +
                         std::to_string(need) + " bytes at " +
                         std::to_string(at) + " (capacity " +
                         std::to_string(capacity) + ")"),
      need_(need), capacity_(capacity)
{
}

PmemPool::PmemPool(PmemDevice &device)
    : device_(device), freeLists_(kNumClasses),
      bump_(kPageSize) // page 0 is the root directory
{
    SPECPMT_ASSERT(device_.size() > 2 * kPageSize);
}

unsigned
PmemPool::sizeClass(std::size_t size)
{
    std::size_t cls_bytes = kMinAlloc;
    for (unsigned cls = 0; cls < kNumClasses; ++cls) {
        if (size <= cls_bytes)
            return cls;
        cls_bytes <<= 1;
    }
    return kNumClasses; // large allocation, no class
}

std::size_t
PmemPool::classBytes(unsigned cls)
{
    return kMinAlloc << cls;
}

PmOff
PmemPool::alloc(std::size_t size)
{
    return allocAligned(size, kMinAlloc);
}

PmOff
PmemPool::allocAligned(std::size_t size, std::size_t alignment)
{
    SPECPMT_ASSERT(size > 0);
    SPECPMT_ASSERT((alignment & (alignment - 1)) == 0);
    if (alignment < kMinAlloc)
        alignment = kMinAlloc;

    std::lock_guard<std::mutex> guard(mutex_);

    const unsigned cls = sizeClass(size);
    PmOff off = kPmNull;

    if (cls < kNumClasses && alignment <= kMinAlloc &&
        !freeLists_[cls].empty()) {
        off = freeLists_[cls].back();
        freeLists_[cls].pop_back();
        live_[off] = classBytes(cls);
    } else {
        const std::size_t bytes =
            cls < kNumClasses ? classBytes(cls)
                              : ((size + kMinAlloc - 1) & ~(kMinAlloc - 1));
        PmOff start = (bump_ + alignment - 1) & ~(alignment - 1);
        if (start + bytes > device_.size())
            throw PoolExhausted(bytes, start, device_.size());
        bump_ = start + bytes;
        off = start;
        live_[off] = bytes;
    }

    bytesLive_ += live_[off];
    if (bytesLive_ > peakBytesLive_)
        peakBytesLive_ = bytesLive_;
    return off;
}

void
PmemPool::free(PmOff off)
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = live_.find(off);
    SPECPMT_ASSERT(it != live_.end());
    const std::size_t bytes = it->second;
    bytesLive_ -= bytes;
    live_.erase(it);
    const unsigned cls = sizeClass(bytes);
    if (cls < kNumClasses && classBytes(cls) == bytes)
        freeLists_[cls].push_back(off);
    // Large allocations are not recycled.
}

std::size_t
PmemPool::allocationSize(PmOff off) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = live_.find(off);
    SPECPMT_ASSERT(it != live_.end());
    return it->second;
}

std::size_t
PmemPool::bytesAllocated() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return bytesLive_;
}

std::size_t
PmemPool::peakBytesAllocated() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return peakBytesLive_;
}

void
PmemPool::setRoot(unsigned slot, PmOff value)
{
    SPECPMT_ASSERT(slot < kRootSlots);
    const PmOff addr = slot * sizeof(PmOff);
    device_.storeT<PmOff>(addr, value);
    device_.clwb(addr, TrafficClass::Meta);
    device_.sfence();
}

PmOff
PmemPool::getRoot(unsigned slot) const
{
    SPECPMT_ASSERT(slot < kRootSlots);
    return device_.loadT<PmOff>(slot * sizeof(PmOff));
}

void
PmemPool::adopt(PmOff off, std::size_t size)
{
    std::lock_guard<std::mutex> guard(mutex_);
    SPECPMT_ASSERT(off != kPmNull && size > 0);
    if (auto it = live_.find(off); it != live_.end()) {
        // Already known (recover() without an intervening re-open).
        // An adopter working from the on-media structure knows only
        // the payload size, which the original allocation may have
        // rounded up to its size class.
        SPECPMT_ASSERT(it->second >= size);
        return;
    }
    live_[off] = size;
    bytesLive_ += size;
    if (bytesLive_ > peakBytesLive_)
        peakBytesLive_ = bytesLive_;
    if (off + size > bump_)
        bump_ = off + size;
}

void
PmemPool::reserveBelow(PmOff watermark)
{
    std::lock_guard<std::mutex> guard(mutex_);
    SPECPMT_ASSERT(watermark <= device_.size());
    if (watermark > bump_)
        bump_ = watermark;
    // Free-list entries below the watermark would defeat it.
    for (auto &list : freeLists_)
        list.clear();
}

void
PmemPool::reopenAfterCrash()
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (auto &list : freeLists_)
        list.clear();
    live_.clear();
    bytesLive_ = 0;
    // The bump pointer is left where it was: recovery must be able to
    // read pre-crash data, and new allocations must not overwrite it.
}

} // namespace specpmt::pmem
