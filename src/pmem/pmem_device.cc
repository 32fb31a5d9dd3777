#include "pmem/pmem_device.hh"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <limits>
#include <new>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/rand.hh"
#include "obs/metrics.hh"
#include "obs/trace_context.hh"

namespace specpmt::pmem
{

namespace
{

/**
 * Process-wide device traffic counters, aggregated over every device
 * instance (per-instance exact counts stay in DeviceStats). The data
 * path never touches these: each device bumps its plain DeviceStats
 * members and publishMetrics() flushes the delta in bulk, so the
 * emulated-store fast path pays nothing for the registry.
 */
struct DeviceMetrics
{
    obs::Counter &stores;
    obs::Counter &storeBytes;
    obs::Counter &loads;
    std::array<obs::Counter *, 3> clwbs; ///< indexed by TrafficClass
    obs::Counter &fences;
    obs::Counter &crashes;
    obs::Counter &mediaReadErrors;
    obs::Counter &mediaWriteErrors;
    obs::Counter &mediaPoisonInjected;
    obs::Counter &mediaEioInjected;
    obs::Counter &mediaCorruptInjected;

    static DeviceMetrics &
    get()
    {
        auto &reg = obs::Registry::global();
        static DeviceMetrics m{
            reg.counter("specpmt_pmem_stores_total",
                        "stores issued to emulated PM"),
            reg.counter("specpmt_pmem_store_bytes_total",
                        "bytes stored to emulated PM"),
            reg.counter("specpmt_pmem_loads_total",
                        "loads from emulated PM"),
            {&reg.counter("specpmt_pmem_clwbs_total",
                          "effective cache-line flushes by traffic class",
                          {{"class", "data"}}),
             &reg.counter("specpmt_pmem_clwbs_total", {},
                          {{"class", "log"}}),
             &reg.counter("specpmt_pmem_clwbs_total", {},
                          {{"class", "meta"}})},
            reg.counter("specpmt_pmem_fences_total",
                        "store fences (persist barriers)"),
            reg.counter("specpmt_pmem_crashes_total",
                        "simulated crashes / image resets"),
            reg.counter("specpmt_pm_media_read_errors_total",
                        "loads rejected by a poisoned media line"),
            reg.counter("specpmt_pm_media_write_errors_total",
                        "stores rejected by an EIO media line"),
            reg.counter("specpmt_pm_media_faults_injected_total",
                        "media-fault lines installed by fault plans",
                        {{"kind", "poison"}}),
            reg.counter("specpmt_pm_media_faults_injected_total", {},
                        {{"kind", "eio"}}),
            reg.counter("specpmt_pm_media_faults_injected_total", {},
                        {{"kind", "corrupt"}}),
        };
        return m;
    }
};

/**
 * Per-thread media-fault suppression depth (see MediaFaultSuppress).
 * Thread-local so a worker aborting a transaction never masks faults
 * for concurrently running transactions on other threads.
 */
thread_local int t_mediaSuppress = 0;

/**
 * Charge one effective line flush to the calling thread's PM cost
 * vector (obs::TraceContext), next to the DeviceStats bump: a few
 * thread-local adds, so the cost of a traced request's flushes is
 * known per thread without touching the registry on the data path.
 */
void
chargeFlush(TrafficClass cls)
{
    auto &cost = obs::traceContext().cost;
    ++cost.flushes;
    cost.flushBytes += kCacheLineSize;
    switch (cls) {
      case TrafficClass::Data:
        ++cost.flushesData;
        break;
      case TrafficClass::Log:
        ++cost.flushesLog;
        break;
      case TrafficClass::Meta:
        ++cost.flushesMeta;
        break;
    }
}

constexpr std::size_t kPageBytes = 4096;
constexpr std::size_t kHugePageBytes = 2u << 20;

std::size_t
alignUp(std::size_t bytes, std::size_t align)
{
    return (bytes + align - 1) & ~(align - 1);
}

/**
 * Map @p bytes (whole pages) of anonymous memory on a 2 MiB boundary,
 * advise it for transparent huge pages, and fault every page in before
 * returning, so that no later access to it faults. Each whole 2 MiB
 * extent can get a huge page; a tail past the last one gets 4 KiB
 * pages. The memory reads as zero. Throws std::bad_alloc when it
 * cannot be had.
 */
std::uint8_t *
mapResident(std::size_t bytes)
{
    // Over-map by one huge page, then trim both ends to the boundary.
    void *map = ::mmap(nullptr, bytes + kHugePageBytes,
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
    if (map == MAP_FAILED)
        throw std::bad_alloc();
    auto *start = static_cast<std::uint8_t *>(map);
    auto *base = reinterpret_cast<std::uint8_t *>(alignUp(
        reinterpret_cast<std::uintptr_t>(start), kHugePageBytes));
    const std::size_t head = static_cast<std::size_t>(base - start);
    if (head != 0)
        ::munmap(start, head);
    ::munmap(base + bytes, kHugePageBytes - head);

    // Best effort: without THP support the pages are simply 4 KiB.
    ::madvise(base, bytes, MADV_HUGEPAGE);
    if (::madvise(base, bytes, MADV_POPULATE_WRITE) != 0) {
        if (errno == ENOMEM) {
            ::munmap(base, bytes);
            throw std::bad_alloc();
        }
        // A kernel without MADV_POPULATE_WRITE (EINVAL): take the
        // faults here by writing one byte per page.
        volatile std::uint8_t *bytesAt = base;
        for (std::size_t off = 0; off < bytes; off += kPageBytes)
            bytesAt[off] = 0;
    }
    return base;
}

/** add(current - published) and advance published; for bulk flushes. */
void
flushDelta(obs::Counter &counter, std::uint64_t current,
           std::uint64_t &published)
{
    if (current != published) {
        counter.add(current - published);
        published = current;
    }
}

// An unlocked load checks the counters of its first and last page.
static_assert(PmemDevice::kUnlockedLoadBytes <= kPageBytes);

/** Unit of the volatile image's atomic accesses. */
constexpr std::size_t kWordBytes = sizeof(std::uint64_t);

/** The aligned 8-byte word of @p image at @p at, for atomic access. */
std::atomic_ref<std::uint64_t>
imageWord(std::uint8_t *image, PmOff at)
{
    return std::atomic_ref<std::uint64_t>(
        *reinterpret_cast<std::uint64_t *>(image + at));
}

/**
 * Load slots are numbered process-wide, so a thread has the same one
 * on every device. Bit i of g_freeLoadSlots is set while slot i is
 * free. A thread takes the lowest free slot at its first load and
 * gives it back when it exits; a slot's totals then pass to the next
 * thread that takes it, the release and acquire ordering the handover.
 */
static_assert(PmemDevice::kLoadSlots <= 64);
std::atomic<std::uint64_t> g_freeLoadSlots{~std::uint64_t{0}};

/** t_loadSlot when the thread holds no slot and will not ask again. */
constexpr unsigned kNoLoadSlot = PmemDevice::kLoadSlots;
/** t_loadSlot before the thread's first load. */
constexpr unsigned kLoadSlotUnasked = kNoLoadSlot + 1;
thread_local unsigned t_loadSlot = kLoadSlotUnasked;

/**
 * Gives the calling thread's slot back when the thread exits; loads
 * that run later in the thread's exit take the lock.
 */
struct LoadSlotRelease
{
    ~LoadSlotRelease()
    {
        if (t_loadSlot < kNoLoadSlot)
            g_freeLoadSlots.fetch_or(std::uint64_t{1} << t_loadSlot,
                                     std::memory_order_release);
        t_loadSlot = kNoLoadSlot;
    }
};

/** Take the lowest free slot for the calling thread, or none. */
unsigned
takeLoadSlot()
{
    thread_local LoadSlotRelease release;
    (void)release;
    t_loadSlot = kNoLoadSlot;
    std::uint64_t free = g_freeLoadSlots.load(std::memory_order_relaxed);
    while (free != 0) {
        const auto slot = static_cast<unsigned>(std::countr_zero(free));
        if (g_freeLoadSlots.compare_exchange_weak(
                free, free & ~(std::uint64_t{1} << slot),
                std::memory_order_acquire, std::memory_order_relaxed)) {
            t_loadSlot = slot;
            break;
        }
    }
    return t_loadSlot;
}

} // namespace

const char *
mediaErrorKindName(MediaErrorKind kind)
{
    switch (kind) {
      case MediaErrorKind::PoisonedRead:
        return "poisoned-read";
      case MediaErrorKind::WriteEio:
        return "write-eio";
    }
    return "?";
}

MediaError::MediaError(MediaErrorKind kind, PmOff off)
    : std::runtime_error(std::string("pm media error: ") +
                         mediaErrorKindName(kind) + " at offset " +
                         std::to_string(off)),
      kind_(kind), off_(off)
{
}

MediaFaultSuppress::MediaFaultSuppress()
{
    ++t_mediaSuppress;
}

MediaFaultSuppress::~MediaFaultSuppress()
{
    --t_mediaSuppress;
}

PmemDevice::PmemDevice(std::size_t size, const TimingParams &params)
    : size_(alignUp(size, kCacheLineSize)), lines_(size_ / kCacheLineSize),
      timing_(params)
{
    SPECPMT_ASSERT(size_ > 0);
    SPECPMT_ASSERT(lines_ < std::numeric_limits<std::uint32_t>::max());
    // Fresh anonymous memory is zero, the initial state of all five
    // arrays: two images, the dirty flags, the pending slots and the
    // page counters.
    const std::size_t imageBytes = alignUp(size_, kPageBytes);
    const std::size_t dirtyBytes = alignUp(lines_, kPageBytes);
    const std::size_t pendingBytes =
        alignUp(lines_ * sizeof(std::uint32_t), kPageBytes);
    mappingBytes_ = alignUp(2 * imageBytes + dirtyBytes + pendingBytes +
                                imageBytes / kPageBytes *
                                    sizeof(std::uint32_t),
                            kPageBytes);
    volatileImage_ = mapResident(mappingBytes_);
    persistentImage_ = volatileImage_ + imageBytes;
    dirty_ = persistentImage_ + imageBytes;
    pendingSlot_ = reinterpret_cast<std::uint32_t *>(dirty_ + dirtyBytes);
    pageSeq_ = reinterpret_cast<std::uint32_t *>(dirty_ + dirtyBytes +
                                                 pendingBytes);
}

PmemDevice::PmemDevice(std::size_t size, const std::string &backingPath,
                       const TimingParams &params)
    : PmemDevice(size, params)
{
    backingFd_ = ::open(backingPath.c_str(), O_RDWR | O_CREAT, 0644);
    if (backingFd_ < 0)
        SPECPMT_FATAL("cannot open pm backing file %s",
                      backingPath.c_str());
    struct stat st;
    if (::fstat(backingFd_, &st) != 0)
        SPECPMT_FATAL("cannot stat pm backing file %s",
                      backingPath.c_str());
    hadExistingData_ = st.st_size == static_cast<off_t>(size_);
    if (!hadExistingData_ &&
        ::ftruncate(backingFd_, static_cast<off_t>(size_)) != 0)
        SPECPMT_FATAL("cannot size pm backing file %s",
                      backingPath.c_str());
    void *map = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                       MAP_SHARED, backingFd_, 0);
    if (map == MAP_FAILED)
        SPECPMT_FATAL("cannot mmap pm backing file %s",
                      backingPath.c_str());
    backingMap_ = static_cast<std::uint8_t *>(map);
    if (hadExistingData_) {
        // Re-open: the mirrored image IS the persistent state the
        // previous process left behind (page cache survives SIGKILL).
        std::memcpy(persistentImage_, backingMap_, size_);
        std::memcpy(volatileImage_, backingMap_, size_);
    } else {
        std::memset(backingMap_, 0, size_);
    }
}

PmemDevice::~PmemDevice()
{
    publishMetrics();
    if (backingMap_ != nullptr)
        ::munmap(backingMap_, size_);
    if (backingFd_ >= 0)
        ::close(backingFd_);
    ::munmap(volatileImage_, mappingBytes_);
}

void
PmemDevice::mirrorLine(std::uint64_t line)
{
    if (backingMap_ != nullptr) {
        std::memcpy(backingMap_ + line * kCacheLineSize,
                    persistentImage_ + line * kCacheLineSize,
                    kCacheLineSize);
    }
}

void
PmemDevice::mirrorAll()
{
    if (backingMap_ != nullptr) {
        std::memcpy(backingMap_, persistentImage_, size_);
    }
}

void
PmemDevice::checkMediaLines(
    const std::unordered_set<std::uint64_t> &lines, MediaErrorKind kind,
    PmOff off, std::size_t size) const
{
    if (lines.empty() || t_mediaSuppress > 0)
        return;
    const std::uint64_t first = lineIndex(off);
    const std::uint64_t last = lineIndex(off + size - 1);
    for (std::uint64_t line = first; line <= last; ++line) {
        if (lines.count(line)) {
            auto *self = const_cast<PmemDevice *>(this);
            if (kind == MediaErrorKind::PoisonedRead)
                ++self->stats_.mediaReadErrors;
            else
                ++self->stats_.mediaWriteErrors;
            throw MediaError(kind, line * kCacheLineSize);
        }
    }
}

void
PmemDevice::applyFaultPlan(const FaultPlan &plan)
{
    auto &m = DeviceMetrics::get();
    std::lock_guard<SpinLock> guard(lock_);
    poisonLines_.clear();
    eioLines_.clear();
    const std::uint64_t firstLine = lineIndex(plan.regionStart);
    const PmOff end =
        plan.regionEnd == 0 ? static_cast<PmOff>(size_) : plan.regionEnd;
    SPECPMT_ASSERT(end > plan.regionStart);
    const std::uint64_t endLine = lineIndex(end - 1) + 1;
    const std::uint64_t span = endLine - firstLine;
    Rng rng(plan.seed);

    auto draw = [&](std::unordered_set<std::uint64_t> &into,
                    std::size_t want) {
        want = std::min<std::size_t>(want, span);
        // Bounded rejection sampling; deterministic for a given seed.
        std::size_t attempts = 0;
        while (into.size() < want && attempts < want * 64 + 64) {
            into.insert(firstLine + rng.below(span));
            ++attempts;
        }
    };
    draw(poisonLines_, plan.poisonLines);
    draw(eioLines_, plan.eioLines);
    poisonArmed_.store(!poisonLines_.empty(), std::memory_order_release);

    // Latent corruption targets lines that actually hold data, so the
    // flip has a CRC seal to defeat; flipping all-zero scratch space
    // would never surface anywhere.
    std::size_t corrupted = 0;
    if (plan.corruptLines > 0) {
        std::vector<std::uint64_t> nonzero;
        for (std::uint64_t line = firstLine; line < endLine; ++line) {
            const std::uint8_t *p =
                persistentImage_ + line * kCacheLineSize;
            bool any = false;
            for (std::size_t i = 0; i < kCacheLineSize; ++i)
                if (p[i] != 0) {
                    any = true;
                    break;
                }
            if (any)
                nonzero.push_back(line);
        }
        std::unordered_set<std::uint64_t> picked;
        std::size_t attempts = 0;
        while (!nonzero.empty() && picked.size() < plan.corruptLines &&
               attempts < plan.corruptLines * 64 + 64) {
            ++attempts;
            const std::uint64_t line =
                nonzero[rng.below(nonzero.size())];
            if (!picked.insert(line).second)
                continue;
            const std::size_t byte = rng.below(kCacheLineSize);
            const unsigned bit = static_cast<unsigned>(rng.below(8));
            persistentImage_[line * kCacheLineSize + byte] ^=
                static_cast<std::uint8_t>(1u << bit);
            mirrorLine(line);
            staleLines_.push_back(line);
            ++corrupted;
        }
    }

    m.mediaPoisonInjected.add(poisonLines_.size());
    m.mediaEioInjected.add(eioLines_.size());
    m.mediaCorruptInjected.add(corrupted);
}

void
PmemDevice::clearFaultPlan()
{
    std::lock_guard<SpinLock> guard(lock_);
    poisonLines_.clear();
    eioLines_.clear();
    poisonArmed_.store(false, std::memory_order_release);
}

void
PmemDevice::publishMetrics()
{
    auto &m = DeviceMetrics::get();
    foldAllLoads();
    std::lock_guard<SpinLock> guard(lock_);
    flushDelta(m.stores, stats_.stores, published_.stores);
    flushDelta(m.storeBytes, stats_.storeBytes, published_.storeBytes);
    flushDelta(m.loads, stats_.loads, published_.loads);
    for (unsigned cls = 0; cls < 3; ++cls)
        flushDelta(*m.clwbs[cls], stats_.clwbs[cls],
                   published_.clwbs[cls]);
    flushDelta(m.fences, stats_.fences, published_.fences);
    flushDelta(m.crashes, stats_.crashes, published_.crashes);
    flushDelta(m.mediaReadErrors, stats_.mediaReadErrors,
               published_.mediaReadErrors);
    flushDelta(m.mediaWriteErrors, stats_.mediaWriteErrors,
               published_.mediaWriteErrors);
    timing_.publishMetrics();
}

void
PmemDevice::checkRange(PmOff off, std::size_t size) const
{
    if (off + size > size_ || off + size < off) {
        SPECPMT_PANIC("pmem access out of range: off=%llu size=%zu cap=%zu",
                      static_cast<unsigned long long>(off), size, size_);
    }
}

void
PmemDevice::armCrash(long ops)
{
    armCrash(ops < 0 ? nullptr : std::make_shared<CrashCountdown>(ops));
}

void
PmemDevice::armCrash(std::shared_ptr<CrashCountdown> countdown)
{
    std::lock_guard<SpinLock> guard(lock_);
    countdown_ = std::move(countdown);
    crashThread_ = std::this_thread::get_id();
}

void
PmemDevice::injectFault(DeviceFault fault)
{
    std::lock_guard<SpinLock> guard(lock_);
    fault_ = fault;
}

std::uint64_t
PmemDevice::persistEventId() const
{
    std::lock_guard<SpinLock> guard(lock_);
    return persistEvents_;
}

void
PmemDevice::maybeCrash()
{
    ++persistEvents_;
    if (!countdown_ || std::this_thread::get_id() != crashThread_)
        return;
    // Only the arming thread reaches this point, so plain relaxed
    // load/store on the (possibly device-shared) counter is race-free.
    const long remaining =
        countdown_->remaining.load(std::memory_order_relaxed);
    if (remaining < 0)
        return;
    if (remaining == 0) {
        countdown_->remaining.store(-1, std::memory_order_relaxed);
        countdown_->fired.store(true, std::memory_order_relaxed);
        countdown_->firedEventId.store(persistEvents_,
                                       std::memory_order_relaxed);
        countdown_.reset();
        throw SimulatedCrash();
    }
    countdown_->remaining.store(remaining - 1,
                                std::memory_order_relaxed);
}

void
PmemDevice::markDirty(std::uint64_t line)
{
    if (!dirty_[line]) {
        dirty_[line] = 1;
        ++dirtyCount_;
    }
}

void
PmemDevice::clearDirty(std::uint64_t line)
{
    if (dirty_[line]) {
        dirty_[line] = 0;
        --dirtyCount_;
    }
}

template <typename Fn>
void
PmemDevice::forEachDirtyLine(Fn fn) const
{
    // memchr skips clean runs a vector at a time, and the walk stops
    // after the last dirty line rather than at the device end.
    const std::uint8_t *base = dirty_;
    const std::uint8_t *end = base + lines_;
    const std::uint8_t *at = base;
    for (std::size_t left = dirtyCount_; left > 0; --left, ++at) {
        at = static_cast<const std::uint8_t *>(
            std::memchr(at, 1, static_cast<std::size_t>(end - at)));
        fn(static_cast<std::uint64_t>(at - base));
    }
}

void
PmemDevice::snapshotLine(std::uint64_t line)
{
    std::uint32_t &slot = pendingSlot_[line];
    if (slot == 0) {
        pending_.push_back({line, 0, false});
        slot = static_cast<std::uint32_t>(pending_.size());
    } else {
        pending_[slot - 1].copied = false; // the image holds them again
    }
}

void
PmemDevice::keepPendingBytes(std::uint64_t line)
{
    const std::uint32_t slot = pendingSlot_[line];
    if (slot == 0 || pending_[slot - 1].copied)
        return;
    PendingLine &pending = pending_[slot - 1];
    if (pending.copy == 0) {
        pendingCopies_.emplace_back();
        pending.copy = static_cast<std::uint32_t>(pendingCopies_.size());
    }
    std::memcpy(pendingCopies_[pending.copy - 1].data(),
                volatileImage_ + line * kCacheLineSize, kCacheLineSize);
    pending.copied = true;
}

const std::uint8_t *
PmemDevice::pendingBytes(const PendingLine &pending) const
{
    return pending.copied ? pendingCopies_[pending.copy - 1].data()
                          : volatileImage_ + pending.line * kCacheLineSize;
}

void
PmemDevice::dropPending(std::uint64_t line)
{
    const std::uint32_t slot = pendingSlot_[line];
    if (slot == 0)
        return;
    // Move the last entry into the freed slot; a copy slot the line
    // owned stays unused until the next fence.
    pending_[slot - 1] = pending_.back();
    pendingSlot_[pending_.back().line] = slot;
    pendingSlot_[line] = 0;
    pending_.pop_back();
}

void
PmemDevice::promotePending()
{
    for (const PendingLine &pending : pending_) {
        std::memcpy(persistentImage_ +
                        pending.line * kCacheLineSize,
                    pendingBytes(pending), kCacheLineSize);
        mirrorLine(pending.line);
        pendingSlot_[pending.line] = 0;
    }
    pending_.clear();
    pendingCopies_.clear();
}

void
PmemDevice::clearLineState()
{
    forEachDirtyLine([&](std::uint64_t line) { dirty_[line] = 0; });
    dirtyCount_ = 0;
    for (const PendingLine &pending : pending_)
        pendingSlot_[pending.line] = 0;
    pending_.clear();
    pendingCopies_.clear();
    staleLines_.clear();
}

void
PmemDevice::accountFlush(std::uint64_t line, TrafficClass cls)
{
    ++stats_.clwbs[static_cast<unsigned>(cls)];
    chargeFlush(cls);
    foldCallerLoads(); // the flush reads the clock
    if (timed())
        timing_.onClwb(line);
    else if (timedThreadOnly_.load(std::memory_order_relaxed))
        timing_.onClwbAsync(line);
}

void
PmemDevice::foldLoads(unsigned index)
{
    const LoadSlot &slot = loadSlots_[index];
    FoldedLoads &folded = folded_[index];
    const std::uint64_t loads = slot.loads.load(std::memory_order_relaxed);
    const std::uint64_t lines = slot.lines.load(std::memory_order_relaxed);
    stats_.loads += loads - folded.loads;
    folded.loads = loads;
    if (lines != folded.lines) {
        timing_.onLoad(lines - folded.lines);
        folded.lines = lines;
    }
}

void
PmemDevice::foldCallerLoads()
{
    const unsigned slot = t_loadSlot;
    if (slot < loadSlotsOpen_.load(std::memory_order_relaxed))
        foldLoads(slot);
}

void
PmemDevice::foldAllLoads() const
{
    auto *self = const_cast<PmemDevice *>(this);
    std::lock_guard<SpinLock> guard(lock_);
    const unsigned open = loadSlotsOpen_.load(std::memory_order_relaxed);
    for (unsigned slot = 0; slot < open; ++slot)
        self->foldLoads(slot);
}

// Inlined into store(), the hot caller.
[[gnu::always_inline]] inline void
PmemDevice::writeVolatile(PmOff off, const void *src, std::size_t size)
{
    std::uint32_t *const counters = pageSeq_;
    const std::uint64_t first = off / kPageBytes;
    const std::uint64_t last = (off + size - 1) / kPageBytes;
    for (std::uint64_t page = first; page <= last; ++page) {
        std::atomic_ref<std::uint32_t> seq(counters[page]);
        seq.store(seq.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    }
    // Release stores: a load that reads a new word also reads its
    // page's counter odd, or later. A partial word at either end is
    // read, merged and written whole; the lock keeps other writers
    // out of it.
    std::uint8_t *const image = volatileImage_;
    const auto *in = static_cast<const std::uint8_t *>(src);
    PmOff at = off;
    std::size_t left = size;
    auto partialWord = [&](std::size_t lead, std::size_t bytes) {
        auto word = imageWord(image, at - lead);
        std::uint64_t value = word.load(std::memory_order_relaxed);
        std::memcpy(reinterpret_cast<std::uint8_t *>(&value) + lead, in,
                    bytes);
        word.store(value, std::memory_order_release);
        at += bytes;
        in += bytes;
        left -= bytes;
    };
    if (const std::size_t lead = at % kWordBytes; lead != 0)
        partialWord(lead, std::min(kWordBytes - lead, left));
    for (; left >= kWordBytes;
         at += kWordBytes, in += kWordBytes, left -= kWordBytes) {
        std::uint64_t value;
        std::memcpy(&value, in, kWordBytes);
        imageWord(image, at).store(value, std::memory_order_release);
    }
    if (left != 0)
        partialWord(0, left);
    for (std::uint64_t page = first; page <= last; ++page) {
        std::atomic_ref<std::uint32_t> seq(counters[page]);
        seq.store(seq.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
    }
}

void
PmemDevice::store(PmOff off, const void *src, std::size_t size)
{
    if (size == 0)
        return; // avoid memcpy(nullptr) UB and line-index underflow
    std::lock_guard<SpinLock> guard(lock_);
    maybeCrash();
    checkRange(off, size);
    checkMediaLines(eioLines_, MediaErrorKind::WriteEio, off, size);
    const std::uint64_t first = lineIndex(off);
    const std::uint64_t last = lineIndex(off + size - 1);
    const bool any_pending = !pending_.empty();
    for (std::uint64_t line = first; line <= last; ++line) {
        if (any_pending)
            keepPendingBytes(line);
        markDirty(line);
    }
    writeVolatile(off, src, size);
    ++stats_.stores;
    stats_.storeBytes += size;
    if (timed())
        timing_.onStore(last - first + 1);
}

// Inlined into load(): its one caller, on the hot path.
[[gnu::always_inline]] inline bool
PmemDevice::loadUnlocked(PmOff off, void *dst, std::size_t size,
                         LoadSlot &slot) const
{
    checkRange(off, size);
    std::uint32_t *const counters = pageSeq_;
    std::uint8_t *const image = volatileImage_;
    auto seq = [counters](std::uint64_t page) {
        return std::atomic_ref<std::uint32_t>(counters[page]);
    };
    const std::uint64_t first = off / kPageBytes;
    const std::uint64_t last = (off + size - 1) / kPageBytes;
    const std::uint32_t firstSeq = seq(first).load(std::memory_order_acquire);
    const std::uint32_t lastSeq = seq(last).load(std::memory_order_acquire);
    if (((firstSeq | lastSeq) & 1) != 0)
        return false;
    // Whole aligned words, each one atomic access. The image is page
    // aligned and a whole number of lines long, so they stay inside
    // it. Acquire loads keep the counters' second read after them; a
    // torn copy in dst is overwritten by the retry under the lock.
    auto *out = static_cast<std::uint8_t *>(dst);
    PmOff at = off & ~PmOff{kWordBytes - 1};
    std::size_t left = size;
    auto partialWord = [&](std::size_t lead) {
        const std::uint64_t value =
            imageWord(image, at).load(std::memory_order_acquire);
        const std::size_t bytes = std::min(kWordBytes - lead, left);
        std::memcpy(out, reinterpret_cast<const std::uint8_t *>(&value) +
                             lead,
                    bytes);
        out += bytes;
        left -= bytes;
        at += kWordBytes;
    };
    if (const std::size_t lead = off - at; lead != 0)
        partialWord(lead);
    for (; left >= kWordBytes;
         out += kWordBytes, left -= kWordBytes, at += kWordBytes) {
        const std::uint64_t value =
            imageWord(image, at).load(std::memory_order_acquire);
        std::memcpy(out, &value, kWordBytes);
    }
    if (left != 0)
        partialWord(0);
    if (seq(first).load(std::memory_order_relaxed) != firstSeq ||
        seq(last).load(std::memory_order_relaxed) != lastSeq)
        return false;
    slot.loads.store(slot.loads.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    if (timed())
        slot.lines.store(slot.lines.load(std::memory_order_relaxed) +
                             lineSpan(off, size),
                         std::memory_order_relaxed);
    return true;
}

void
PmemDevice::load(PmOff off, void *dst, std::size_t size) const
{
    if (size == 0)
        return; // zero-length reads may pass a null buffer
    unsigned slot = t_loadSlot;
    if (slot == kLoadSlotUnasked)
        slot = takeLoadSlot();
    if (size <= kUnlockedLoadBytes &&
        slot < loadSlotsOpen_.load(std::memory_order_relaxed) &&
        !poisonArmed_.load(std::memory_order_acquire) &&
        loadUnlocked(off, dst, size, loadSlots_[slot]))
        return;
    loadLocked(off, dst, size, slot);
}

void
PmemDevice::loadLocked(PmOff off, void *dst, std::size_t size,
                       unsigned slot) const
{
    auto *self = const_cast<PmemDevice *>(this);
    std::lock_guard<SpinLock> guard(lock_);
    checkRange(off, size);
    checkMediaLines(poisonLines_, MediaErrorKind::PoisonedRead, off,
                    size);
    std::memcpy(dst, volatileImage_ + off, size);
    ++self->stats_.loads;
    if (timed())
        self->timing_.onLoad(lineSpan(off, size));
    // From now on the folds cover this thread's slot, so its later
    // loads may skip the lock.
    if (slot < kLoadSlots &&
        slot >= loadSlotsOpen_.load(std::memory_order_relaxed))
        self->loadSlotsOpen_.store(slot + 1, std::memory_order_relaxed);
}

void
PmemDevice::clwbLocked(PmOff off, TrafficClass cls)
{
    checkRange(off, 1);
    const std::uint64_t line = lineIndex(off);
    // clwb of a clean line is a no-op on real hardware (nothing to
    // write back); modelling it as free keeps runtimes honest about
    // redundant flushes without inflating their traffic counters.
    if (!dirty_[line])
        return;
    maybeCrash();
    snapshotLine(line);
    clearDirty(line);
    accountFlush(line, cls);
}

void
PmemDevice::clwb(PmOff off, TrafficClass cls)
{
    std::lock_guard<SpinLock> guard(lock_);
    clwbLocked(off, cls);
}

void
PmemDevice::clwbRange(PmOff off, std::size_t size, TrafficClass cls)
{
    if (size == 0)
        return;
    std::lock_guard<SpinLock> guard(lock_);
    const std::uint64_t first = lineIndex(off);
    const std::uint64_t last = lineIndex(off + size - 1);
    for (std::uint64_t line = first; line <= last; ++line)
        clwbLocked(line * kCacheLineSize, cls);
}

void
PmemDevice::sfence()
{
    std::lock_guard<SpinLock> guard(lock_);
    maybeCrash();
    if (fault_ != DeviceFault::DropFences)
        promotePending();
    ++stats_.fences;
    ++obs::traceContext().cost.fences;
    foldCallerLoads();
    if (timed())
        timing_.onSfence();
}

void
PmemDevice::ntstore(PmOff off, const void *src, std::size_t size,
                    TrafficClass cls)
{
    if (size == 0)
        return;
    std::lock_guard<SpinLock> guard(lock_);
    maybeCrash();
    checkRange(off, size);
    checkMediaLines(eioLines_, MediaErrorKind::WriteEio, off, size);
    writeVolatile(off, src, size);
    ++stats_.stores;
    stats_.storeBytes += size;
    const std::uint64_t first = lineIndex(off);
    const std::uint64_t last = lineIndex(off + size - 1);
    for (std::uint64_t line = first; line <= last; ++line) {
        snapshotLine(line);
        clearDirty(line);
        accountFlush(line, cls);
    }
}

void
PmemDevice::adrPersist(PmOff off, std::size_t size, TrafficClass cls)
{
    if (size == 0)
        return;
    std::lock_guard<SpinLock> guard(lock_);
    maybeCrash();
    checkRange(off, size);
    const std::uint64_t first = lineIndex(off);
    const std::uint64_t last = lineIndex(off + size - 1);
    for (std::uint64_t line = first; line <= last; ++line) {
        std::memcpy(persistentImage_ + line * kCacheLineSize,
                    volatileImage_ + line * kCacheLineSize,
                    kCacheLineSize);
        mirrorLine(line);
        clearDirty(line);
        dropPending(line);
        accountFlush(line, cls);
    }
}

template <typename Fn>
void
PmemDevice::forEachCrashWrite(const CrashPolicy &policy, Fn write) const
{
    Rng rng(policy.seed);
    auto persists = [&](void) -> bool {
        switch (policy.mode) {
          case CrashMode::NothingExtra:
            return false;
          case CrashMode::EverythingDrains:
            return true;
          case CrashMode::RandomSubset:
            return rng.chance(policy.persistProbability);
        }
        return false;
    };

    // Flushed-but-unfenced snapshots may have drained. Iterate in
    // ascending line order so RandomSubset draws are reproducible.
    std::vector<std::uint64_t> pending_lines;
    pending_lines.reserve(pending_.size());
    for (const PendingLine &pending : pending_)
        pending_lines.push_back(pending.line);
    std::sort(pending_lines.begin(), pending_lines.end());
    for (std::uint64_t line : pending_lines) {
        if (persists())
            write(line, pendingBytes(pending_[pendingSlot_[line] - 1]));
    }

    // Dirty lines may have been evicted with their current contents.
    forEachDirtyLine([&](std::uint64_t line) {
        if (persists())
            write(line, volatileImage_ + line * kCacheLineSize);
    });
}

std::vector<std::uint8_t>
PmemDevice::crashImage(const CrashPolicy &policy) const
{
    std::lock_guard<SpinLock> guard(lock_);
    std::vector<std::uint8_t> image(persistentImage_,
                                    persistentImage_ + size_);
    forEachCrashWrite(policy,
                      [&](std::uint64_t line, const std::uint8_t *bytes) {
                          std::memcpy(image.data() + line * kCacheLineSize,
                                      bytes, kCacheLineSize);
                      });
    return image;
}

void
PmemDevice::simulateCrash(const CrashPolicy &policy)
{
    std::lock_guard<SpinLock> guard(lock_);
    // In place: the persistent image takes the lines the policy lets
    // drain, then every line whose volatile bytes may differ from it
    // (dirty, pending or stale) collapses onto it. All other lines
    // already agree (DESIGN section 18).
    forEachCrashWrite(policy,
                      [&](std::uint64_t line, const std::uint8_t *bytes) {
                          std::memcpy(persistentImage_ +
                                          line * kCacheLineSize,
                                      bytes, kCacheLineSize);
                          mirrorLine(line);
                      });
    auto collapse = [&](std::uint64_t line) {
        writeVolatile(line * kCacheLineSize,
                      persistentImage_ + line * kCacheLineSize,
                      kCacheLineSize);
    };
    for (const PendingLine &pending : pending_)
        collapse(pending.line);
    forEachDirtyLine(collapse);
    for (std::uint64_t line : staleLines_)
        collapse(line);
    clearLineState();
    ++stats_.crashes;
}

void
PmemDevice::resetFromImage(const std::vector<std::uint8_t> &image)
{
    std::lock_guard<SpinLock> guard(lock_);
    SPECPMT_ASSERT(image.size() == size_);
    writeVolatile(0, image.data(), size_);
    std::memcpy(persistentImage_, image.data(), size_);
    mirrorAll();
    clearLineState();
    ++stats_.crashes;
}

void
PmemDevice::drainAll(TrafficClass cls)
{
    std::lock_guard<SpinLock> guard(lock_);
    forEachDirtyLine([&](std::uint64_t line) {
        clwbLocked(line * kCacheLineSize, cls);
    });
    promotePending();
    ++stats_.fences;
    ++obs::traceContext().cost.fences;
    foldCallerLoads();
    if (timed())
        timing_.onSfence();
}

bool
PmemDevice::isLineDirty(PmOff off) const
{
    std::lock_guard<SpinLock> guard(lock_);
    const std::uint64_t line = lineIndex(off);
    return line < lines_ && dirty_[line] != 0;
}

std::size_t
PmemDevice::dirtyLineCount() const
{
    std::lock_guard<SpinLock> guard(lock_);
    return dirtyCount_;
}

} // namespace specpmt::pmem
