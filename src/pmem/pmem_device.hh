/**
 * @file
 * Emulated persistent memory device with an explicit persistence
 * domain, the substrate every transaction runtime in this repository
 * is built on.
 *
 * The device keeps two byte images of the same address space:
 *
 *  - the *volatile image*: what the CPU observes through loads — the
 *    union of cache contents and memory;
 *  - the *persistent image*: what is guaranteed to survive a power
 *    failure under ADR semantics.
 *
 * Stores modify the volatile image and mark cache lines dirty. clwb
 * snapshots the current line contents into a pending set (the write
 * heads toward the write pending queue). sfence promotes every pending
 * snapshot into the persistent image — only then is the data durable
 * under *all* crash scenarios. A simulated crash keeps the persistent
 * image and lets a CrashPolicy decide, line by line, whether unfenced
 * state (dirty lines, pending snapshots) also made it out — exactly
 * the nondeterminism real hardware exposes.
 *
 * This model is deliberately conservative: on real ADR hardware a
 * retired clwb will eventually drain even without a fence, but no
 * ordering is guaranteed, so treating unfenced flushes as "maybe
 * persisted" covers every real interleaving.
 */

#ifndef SPECPMT_PMEM_PMEM_DEVICE_HH
#define SPECPMT_PMEM_PMEM_DEVICE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/spin_lock.hh"
#include "common/types.hh"
#include "pmem/crash_policy.hh"
#include "pmem/pmem_timing.hh"

namespace specpmt::pmem
{

/** Purpose tag for persistence traffic, for per-figure accounting. */
enum class TrafficClass : std::uint8_t
{
    Data = 0,
    Log = 1,
    Meta = 2,
};

/**
 * Thrown by the device when an armed crash countdown expires; the
 * "power failed" signal for crash-injection tests. The operation that
 * tripped the countdown is NOT applied.
 */
class SimulatedCrash : public std::exception
{
  public:
    const char *
    what() const noexcept override
    {
        return "simulated power failure";
    }
};

/**
 * A crash countdown shared between the arming code and one or more
 * devices. Every persistence event performed by the arming thread
 * decrements @c remaining; the event that observes zero throws
 * SimulatedCrash and records its device-local event id.
 *
 * Sharing one countdown across several devices (the sharded KV
 * service's per-shard devices) makes the countdown index into the
 * *global* persistence-event sequence of the run, which is what
 * exhaustive crash-schedule exploration enumerates. After a run the
 * explorer reads back how many events were consumed, so one counted
 * pass bounds the whole crash-point space.
 */
struct CrashCountdown
{
    explicit CrashCountdown(long events)
        : armed(events), remaining(events)
    {
    }

    /** Persistence events consumed so far (all of them once fired). */
    std::uint64_t
    consumed() const
    {
        const long left = remaining.load(std::memory_order_relaxed);
        return static_cast<std::uint64_t>(armed - (left < 0 ? 0 : left));
    }

    /** Events allowed when armed; < 0 = disarmed. */
    const long armed;
    /** Events still allowed before the crash fires; < 0 = disarmed or
     * fired. */
    std::atomic<long> remaining;
    /** Set once the countdown expired and the crash was thrown. */
    std::atomic<bool> fired{false};
    /** Device-local persistence-event id at the firing operation. */
    std::atomic<std::uint64_t> firedEventId{0};
};

/**
 * Device-level fault injection, for validating that the crash
 * explorer actually catches consistency regressions (test-the-tester).
 */
enum class DeviceFault : std::uint8_t
{
    None = 0,
    /**
     * sfence retires (counts, advances the clock, can trip an armed
     * crash) but promotes nothing into the persistence domain —
     * the "dropped commit fence" regression.
     */
    DropFences,
};

/** What kind of media failure a device operation hit. */
enum class MediaErrorKind : std::uint8_t
{
    /** A load overlapped a poisoned line (uncorrectable read error). */
    PoisonedRead,
    /** A store overlapped a write-failed line; nothing was written. */
    WriteEio,
};

const char *mediaErrorKindName(MediaErrorKind kind);

/**
 * Thrown by the device data path when an operation overlaps a line
 * selected by the active FaultPlan. Unlike SimulatedCrash this is a
 * *survivable* error: the caller is expected to abort the enclosing
 * transaction (or quarantine the affected log segment) and keep
 * serving. The faulting operation is NOT applied.
 */
class MediaError : public std::runtime_error
{
  public:
    MediaError(MediaErrorKind kind, PmOff off);

    MediaErrorKind kind() const { return kind_; }
    /** Line-aligned offset of the faulting media line. */
    PmOff offset() const { return off_; }

  private:
    MediaErrorKind kind_;
    PmOff off_;
};

/**
 * A seeded, deterministic media-fault plan. applyFaultPlan() derives
 * the affected cache lines from @c seed with the repo's deterministic
 * Rng, so a scenario name + seed reproduces the exact same fault set
 * on every run (the property the specchaos matrix keys off).
 *
 * Three independent fault populations:
 *  - @c poisonLines: loads overlapping these lines throw
 *    MediaError(PoisonedRead) instead of returning data;
 *  - @c eioLines: stores overlapping these lines throw
 *    MediaError(WriteEio) and write nothing;
 *  - @c corruptLines: a single bit is flipped in the *persistent*
 *    image of each selected (non-zero) line — latent corruption that
 *    surfaces only at recovery, where the log CRC seals must catch it.
 */
struct FaultPlan
{
    std::uint64_t seed = 1;
    /** Number of lines to poison for reads. */
    std::size_t poisonLines = 0;
    /** Number of lines that fail writes with EIO. */
    std::size_t eioLines = 0;
    /** Number of persistent lines to latently bit-flip. */
    std::size_t corruptLines = 0;
    /** Fault region [regionStart, regionEnd); end 0 = device size. */
    PmOff regionStart = 0;
    PmOff regionEnd = 0;
};

/**
 * RAII scope under which media faults are NOT raised for the calling
 * thread: loads of poisoned lines return their bytes, stores to EIO
 * lines apply. Cleanup paths (transaction abort restoring pre-images,
 * tail poisoning, flight-recorder appends) run under this scope so a
 * media error can never wedge the abort that recovers from it.
 */
class MediaFaultSuppress
{
  public:
    MediaFaultSuppress();
    ~MediaFaultSuppress();
    MediaFaultSuppress(const MediaFaultSuppress &) = delete;
    MediaFaultSuppress &operator=(const MediaFaultSuppress &) = delete;
};

/** Aggregate event counters exposed by the device. */
struct DeviceStats
{
    std::uint64_t stores = 0;
    std::uint64_t storeBytes = 0;
    std::uint64_t loads = 0;
    std::uint64_t clwbs[3] = {0, 0, 0}; ///< indexed by TrafficClass
    std::uint64_t fences = 0;
    std::uint64_t crashes = 0;
    /** Loads rejected by a poisoned line (MediaError thrown). */
    std::uint64_t mediaReadErrors = 0;
    /** Stores rejected by an EIO line (MediaError thrown). */
    std::uint64_t mediaWriteErrors = 0;

    std::uint64_t
    totalClwbs() const
    {
        return clwbs[0] + clwbs[1] + clwbs[2];
    }
};

/**
 * The emulated device. Thread-safe, because software SpecPMT runs
 * worker threads alongside a background log reclaimer (DESIGN section
 * 17). Every entry point that writes device state (stores, flushes,
 * fences, crashes, fault plans) runs under one internal spin lock. A
 * load of up to kUnlockedLoadBytes takes no lock: it copies between
 * two reads of its pages' sequence counters, which every write of the
 * volatile image makes odd and then even again, and retries under the
 * lock if a writer got in between, so each load still sees each store
 * whole. It falls back to the lock while a fault plan poisons lines.
 * Its modelled time and count wait in the calling thread's load slot
 * until that thread's next flush or fence, or until stats(),
 * timing(), publishMetrics() or clearStats() folds every slot. The
 * views stats(), raw(), persistentRaw() and timing(), and the reset in
 * clearStats(), are exact only while no other thread uses the device.
 *
 * A flushed-but-unfenced line is kept by reference, as its index in the
 * pending set: its bytes are copied only when a store reaches the line
 * before the fence, and the fence otherwise promotes it from the
 * volatile image (DESIGN section 17).
 *
 * Both images, the per-line state and the page counters live in one
 * anonymous mapping that the constructor faults in whole, so no later
 * call takes a page fault on them (DESIGN section 20).
 */
class PmemDevice
{
  public:
    /** Largest load that may run without the device lock. */
    static constexpr std::size_t kUnlockedLoadBytes = 4 * kCacheLineSize;
    /**
     * Threads that can hold a load slot at once, process-wide; a
     * thread that finds none free loads under the lock.
     */
    static constexpr unsigned kLoadSlots = 64;

    /**
     * @param size    Device capacity in bytes (rounded up to a line).
     * @param params  Latency model parameters.
     * @throws std::bad_alloc when the memory cannot be had.
     */
    explicit PmemDevice(std::size_t size, const TimingParams &params = {});

    /**
     * File-backed variant: the persistent image is mirrored into an
     * mmap(MAP_SHARED) mapping of @p backingPath, so it survives even
     * a SIGKILL of the process (the page cache outlives the mapping).
     * If the file already holds a full image, both images are loaded
     * from it and hadExistingData() returns true — the re-open path a
     * restarted server uses to find its pre-kill state.
     */
    PmemDevice(std::size_t size, const std::string &backingPath,
               const TimingParams &params = {});

    /** Publishes any unflushed metric deltas; see publishMetrics(). */
    ~PmemDevice();

    PmemDevice(const PmemDevice &) = delete;
    PmemDevice &operator=(const PmemDevice &) = delete;

    /** Device capacity in bytes. */
    std::size_t size() const { return size_; }

    /** @name CPU-visible data path */
    /// @{

    /** Store @p size bytes at @p off (volatile until flushed+fenced). */
    void store(PmOff off, const void *src, std::size_t size);

    /** Load @p size bytes from @p off into @p dst. */
    void load(PmOff off, void *dst, std::size_t size) const;

    /** Typed store convenience. */
    template <typename T>
    void
    storeT(PmOff off, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        store(off, &value, sizeof(T));
    }

    /** Typed load convenience. */
    template <typename T>
    T
    loadT(PmOff off) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        load(off, &value, sizeof(T));
        return value;
    }

    /** Flush the cache line containing @p off toward the WPQ. */
    void clwb(PmOff off, TrafficClass cls = TrafficClass::Data);

    /** Flush every line overlapping [off, off+size). */
    void clwbRange(PmOff off, std::size_t size,
                   TrafficClass cls = TrafficClass::Data);

    /** Store fence: all previously flushed lines become durable. */
    void sfence();

    /**
     * Non-temporal store: bypasses the cache; the written lines head
     * straight for the WPQ (still requires sfence for a guarantee).
     */
    void ntstore(PmOff off, const void *src, std::size_t size,
                 TrafficClass cls = TrafficClass::Data);

    /**
     * Hardware-ordered persist: the lines overlapping [off, off+size)
     * enter the persistence domain immediately, with no fence.
     *
     * This models a hardware path that guarantees a write reaches the
     * ADR-protected write pending queue before any dependent later
     * store can retire — the ordering primitive hardware logging
     * schemes (EDE's dependency tracking, hardware SpecPMT's log
     * writes, Section 5) rely on. Software runtimes must NOT use it;
     * they only get clwb + sfence.
     */
    void adrPersist(PmOff off, std::size_t size,
                    TrafficClass cls = TrafficClass::Log);

    /** Charge pure computation time on the virtual clock. */
    void
    compute(SimNs ns)
    {
        std::lock_guard<SpinLock> guard(lock_);
        if (timed())
            timing_.compute(ns);
    }

    /**
     * Restrict the virtual clock to the calling thread. Background
     * helpers (SPHT's replayer, SpecPMT's reclaimer) run on dedicated
     * cores in the paper's methodology; with this set, their device
     * operations still count in the traffic statistics but do not
     * advance the measured thread's clock.
     */
    void
    timeOnlyCallingThread()
    {
        std::lock_guard<SpinLock> guard(lock_);
        timedThread_.store(std::this_thread::get_id(),
                           std::memory_order_relaxed);
        timedThreadOnly_.store(true, std::memory_order_relaxed);
    }

    /// @}

    /** @name Crash machinery */
    /// @{

    /**
     * Compute the post-crash memory image under @p policy without
     * modifying the device, so tests can sweep many policies from a
     * single execution point. It copies the whole device; it is the
     * tests' reference for simulateCrash(), which is what crash
     * exploration uses.
     */
    std::vector<std::uint8_t> crashImage(const CrashPolicy &policy) const;

    /**
     * Simulate a power failure: the volatile state collapses to the
     * crash image, all cache/WPQ state is lost. Leaves both images
     * equal to crashImage(@p policy), but works in place: it costs the
     * dirty, pending and stale lines, not the device size.
     */
    void simulateCrash(const CrashPolicy &policy);

    /** Reset both images from an externally captured crash image. */
    void resetFromImage(const std::vector<std::uint8_t> &image);

    /**
     * Flush and fence every dirty line (clean shutdown / mode switch,
     * Section 4.3.1's wbnoinvd analog).
     */
    void drainAll(TrafficClass cls = TrafficClass::Data);

    /// @}

    /**
     * Arm a crash for the *calling thread*: after @p ops further
     * persistence-relevant operations (stores, effective flushes,
     * fences) from this thread, the device throws SimulatedCrash.
     * Other threads are unaffected. Pass a negative value to disarm.
     */
    void armCrash(long ops);

    /**
     * Arm with an external countdown, which may be shared with other
     * devices so it indexes the combined persistence-event sequence
     * (see CrashCountdown). Only events from the calling thread
     * decrement it. Pass nullptr to disarm.
     */
    void armCrash(std::shared_ptr<CrashCountdown> countdown);

    /**
     * Inject a persistence fault (see DeviceFault). Used by the crash
     * explorer's self-test to prove injected consistency regressions
     * are detected; production code paths never call this.
     */
    void injectFault(DeviceFault fault);

    /**
     * Derive and install the media-fault line sets for @p plan (see
     * FaultPlan). Replaces any previous plan; latent corruption is
     * applied to the persistent image immediately. Deterministic for
     * a given (plan, image) pair.
     */
    void applyFaultPlan(const FaultPlan &plan);

    /** Remove every installed media fault (latent flips stay). */
    void clearFaultPlan();

    /** True when the device was opened over a pre-existing image. */
    bool hadExistingData() const { return hadExistingData_; }

    /** @name Introspection */
    /// @{

    /** Direct read-only view of the volatile image. */
    const std::uint8_t *raw() const { return volatileImage_; }

    /** Direct read-only view of the persistent image. */
    const std::uint8_t *persistentRaw() const { return persistentImage_; }

    /** True if the line containing @p off has unflushed stores. */
    bool isLineDirty(PmOff off) const;

    /** Number of currently dirty lines. */
    std::size_t dirtyLineCount() const;

    /**
     * Monotonically increasing persistence-event id: the number of
     * persistence-relevant operations (stores, effective flushes,
     * fences, nt-stores, hardware persists) the device has executed,
     * from any thread. Crash-schedule exploration keys replay tokens
     * off this sequence.
     */
    std::uint64_t persistEventId() const;

    /** Event counters, every load slot folded in. */
    const DeviceStats &
    stats() const
    {
        foldAllLoads();
        return stats_;
    }

    /** Zero the event counters (images unaffected). */
    void
    clearStats()
    {
        publishMetrics(); // keep registry totals before the reset
        stats_ = DeviceStats{};
        published_ = DeviceStats{};
    }

    /**
     * Flush this device's traffic counters (and its timing model's
     * attribution) into the process-wide metrics registry as a bulk
     * delta. The data-path hot paths only bump the plain DeviceStats
     * members; the registry catches up here — on destruction,
     * clearStats(), or an explicit call before a snapshot.
     */
    void publishMetrics();

    /** The virtual clock / latency model, every load slot folded in. */
    PmemTiming &
    timing()
    {
        foldAllLoads();
        return timing_;
    }
    const PmemTiming &
    timing() const
    {
        foldAllLoads();
        return timing_;
    }

    /// @}

  private:
    /**
     * A thread's unlocked loads on this device: how many, and how many
     * lines they charged to the clock. Only the owning thread writes
     * the line (a plain load and store, no read-modify-write); a fold
     * under the lock adds what grew since the last fold to stats_ and
     * timing_.
     */
    struct alignas(64) LoadSlot
    {
        std::atomic<std::uint64_t> loads{0};
        std::atomic<std::uint64_t> lines{0};
    };

    /** A load slot's totals at its last fold. */
    struct FoldedLoads
    {
        std::uint64_t loads = 0;
        std::uint64_t lines = 0;
    };

    /**
     * A flushed-but-unfenced line, kept by reference: its contents at
     * flush time are the volatile image's until a store reaches the
     * line, and that store first copies them into a copy slot.
     */
    struct PendingLine
    {
        std::uint64_t line;
        /** 1 + index in pendingCopies_ of the line's copy slot, or 0
         * while it has none. */
        std::uint32_t copy;
        /** Whether the copy slot, not the image, holds the bytes. */
        bool copied;
    };

    void checkRange(PmOff off, std::size_t size) const;
    /**
     * Load without the lock into @p dst; false, having copied nothing
     * it vouches for, if a writer touched the pages meanwhile.
     */
    bool loadUnlocked(PmOff off, void *dst, std::size_t size,
                      LoadSlot &slot) const;
    /** The load under the lock; opens load slot @p slot to folds. */
    void loadLocked(PmOff off, void *dst, std::size_t size,
                    unsigned slot) const;
    /**
     * Under the lock: write [off, off+size) of the volatile image from
     * @p src, its pages' counters odd while the bytes change.
     */
    void writeVolatile(PmOff off, const void *src, std::size_t size);
    /** Under the lock: add load slot @p slot's growth to the stats. */
    void foldLoads(unsigned slot);
    /** Under the lock: fold the calling thread's load slot, if any. */
    void foldCallerLoads();
    /** Fold every open load slot (takes the lock). */
    void foldAllLoads() const;
    void clwbLocked(PmOff off, TrafficClass cls);
    /** Count and time one effective flush of @p line. */
    void accountFlush(std::uint64_t line, TrafficClass cls);
    void maybeCrash();
    void markDirty(std::uint64_t line);
    void clearDirty(std::uint64_t line);
    /** Call @p fn on every dirty line, in ascending order. */
    template <typename Fn> void forEachDirtyLine(Fn fn) const;
    /** Make the line's current contents its pending write. */
    void snapshotLine(std::uint64_t line);
    /** Before a store reaches the line: copy its pending write, if it
     * has one that the volatile image still holds. */
    void keepPendingBytes(std::uint64_t line);
    /** The bytes @p pending persists with at the fence. */
    const std::uint8_t *pendingBytes(const PendingLine &pending) const;
    /** Drop the line's pending snapshot, if any. */
    void dropPending(std::uint64_t line);
    /** Move every pending snapshot into the persistent image. */
    void promotePending();
    /**
     * Run the crash draws of @p policy: pending lines in ascending
     * order, then dirty lines in ascending order, one Rng draw per
     * line under RandomSubset. Calls @p write(line, bytes) for each
     * line that persists, with the bytes it persists with. crashImage()
     * and simulateCrash() share it, so their images cannot drift apart.
     */
    template <typename Fn>
    void forEachCrashWrite(const CrashPolicy &policy, Fn write) const;
    /** Forget every dirty flag, pending snapshot and stale line. */
    void clearLineState();
    /** Throw MediaError if [off,off+size) overlaps @p lines. */
    void checkMediaLines(
        const std::unordered_set<std::uint64_t> &lines,
        MediaErrorKind kind, PmOff off, std::size_t size) const;
    /** Copy one persistent line into the backing mapping. */
    void mirrorLine(std::uint64_t line);
    /** Copy the whole persistent image into the backing mapping. */
    void mirrorAll();

    /** Whether the calling thread's ops advance the virtual clock. */
    bool
    timed() const
    {
        return !timedThreadOnly_.load(std::memory_order_relaxed) ||
               std::this_thread::get_id() ==
                   timedThread_.load(std::memory_order_relaxed);
    }

    // What an unlocked load reads. Written by the constructor or by
    // rare configuration calls only, and kept on its own cache line:
    // the lock word starts the next one.
    /** Capacity in bytes, a whole number of lines. */
    const std::size_t size_;
    const std::size_t lines_;
    std::uint8_t *volatileImage_ = nullptr;
    /**
     * Per 4 KiB page of the volatile image: a sequence counter, odd
     * while a write changes the page's bytes. Accessed atomically.
     */
    std::uint32_t *pageSeq_ = nullptr;
    /** Load slots [0, n) may hold loads not yet folded. */
    std::atomic<unsigned> loadSlotsOpen_{0};
    /** True while a fault plan poisons lines: loads take the lock. */
    std::atomic<bool> poisonArmed_{false};
    /** Virtual-clock thread filter (see timeOnlyCallingThread). */
    std::atomic<bool> timedThreadOnly_{false};
    std::atomic<std::thread::id> timedThread_{};

    mutable SpinLock lock_;
    /**
     * Length of the anonymous mapping that holds both images, the
     * per-line state and the page counters, each on its own pages;
     * the volatile image starts it.
     */
    std::size_t mappingBytes_ = 0;
    std::uint8_t *persistentImage_ = nullptr;
    /** Per line: 1 if it holds stores newer than any flush. */
    std::uint8_t *dirty_ = nullptr;
    /** Number of lines whose dirty_ flag is set. */
    std::size_t dirtyCount_ = 0;
    /** Per line: 1 + its index in pending_, or 0 if not pending. */
    std::uint32_t *pendingSlot_ = nullptr;
    /** Flushed-but-unfenced lines, in no particular order. */
    std::vector<PendingLine> pending_;
    /** Copy slots of pending lines that stores reached; emptied with
     * pending_. */
    std::vector<std::array<std::uint8_t, kCacheLineSize>> pendingCopies_;
    DeviceStats stats_;
    /** stats_ values already flushed by publishMetrics(). */
    DeviceStats published_;
    PmemTiming timing_;
    /** Crash-injection countdown; null = disarmed. */
    std::shared_ptr<CrashCountdown> countdown_;
    std::thread::id crashThread_;
    /** Persistence-event id counter (see persistEventId()). */
    std::uint64_t persistEvents_ = 0;
    /** Injected persistence fault (DeviceFault::None normally). */
    DeviceFault fault_ = DeviceFault::None;
    /** Lines whose loads fail (FaultPlan::poisonLines). */
    std::unordered_set<std::uint64_t> poisonLines_;
    /** Lines whose stores fail (FaultPlan::eioLines). */
    std::unordered_set<std::uint64_t> eioLines_;
    /** mmap(MAP_SHARED) mirror of persistentImage_; null = none. */
    std::uint8_t *backingMap_ = nullptr;
    int backingFd_ = -1;
    bool hadExistingData_ = false;
    /**
     * Lines whose persistent bytes applyFaultPlan() flipped since the
     * last crash. Outside these, dirty_ and pending_, the volatile and
     * persistent images agree, which lets simulateCrash() work in
     * place. May repeat a line.
     */
    std::vector<std::uint64_t> staleLines_;
    /** Per load slot, under the lock. */
    std::array<FoldedLoads, kLoadSlots> folded_{};
    /** Indexed by the calling thread's process-wide slot number. */
    mutable std::array<LoadSlot, kLoadSlots> loadSlots_;
};

} // namespace specpmt::pmem

#endif // SPECPMT_PMEM_PMEM_DEVICE_HH
