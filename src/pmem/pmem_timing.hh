/**
 * @file
 * Analytic timing model of an ADR persistent memory subsystem.
 *
 * The software-solution evaluation in the paper ran on a real Optane
 * machine; this container has neither persistent memory nor multiple
 * cores, so the software benchmarks instead accumulate *simulated*
 * nanoseconds from a first-order model of the events that dominate
 * persistent transaction cost:
 *
 *  - cache-hit stores/loads: ~1ns,
 *  - clwb: enqueue into a 512-byte (8-line) write pending queue,
 *    stalling when the queue is full; a line already pending merges,
 *  - media drain: writes spread over pmChannels interleaved channels
 *    (by XPLine address); within one channel a write to the same
 *    256B XPLine as the previous write costs pmWriteSameXpLineNs
 *    (Optane's internal write combining — the reason sequential log
 *    writes beat scattered data writes, Section 3), a new XPLine
 *    costs the full pmWriteNs read-modify-write,
 *  - sfence: waits until every flush issued by the measured thread
 *    has drained (strict persist), plus a fixed core-side cost;
 *    background cores' (async) writes share drain bandwidth but are
 *    never waited on.
 *
 * Every load costs loadNs: the model has no cold PM read.
 *
 * Parameters come from Table 1 / Section 7.1.3 plus the Optane
 * characterization literature the paper cites [67, 70, 78, 11].
 */

#ifndef SPECPMT_PMEM_PMEM_TIMING_HH
#define SPECPMT_PMEM_PMEM_TIMING_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hh"

namespace specpmt::pmem
{

/**
 * Where simulated nanoseconds went, for the runtime-wide
 * `specpmt_sim_ns_total{event=...}` attribution counters. WpqStall
 * and FenceDrain are the interesting ones: time the core spent
 * blocked on media drain rather than doing work.
 */
enum class SimNsEvent : unsigned
{
    Store = 0,
    Load,
    PmRead, ///< charged by no model; keeps its exported series
    Compute,
    WpqAccept,
    WpqStall,
    FenceDrain,
    Sfence,
    kCount,
};

/** Tunable latency parameters (defaults per the paper's Table 1). */
struct TimingParams
{
    SimNs storeNs = 1;            ///< cache-hit store
    SimNs loadNs = 1;             ///< cache-hit load
    SimNs pmWriteNs = 500;        ///< PM media write, new XPLine (RMW)
    SimNs pmWriteSameXpLineNs = 125; ///< write combined within an XPLine
    SimNs wpqAcceptNs = 10;       ///< WPQ enqueue handshake
    unsigned wpqLines = 8;        ///< 512B WPQ = 8 cache lines
    /** Fixed core-side sfence cost (store-buffer drain). */
    SimNs sfenceNs = 100;
    /** Interleaved PM channels draining in parallel. */
    unsigned pmChannels = 4;
};

/**
 * Accumulates a virtual clock for one execution; see file comment.
 */
class PmemTiming
{
  public:
    explicit PmemTiming(const TimingParams &params = {})
        : params_(params), channels_(params.pmChannels)
    {}

    /** Publishes any unflushed attribution deltas. */
    ~PmemTiming() { publishMetrics(); }

    PmemTiming(const PmemTiming &) = delete;
    PmemTiming &operator=(const PmemTiming &) = delete;

    /** Current virtual time. */
    SimNs now() const { return now_; }

    /** Charge @p ns of pure computation. */
    void
    compute(SimNs ns)
    {
        now_ += ns;
        charge(SimNsEvent::Compute, ns);
    }

    /** Charge a cache-hit store of @p lines cache lines. */
    void
    onStore(std::uint64_t lines)
    {
        now_ += params_.storeNs * lines;
        charge(SimNsEvent::Store, params_.storeNs * lines);
    }

    /** Charge a cache-hit load of @p lines cache lines. */
    void
    onLoad(std::uint64_t lines)
    {
        now_ += params_.loadNs * lines;
        charge(SimNsEvent::Load, params_.loadNs * lines);
    }

    /**
     * Charge a cache line writeback heading to PM.
     *
     * @param line_index  Cache line index (drives channel selection
     *                    and XPLine locality).
     */
    void onClwb(std::uint64_t line_index);

    /**
     * A PM write issued by a *background* core (SPHT's replayer,
     * SpecPMT's reclaimer): it consumes shared drain bandwidth —
     * delaying the measured thread's subsequent writes and fences —
     * but does not advance the measured thread's clock by itself and
     * is never waited on by its fences.
     */
    void onClwbAsync(std::uint64_t line_index);

    /** Charge a store fence (persist barrier). */
    void onSfence();

    /** Number of PM line writes that hit the XPLine combining path. */
    std::uint64_t combinedWrites() const { return combinedWrites_; }

    /** Total PM line writes issued to the media. */
    std::uint64_t pmLineWrites() const { return pmLineWrites_; }

    /**
     * Flush this model's attribution counters (sim-ns by event, WPQ
     * merges/stalls, media line writes) into the process-wide metrics
     * registry as a bulk delta. The per-event paths above only bump
     * plain members — cheap enough for the emulated-store fast path —
     * so the registry sees this model's traffic only when published:
     * on destruction, or via PmemDevice::publishMetrics().
     */
    void publishMetrics();

    /** Reset the clock and queue (counters survive). */
    void
    reset()
    {
        now_ = 0;
        for (auto &channel : channels_) {
            channel.inflight.clear();
            channel.lastXpLine = ~0ull;
        }
    }

    const TimingParams &params() const { return params_; }

  private:
    /** One in-flight PM write. */
    struct Inflight
    {
        SimNs done;
        std::uint64_t line;
        bool async;
    };

    struct Channel
    {
        std::deque<Inflight> inflight;
        std::uint64_t lastXpLine = ~0ull;
    };

    Channel &channelFor(std::uint64_t line_index);
    void retireCompleted();
    std::size_t pendingCount() const;
    /** Stall until the earliest pending write completes. */
    void waitForSlot();
    /** True if @p line is pending; merging is free media-side. */
    bool mergeIfPending(std::uint64_t line_index);
    /** Queue the media write; returns its completion time. */
    SimNs enqueueDrain(std::uint64_t line_index, bool async);

    /** Accumulate @p ns of attributed simulated time (plain add). */
    void
    charge(SimNsEvent event, SimNs ns)
    {
        simNsByEvent_[static_cast<unsigned>(event)] += ns;
    }

    TimingParams params_;
    SimNs now_ = 0;
    std::vector<Channel> channels_;
    std::uint64_t combinedWrites_ = 0;
    std::uint64_t pmLineWrites_ = 0;
    std::uint64_t wpqMerges_ = 0;
    std::uint64_t wpqStalls_ = 0;
    std::array<SimNs, static_cast<unsigned>(SimNsEvent::kCount)>
        simNsByEvent_{};

    /** Values already flushed to the registry by publishMetrics(). */
    struct Published
    {
        std::uint64_t combinedWrites = 0;
        std::uint64_t pmLineWrites = 0;
        std::uint64_t wpqMerges = 0;
        std::uint64_t wpqStalls = 0;
        std::array<SimNs, static_cast<unsigned>(SimNsEvent::kCount)>
            simNsByEvent{};
    } published_;
};

} // namespace specpmt::pmem

#endif // SPECPMT_PMEM_PMEM_TIMING_HH
