#include "sim/hw_runtime.hh"

#include "common/logging.hh"

namespace specpmt::sim
{

namespace
{

pmem::TimingParams
timingParams(const SimConfig &config)
{
    pmem::TimingParams params;
    params.storeNs = 0; // cache latencies are charged explicitly
    params.loadNs = 0;
    params.pmWriteNs = config.pmWriteNs;
    params.pmWriteSameXpLineNs = config.pmWriteSameXpLineNs;
    params.wpqAcceptNs = config.wpqAcceptNs;
    params.wpqLines = config.wpqLines;
    // The hardware comparison models the single write pending queue of
    // Table 1 with no core-side fence cost (the out-of-order core
    // hides it, Section 7.3).
    params.pmChannels = 1;
    params.sfenceNs = 0;
    return params;
}

} // namespace

HwRuntime::HwRuntime(const SimConfig &config)
    : config_(config), timing_(timingParams(config)), cache_(config)
{}

const HwStats &
HwRuntime::run(const txn::MemTrace &trace)
{
    for (const auto &op : trace.ops) {
        switch (op.kind) {
          case txn::MemOpKind::TxBegin:
            txBegin();
            break;
          case txn::MemOpKind::TxCommit:
            commit();
            ++stats_.txs;
            break;
          case txn::MemOpKind::Store:
            store(op.off, op.size);
            break;
          case txn::MemOpKind::Load:
            load(op.off, op.size);
            break;
          case txn::MemOpKind::Compute:
            timing_.compute(op.computeNs);
            break;
        }
    }
    finishRun();

    stats_.ns = timing_.now();
    stats_.l1Hits = cache_.l1Hits();
    stats_.l2Hits = cache_.l2Hits();
    stats_.memFills = cache_.memFills();
    stats_.dataFootprintBytes = touchedLines_.size() * kCacheLineSize;
    return stats_;
}

void
HwRuntime::finishRun()
{
    // Make residual dirty state durable so write-traffic totals are
    // comparable across schemes with different persistence timing.
    cache_.forEachLine([&](std::uint64_t line, LineMeta &meta) {
        if (meta.dirty || meta.pBit) {
            persistDataLine(line);
            meta.dirty = false;
            meta.pBit = false;
        }
    });
    fence();
}

void
HwRuntime::accessLines(PmOff off, std::uint32_t size, bool is_write)
{
    if (size == 0)
        return;
    const std::uint64_t first = lineIndex(off);
    const std::uint64_t last = lineIndex(off + size - 1);
    for (std::uint64_t line = first; line <= last; ++line) {
        const CacheLevel level = cache_.access(line, is_write);
        switch (level) {
          case CacheLevel::L1:
            timing_.compute(config_.l1HitNs);
            break;
          case CacheLevel::L2:
            timing_.compute(config_.l2HitNs);
            break;
          case CacheLevel::Memory:
            timing_.compute(config_.pmReadNs);
            break;
        }
        if (is_write)
            touchedLines_.insert(line);
    }
}

void
HwRuntime::logAppendLines(std::uint64_t lines)
{
    for (std::uint64_t i = 0; i < lines; ++i) {
        timing_.onClwb(logCursor_++);
        ++stats_.pmLogLineWrites;
    }
}

void
HwRuntime::logAppendLinesAsync(std::uint64_t lines)
{
    for (std::uint64_t i = 0; i < lines; ++i) {
        timing_.onClwbAsync(logCursor_++);
        ++stats_.pmLogLineWrites;
    }
}

void
HwRuntime::logAppendBytes(std::size_t bytes)
{
    logPartialBytes_ += bytes;
    while (logPartialBytes_ >= kCacheLineSize) {
        logAppendLines(1);
        logPartialBytes_ -= kCacheLineSize;
    }
}

void
HwRuntime::logFlushPartial()
{
    if (logPartialBytes_ > 0) {
        logAppendLines(1);
        logPartialBytes_ = 0;
    }
}

void
HwRuntime::persistDataLine(std::uint64_t line)
{
    timing_.onClwb(line);
    ++stats_.pmDataLineWrites;
}

void
HwRuntime::fence()
{
    timing_.onSfence();
    ++stats_.fences;
}

void
HwRuntime::noteLogBytes(std::ptrdiff_t delta)
{
    SPECPMT_ASSERT(delta >= 0 ||
                   logBytes_ >= static_cast<std::size_t>(-delta));
    logBytes_ += delta;
    if (logBytes_ > stats_.peakLogBytes)
        stats_.peakLogBytes = logBytes_;
}

} // namespace specpmt::sim
