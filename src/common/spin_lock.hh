/**
 * @file
 * A test-and-test-and-set spin lock for critical sections that are
 * shorter than a futex sleep/wake handoff.
 */

#ifndef SPECPMT_COMMON_SPIN_LOCK_HH
#define SPECPMT_COMMON_SPIN_LOCK_HH

#include <atomic>
#include <thread>

namespace specpmt
{

/** The CPU's spin-wait hint (x86 pause, AArch64 yield), else nothing. */
inline void
cpuRelax() noexcept
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/**
 * Spin lock for std::lock_guard. A waiter spins on a plain load (no
 * cache-line ping-pong while the lock is held), pausing between reads;
 * after kSpinTries reads it yields its core and starts over. It never
 * sleeps, so a holder must not block, sleep or take a lock that could
 * wait on this one. Aligned to a cache line so the lock word does not
 * share a line with the data it guards. pmem::PmemDevice holds it for
 * the calls that write device state; its short loads check per-page
 * sequence counters instead (DESIGN section 17).
 */
class alignas(64) SpinLock
{
  public:
    void
    lock() noexcept
    {
        while (locked_.exchange(true, std::memory_order_acquire)) {
            for (unsigned tries = 1;
                 locked_.load(std::memory_order_relaxed); ++tries) {
                if (tries % kSpinTries == 0)
                    std::this_thread::yield();
                else
                    cpuRelax();
            }
        }
    }

    void
    unlock() noexcept
    {
        locked_.store(false, std::memory_order_release);
    }

  private:
    /** Reads between yields while the lock stays held. */
    static constexpr unsigned kSpinTries = 64;

    std::atomic<bool> locked_{false};
};

} // namespace specpmt

#endif // SPECPMT_COMMON_SPIN_LOCK_HH
