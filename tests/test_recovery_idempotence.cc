/**
 * @file
 * Recovery idempotence: a power failure *during recovery* must leave
 * the pool recoverable, and repeating recovery any number of times
 * must converge to the same consistent state. The paper relies on
 * this implicitly ("log reclamation can be repeated from the
 * beginning if it is interrupted by a crash", Section 4.2; replay is
 * idempotent, Section 4.1). Drives sim::SlotScenario's phases by hand
 * because the crash explorer only models one crash per schedule.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sim/crash_explorer.hh"

namespace specpmt::sim
{
namespace
{

// std::string, not const char *: gtest prints a pointer parameter as
// its address, which ASLR changes on every test discovery, and the
// printed value is part of the ctest name.
using Param = std::tuple<std::string, long, long>;

class RecoveryCrashTest : public ::testing::TestWithParam<Param>
{
};

TEST_P(RecoveryCrashTest, CrashDuringRecoveryThenRecoverAgain)
{
    const auto [runtime, run_crash, recovery_crash] = GetParam();

    CrashCell cell;
    cell.runtime = runtime;
    cell.seed = 7000 + static_cast<std::uint64_t>(run_crash);
    cell.txCount = 64;
    SlotScenario scenario(cell);
    auto &dev = scenario.device();
    auto &pool = scenario.pool();
    dev.armCrash(run_crash);
    try {
        scenario.run();
    } catch (const pmem::SimulatedCrash &) {
    }
    dev.armCrash(-1);

    // First power failure.
    scenario.crash(pmem::CrashPolicy::random(
        static_cast<std::uint64_t>(run_crash), 0.5));

    // Recovery #1 is itself interrupted by a second power failure.
    {
        auto interrupted = makeCrashRuntime(runtime, pool, 1);
        dev.armCrash(recovery_crash);
        try {
            interrupted->recover();
            dev.armCrash(-1);
        } catch (const pmem::SimulatedCrash &) {
        }
        dev.armCrash(-1);
    }
    dev.simulateCrash(pmem::CrashPolicy::random(
        static_cast<std::uint64_t>(recovery_crash) * 3 + 1, 0.5));
    pool.reopenAfterCrash();

    // Recovery #2 must succeed and produce an atomically consistent
    // state; run it through the scenario so the usual checks apply.
    scenario.crash(pmem::CrashPolicy::nothing());
    scenario.recover();
    const std::string failure = scenario.check();
    EXPECT_TRUE(failure.empty()) << runtime << ": " << failure;

    // And the pool still works.
    scenario.rebaseline();
    scenario.runMore(8, 3);
    EXPECT_EQ(scenario.verifyExact(), "");
}

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    std::string name = std::get<0>(info.param);
    for (auto &c : name) {
        if (c == '-')
            c = '_';
    }
    return name + "_r" + std::to_string(std::get<1>(info.param)) +
           "_c" + std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecoveryCrashTest,
    ::testing::Combine(::testing::Values("pmdk", "spht", "spec",
                                         "hybrid"),
                       ::testing::Values(200L, 900L),
                       ::testing::Values(3L, 11L, 29L, 73L)),
    paramName);

} // namespace
} // namespace specpmt::sim
