/**
 * @file
 * Integration crash tests, explorer-backed: each STAMP-analog
 * workload's persistence-event space is measured by a counting pass,
 * then a bounded set of crash points spread evenly across the run
 * (setup tail, steady state, teardown) is explored under the random
 * cache-eviction policy. After recovery the application's structural
 * invariant — which holds at every committed boundary — must hold,
 * and a clean second power cycle must preserve it. Failing schedules
 * are reported with crashmatrix replay tokens.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "workloads/stamp_crash_workload.hh"
#include "workloads/workload.hh"

namespace specpmt::workloads
{
namespace
{

// std::string, not const char *: gtest prints a pointer parameter as
// its address, which ASLR changes on every test discovery, and the
// printed value is part of the ctest name.
using Param = std::tuple<WorkloadKind, std::string>;

class WorkloadCrashTest : public ::testing::TestWithParam<Param>
{
};

TEST_P(WorkloadCrashTest, StructuralInvariantSurvivesCrash)
{
    const auto [kind, runtime] = GetParam();

    sim::CrashCell cell;
    cell.runtime = runtime;
    cell.workload = workloadKindName(kind);
    cell.policy = "random";
    cell.persistProbability = 0.5;
    cell.seed = 11;
    cell.scale = 0.02;

    sim::CrashExplorer explorer(cell, stampCrashWorkloadFactory());
    sim::ExploreOptions options;
    options.jobs = 2;
    options.maxPoints = 5;
    options.verifyContinuation = true;
    const auto report = explorer.explore(options);

    ASSERT_EQ(report.error, "");
    EXPECT_GT(report.totalEvents, 0u);
    EXPECT_LE(report.candidatePoints, options.maxPoints);
    EXPECT_EQ(report.explored + report.pruned, report.candidatePoints);
    for (const auto &failure : report.failures) {
        ADD_FAILURE() << workloadKindName(kind) << ": "
                      << failure.message
                      << "\n  replay: crashmatrix --replay='"
                      << failure.token << "'";
    }
}

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    std::string name = workloadKindName(std::get<0>(info.param));
    name += "_";
    name += std::get<1>(info.param);
    for (auto &c : name) {
        if (c == '-')
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadCrashTest,
    ::testing::Combine(::testing::ValuesIn(allWorkloads()),
                       ::testing::Values("pmdk", "spec")),
    paramName);

} // namespace
} // namespace specpmt::workloads
