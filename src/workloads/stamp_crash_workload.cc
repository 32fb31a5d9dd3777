#include "workloads/stamp_crash_workload.hh"

#include <optional>
#include <stdexcept>
#include <string>

#include "workloads/workload.hh"

namespace specpmt::workloads
{

namespace
{

/** Device capacity matching the kernels' reference footprints. */
constexpr std::size_t kStampDeviceBytes = 192u << 20;

std::optional<WorkloadKind>
kindByName(std::string_view name)
{
    for (const auto kind : allWorkloads()) {
        if (name == workloadKindName(kind))
            return kind;
    }
    return std::nullopt;
}

class StampCrashWorkload final : public sim::CrashWorkload
{
  public:
    explicit StampCrashWorkload(const sim::CrashCell &cell)
        : cell_(cell), device_(kStampDeviceBytes), pool_(device_)
    {
        const auto kind = kindByName(cell_.workload);
        if (!kind) {
            throw std::runtime_error("unknown STAMP workload: " +
                                     cell_.workload);
        }
        runtime_ = sim::makeCrashRuntime(cell_.runtime, pool_, 1);
        WorkloadConfig config;
        config.seed = cell_.seed;
        config.scale = cell_.scale;
        workload_ = makeWorkload(*kind, config);
        workload_->setup(*runtime_);
        if (cell_.fault == "drop-fences")
            device_.injectFault(pmem::DeviceFault::DropFences);
    }

    std::vector<sim::CrashDevice>
    devices() override
    {
        return {{cell_.workload, &device_, 1}};
    }

    void
    run() override
    {
        workload_->run(*runtime_);
    }

    void
    crash(const pmem::CrashPolicy &policy) override
    {
        runtime_.reset(); // the old process is gone
        device_.simulateCrash(policy);
        pool_.reopenAfterCrash();
    }

    void
    recover() override
    {
        runtime_ = sim::makeCrashRuntime(cell_.runtime, pool_, 1);
        runtime_->recover();
    }

    std::string
    check() override
    {
        if (!workload_->verifyStructural(*runtime_)) {
            return std::string(workload_->name()) +
                   ": structural invariant violated after recovery";
        }
        return {};
    }

    std::string
    checkContinuation() override
    {
        // Recovery idempotence: a clean second power cycle of the
        // recovered pool must land on the same consistent state.
        crash(pmem::CrashPolicy::nothing());
        recover();
        if (!workload_->verifyStructural(*runtime_)) {
            return std::string(workload_->name()) +
                   ": structural invariant violated after second "
                   "recovery";
        }
        return {};
    }

  private:
    sim::CrashCell cell_;
    pmem::PmemDevice device_;
    pmem::PmemPool pool_;
    std::unique_ptr<txn::TxRuntime> runtime_;
    std::unique_ptr<Workload> workload_;
};

} // namespace

bool
isStampWorkloadName(std::string_view name)
{
    return kindByName(name).has_value();
}

std::unique_ptr<sim::CrashWorkload>
makeStampCrashWorkload(const sim::CrashCell &cell)
{
    return std::make_unique<StampCrashWorkload>(cell);
}

sim::CrashWorkloadFactory
stampCrashWorkloadFactory()
{
    return [](const sim::CrashCell &cell)
               -> std::unique_ptr<sim::CrashWorkload> {
        if (isStampWorkloadName(cell.workload))
            return makeStampCrashWorkload(cell);
        return sim::builtinCrashWorkloadFactory()(cell);
    };
}

} // namespace specpmt::workloads
