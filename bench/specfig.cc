/**
 * @file
 * specfig — regenerates the paper's evaluation artifacts.
 *
 * Usage:
 *   specfig [--scale=F] [--metrics-out=P] [--trace-out=P] ARTIFACT...
 *
 * ARTIFACT is one of
 *   table1       Table 1: simulated system configuration
 *   table2       Table 2: size and number of transactions
 *   fig1         Figure 1: residual overheads of the state of the art
 *   fig12        Figure 12: software speedups over PMDK
 *   fig13        Figure 13: hardware speedups over EDE
 *   fig14        Figure 14: write-traffic reduction over EDE
 *   fig15        Figure 15: speedup and traffic vs log memory
 *   seq-vs-hash  Section 4: sequential vs hash-table speculative log
 *   ablation     design ablations of software SpecPMT
 * or `all` for every artifact in that order.
 *
 * --scale sizes every workload relative to its reference input; it
 * defaults to 0.3 for `ablation` and 1.0 for the rest.
 * --metrics-out dumps the process-wide registry and --trace-out the
 * trace spans once every artifact has run.
 *
 * Software schemes run on a fresh emulated ADR machine per run, and
 * only the transactional phase is timed, on the running thread's
 * clock: background helper threads run untimed, as on the paper's
 * dedicated cores. The hardware models replay each workload's
 * recorded memory trace; a trace is recorded once per invocation and
 * shared by every artifact that replays it.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/spec_tx.hh"
#include "obs/artifacts.hh"
#include "pmem/pmem_device.hh"
#include "pmem/pmem_pool.hh"
#include "sim/machine.hh"
#include "sim/sim_config.hh"
#include "txn/runtime_factory.hh"
#include "txn/trace_recorder.hh"
#include "workloads/workload.hh"

using namespace specpmt;
using workloads::WorkloadKind;

namespace
{

/** Emulated device per run: fits every scheme's heap and log. */
constexpr std::size_t kDeviceBytes = 320u << 20;

/** What one measured run reports. */
struct RunResult
{
    SimNs ns = 0;                    ///< simulated measured-phase time
    std::size_t peakLogBytes = 0;    ///< SpecTx log high-water mark
    std::uint64_t reclaimCycles = 0; ///< SpecTx reclaim cycles
    std::uint64_t digest = 0;        ///< logical outcome of the run
};

using RuntimeMaker =
    std::function<std::unique_ptr<txn::TxRuntime>(pmem::PmemPool &)>;

/**
 * Run @p kind over the runtime @p make builds on a fresh device: set
 * up, then time only the transactional phase on this thread's clock,
 * shut down and verify.
 */
RunResult
measuredRun(WorkloadKind kind, double scale, const RuntimeMaker &make)
{
    pmem::PmemDevice dev(kDeviceBytes);
    pmem::PmemPool pool(dev);
    auto runtime = make(pool);
    workloads::WorkloadConfig config;
    config.scale = scale;
    auto workload = workloads::makeWorkload(kind, config);

    workload->setup(*runtime);
    dev.clearStats();
    dev.timing().reset();
    dev.timeOnlyCallingThread();
    workload->run(*runtime);

    RunResult result;
    result.ns = dev.timing().now();
    if (auto *spec = dynamic_cast<core::SpecTx *>(runtime.get())) {
        result.peakLogBytes = spec->peakLogBytes();
        result.reclaimCycles = spec->reclaimCycles();
    }
    runtime->shutdown();
    SPECPMT_ASSERT(workload->verify(*runtime));
    result.digest = workload->digest(*runtime);
    return result;
}

/** measuredRun under the runtime factory's scheme @p runtime. */
RunResult
runScheme(const char *runtime, WorkloadKind kind, double scale)
{
    return measuredRun(kind, scale, [runtime](pmem::PmemPool &pool) {
        return txn::makeRuntime(runtime, pool, 1);
    });
}

/** The measured-phase memory trace of @p kind. */
txn::MemTrace
recordTrace(WorkloadKind kind, double scale)
{
    pmem::PmemDevice dev(kDeviceBytes);
    pmem::PmemPool pool(dev);
    txn::TraceRecorder recorder(pool, 1);
    workloads::WorkloadConfig config;
    config.scale = scale;
    auto workload = workloads::makeWorkload(kind, config);

    workload->setup(recorder);
    recorder.startRecording();
    workload->run(recorder);
    recorder.stopRecording();
    SPECPMT_ASSERT(workload->verify(recorder));
    auto trace = recorder.takeTrace();
    trace.residentBytes = pool.bytesAllocated();
    return trace;
}

/** State the artifacts of one invocation share. */
struct Invocation
{
    /** Workload scale of the artifact running now. */
    double scale = 1.0;
    /**
     * Recorded traces by workload. Every artifact that replays a
     * trace runs at the same scale, so one trace per kind serves all.
     */
    std::map<WorkloadKind, txn::MemTrace> traces;

    const txn::MemTrace &
    trace(WorkloadKind kind)
    {
        auto it = traces.find(kind);
        if (it == traces.end())
            it = traces.emplace(kind, recordTrace(kind, scale)).first;
        return it->second;
    }
};

void
printHeader(const std::string &title,
            const std::vector<std::string> &columns)
{
    std::printf("\n== %s ==\n", title.c_str());
    std::printf("%-16s", "workload");
    for (const auto &column : columns)
        std::printf("%14s", column.c_str());
    std::printf("\n");
}

void
printRow(const std::string &label, const std::vector<double> &values,
         int precision = 2)
{
    std::printf("%-16s", label.c_str());
    for (double value : values)
        std::printf("%14.*f", precision, value);
    std::printf("\n");
}

double
mean(const std::vector<double> &values)
{
    double sum = 0;
    for (double value : values)
        sum += value;
    return sum / static_cast<double>(values.size());
}

/** Percent by which @p run's simulated time exceeds @p base's. */
template <typename Result>
double
overheadPct(const Result &base, const Result &run)
{
    return 100.0 *
           (static_cast<double>(run.ns) / static_cast<double>(base.ns) -
            1.0);
}

/** How many times faster @p run finished than @p base. */
template <typename Result>
double
speedup(const Result &base, const Result &run)
{
    return static_cast<double>(base.ns) / static_cast<double>(run.ns);
}

/** Percent fewer PM line writes in @p run than in @p base. */
double
trafficReductionPct(const sim::HwStats &base, const sim::HwStats &run)
{
    return 100.0 * (1.0 - static_cast<double>(run.pmLineWrites()) /
                              static_cast<double>(base.pmLineWrites()));
}

/** Geomean over (1 + overhead) ratios, reported back as percent. */
double
geomeanPct(const std::vector<double> &overheads)
{
    std::vector<double> ratios;
    for (double value : overheads)
        ratios.push_back(1.0 + value / 100.0);
    return 100.0 * (geomean(ratios) - 1.0);
}

/**
 * A figure that compares schemes with a baseline: one row per
 * workload whose column c is cell(run(kind, -1), run(kind, c)), with
 * run(kind, -1) the baseline, then a row of summary() per column.
 */
template <typename Run, typename Cell>
void
compareTable(const std::string &title,
             const std::vector<std::string> &columns, Run run, Cell cell,
             int precision, const char *summary_label,
             double (*summary)(const std::vector<double> &))
{
    printHeader(title, columns);
    std::vector<std::vector<double>> cells(columns.size());
    for (const auto kind : workloads::allWorkloads()) {
        const auto base = run(kind, -1);
        std::vector<double> row;
        for (std::size_t c = 0; c < columns.size(); ++c) {
            cells[c].push_back(cell(base, run(kind, static_cast<int>(c))));
            row.push_back(cells[c].back());
        }
        printRow(workloads::workloadKindName(kind), row, precision);
    }
    std::vector<double> summaries;
    for (const auto &column : cells)
        summaries.push_back(summary(column));
    printRow(summary_label, summaries, precision);
}

/** compareTable's run() for software schemes named by the factory. */
auto
softwareRuns(const Invocation &inv, const char *base,
             std::vector<const char *> schemes)
{
    return [&inv, base, schemes](WorkloadKind kind, int column) {
        return runScheme(column < 0 ? base : schemes[column], kind,
                         inv.scale);
    };
}

/** compareTable's run() for hardware models replaying traces. */
auto
hardwareRuns(Invocation &inv, sim::HwScheme base,
             std::vector<sim::HwScheme> schemes)
{
    return [&inv, base, schemes](WorkloadKind kind, int column) {
        return sim::simulate(column < 0 ? base : schemes[column],
                             sim::SimConfig{}, inv.trace(kind));
    };
}

void
table1(Invocation &)
{
    sim::SimConfig config;
    std::printf("== Table 1: system configuration ==\n%s",
                config.toString().c_str());
}

/**
 * Table 2. The paper's reference inputs run millions of transactions;
 * these kernels run the same access patterns at a reduced scale, so
 * the columns to compare are the average transaction size (reproduced
 * directly) and the relative ordering of transaction/update counts.
 */
void
table2(Invocation &inv)
{
    // The paper's average transaction size, bytes.
    static const std::map<WorkloadKind, double> kPaperAvgBytes = {
        {WorkloadKind::Genome, 7.2},       {WorkloadKind::Intruder, 20.5},
        {WorkloadKind::KmeansLow, 101},    {WorkloadKind::KmeansHigh, 101},
        {WorkloadKind::Labyrinth, 1420},   {WorkloadKind::Ssca2, 16},
        {WorkloadKind::VacationLow, 44.2}, {WorkloadKind::VacationHigh, 67.8},
        {WorkloadKind::Yada, 175.6},
    };

    std::printf("== Table 2: size and number of transactions ==\n");
    std::printf("%-16s%14s%14s%14s%14s%14s\n", "workload",
                "avg size (B)", "paper avg", "num tx", "num updates",
                "upd/tx");
    for (const auto kind : workloads::allWorkloads()) {
        const auto &trace = inv.trace(kind);
        std::printf("%-16s%14.1f%14.1f%14llu%14llu%14.1f\n",
                    workloads::workloadKindName(kind),
                    trace.avgTxBytes(), kPaperAvgBytes.at(kind),
                    static_cast<unsigned long long>(trace.numTx),
                    static_cast<unsigned long long>(trace.numUpdates),
                    trace.numTx
                        ? static_cast<double>(trace.numUpdates) /
                              static_cast<double>(trace.numTx)
                        : 0.0);
    }
}

/**
 * Figure 1: overheads of the state-of-the-art schemes over versions
 * without crash consistency, in software (over no-tx on the emulated
 * machine) and in hardware (over no-log on the trace simulator).
 */
void
fig1(Invocation &inv)
{
    compareTable("Figure 1 (software): overhead over no-tx, percent",
                 {"PMDK", "Kamino-Tx", "SPHT"},
                 softwareRuns(inv, "direct", {"pmdk", "kamino", "spht"}),
                 overheadPct<RunResult>, 1, "geomean", geomeanPct);
    std::printf("paper geomean:  PMDK 460%%  Kamino-Tx 232%%  "
                "SPHT 161%%\n");
    compareTable("Figure 1 (hardware): overhead over no-log, percent",
                 {"EDE", "HOOP"},
                 hardwareRuns(inv, sim::HwScheme::NoLog,
                              {sim::HwScheme::Ede, sim::HwScheme::Hoop}),
                 overheadPct<sim::HwStats>, 1, "geomean", geomeanPct);
    std::printf("paper geomean:  EDE 50%%  HOOP ~26%%\n");
}

/** Figure 12: software speedups over PMDK on the emulated machine. */
void
fig12(Invocation &inv)
{
    compareTable(
        "Figure 12: speedup over PMDK",
        {"Kamino-Tx", "SPHT", "SpecSPMT-DP", "SpecSPMT"},
        softwareRuns(inv, "pmdk", {"kamino", "spht", "spec-dp", "spec"}),
        [](const RunResult &pmdk, const RunResult &run) {
            // Identical logical outcome across schemes, by digest.
            SPECPMT_ASSERT(run.digest == pmdk.digest);
            return speedup(pmdk, run);
        },
        2, "geomean", geomean);
    std::printf("paper geomean:  Kamino-Tx ~1.7  SPHT ~2.9  "
                "SpecSPMT-DP 3.0  SpecSPMT 5.1\n");
}

/** compareTable's run() for the four schemes of Figures 13 and 14. */
auto
hardwareRunsOverEde(Invocation &inv)
{
    return hardwareRuns(inv, sim::HwScheme::Ede,
                        {sim::HwScheme::Hoop, sim::HwScheme::SpecHpmtDp,
                         sim::HwScheme::SpecHpmt, sim::HwScheme::NoLog});
}

/**
 * Figure 13: hardware speedups over EDE. On labyrinth and yada
 * SpecHPMT can beat no-log because sequential log writes replace
 * scattered data writes.
 */
void
fig13(Invocation &inv)
{
    compareTable("Figure 13: speedup over EDE",
                 {"HOOP", "SpecHPMT-DP", "SpecHPMT", "no-log"},
                 hardwareRunsOverEde(inv), speedup<sim::HwStats>, 2,
                 "geomean", geomean);
    std::printf("paper geomean:  HOOP 1.19  SpecHPMT-DP ~1.0  "
                "SpecHPMT 1.41  no-log 1.50\n");
}

/**
 * Figure 14: PM write-traffic reduction over EDE. The summary is an
 * arithmetic mean because reductions can be ~0 or negative.
 */
void
fig14(Invocation &inv)
{
    compareTable("Figure 14: write-traffic reduction over EDE, percent",
                 {"HOOP", "SpecHPMT-DP", "SpecHPMT", "no-log"},
                 hardwareRunsOverEde(inv), trafficReductionPct, 1,
                 "mean", mean);
    std::printf("paper: HOOP ~18.9%% reduction; SpecHPMT second-lowest "
                "traffic; EDE/SpecHPMT-DP highest\n");
}

/**
 * Figure 15: SpecHPMT sensitivity to log memory. Smaller epochs
 * reclaim log records sooner (less memory, but pages get re-logged
 * and data flushed more often); larger epochs spend memory for speed.
 */
void
fig15(Invocation &inv)
{
    std::vector<const txn::MemTrace *> traces;
    std::vector<sim::HwStats> ede_stats;
    for (const auto kind : workloads::allWorkloads()) {
        traces.push_back(&inv.trace(kind));
        ede_stats.push_back(sim::simulate(
            sim::HwScheme::Ede, sim::SimConfig{}, *traces.back()));
    }

    std::printf("\n== Figure 15: speedup & traffic vs log memory ==\n");
    std::printf("%16s%16s%16s%16s%16s\n", "epoch budget",
                "avg mem (%)", "peak log KB", "geo speedup",
                "traffic red(%)");
    const std::size_t budgets[] = {16u << 10, 64u << 10, 256u << 10,
                                   1u << 20,  2u << 20,  8u << 20};
    for (const std::size_t budget : budgets) {
        sim::SimConfig sim_config;
        sim_config.epochMaxBytes = budget;
        sim_config.epochMaxPages = static_cast<unsigned>(
            std::max<std::size_t>(8, budget / (4 * kPageSize)));

        std::vector<double> speedups;
        std::vector<double> reductions;
        std::vector<double> mem_ratios;
        std::size_t peak_log = 0;
        for (std::size_t i = 0; i < traces.size(); ++i) {
            const auto stats = sim::simulate(sim::HwScheme::SpecHpmt,
                                             sim_config, *traces[i]);
            speedups.push_back(speedup(ede_stats[i], stats));
            reductions.push_back(trafficReductionPct(ede_stats[i], stats));
            mem_ratios.push_back(
                100.0 * static_cast<double>(stats.peakLogBytes) /
                static_cast<double>(traces[i]->residentBytes));
            peak_log = std::max(peak_log, stats.peakLogBytes);
        }
        char label[32];
        std::snprintf(label, sizeof(label), "%zu KB", budget >> 10);
        std::printf("%16s%16.1f%16zu%16.2f%16.1f\n", label,
                    mean(mem_ratios), peak_log / 1024,
                    geomean(speedups), mean(reductions));
    }
    std::printf("paper: 2.6%% mem -> 1.12x; 15%% -> 1.36x; "
                "20%% -> 1.40x over EDE\n");
}

/**
 * Section 4: the sequential speculative log against the memory-thrifty
 * hash-table log (one in-place record per datum), which turns
 * sequential log writes into scattered ones that never benefit from
 * XPLine write combining.
 */
void
seqVsHash(Invocation &inv)
{
    printHeader("Section 4: hash-table log slowdown vs sequential log",
                {"seq (ms)", "hash (ms)", "slowdown"});
    std::vector<double> slowdowns;
    for (const auto kind : workloads::allWorkloads()) {
        const auto seq = runScheme("spec", kind, inv.scale);
        const auto hash = runScheme("hashlog", kind, inv.scale);
        slowdowns.push_back(speedup(hash, seq));
        printRow(workloads::workloadKindName(kind),
                 {static_cast<double>(seq.ns) / 1e6,
                  static_cast<double>(hash.ns) / 1e6,
                  slowdowns.back()});
    }
    printRow("geomean", {0.0, 0.0, geomean(slowdowns)});
    std::printf("paper: hash-table log incurs a 3.2x slowdown\n");
}

/**
 * Ablations of software SpecPMT's design choices: log block size,
 * last-update entry deduplication (Section 4) and the reclamation
 * threshold. kmeans-high has many repeated updates per transaction
 * (the dedup stress case); vacation-low mixes its accesses.
 */
void
ablation(Invocation &inv)
{
    const WorkloadKind kinds[] = {WorkloadKind::KmeansHigh,
                                  WorkloadKind::VacationLow};
    const auto run_configured = [&](WorkloadKind kind,
                                    const core::SpecTxConfig &config) {
        return measuredRun(kind, inv.scale,
                           [&config](pmem::PmemPool &pool) {
                               return std::make_unique<core::SpecTx>(
                                   pool, 1, config);
                           });
    };

    std::printf("== Ablation 1: log block size ==\n");
    std::printf("%-16s%14s%14s%14s\n", "workload", "block (B)",
                "time (ms)", "peak log KB");
    for (const auto kind : kinds) {
        for (const std::size_t block : {256u, 1024u, 4096u, 16384u}) {
            core::SpecTxConfig config;
            config.backgroundReclaim = true;
            config.reclaimThresholdBytes = 8u << 20;
            config.logBlockSize = block;
            const auto result = run_configured(kind, config);
            std::printf("%-16s%14zu%14.2f%14zu\n",
                        workloads::workloadKindName(kind), block,
                        static_cast<double>(result.ns) / 1e6,
                        result.peakLogBytes / 1024);
        }
    }

    std::printf("\n== Ablation 2: last-update dedup (Section 4) ==\n");
    std::printf("(synthetic accumulator: each tx updates the same 4 "
                "slots 16 times)\n");
    std::printf("%-16s%14s%14s%14s\n", "workload", "dedup",
                "time (ms)", "peak log KB");
    for (const bool dedup : {true, false}) {
        pmem::PmemDevice dev(kDeviceBytes);
        pmem::PmemPool pool(dev);
        core::SpecTxConfig config;
        config.backgroundReclaim = false;
        config.dedupEntries = dedup;
        core::SpecTx tx(pool, 1, config);
        const PmOff data = pool.alloc(64);
        tx.txBegin(0);
        for (unsigned i = 0; i < 8; ++i)
            tx.txStoreT<std::uint64_t>(0, data + i * 8, 0);
        tx.txCommit(0);
        dev.clearStats();
        dev.timing().reset();
        for (unsigned t = 0; t < 20000; ++t) {
            tx.txBegin(0);
            for (unsigned i = 0; i < 16; ++i) {
                for (unsigned slot = 0; slot < 4; ++slot) {
                    tx.txStoreT<std::uint64_t>(0, data + slot * 8,
                                               t * 16 + i);
                }
            }
            tx.txCommit(0);
        }
        std::printf("%-16s%14s%14.2f%14zu\n", "accumulator",
                    dedup ? "on" : "off",
                    static_cast<double>(dev.timing().now()) / 1e6,
                    tx.peakLogBytes() / 1024);
    }

    std::printf("\n== Ablation 3: reclamation threshold ==\n");
    std::printf("%-16s%14s%14s%14s%14s\n", "workload", "thresh KB",
                "time (ms)", "peak log KB", "cycles");
    for (const auto kind : kinds) {
        for (const std::size_t threshold :
             {256u << 10, 1u << 20, 4u << 20, 32u << 20}) {
            core::SpecTxConfig config;
            config.backgroundReclaim = true;
            config.reclaimThresholdBytes = threshold;
            const auto result = run_configured(kind, config);
            std::printf("%-16s%14zu%14.2f%14zu%14llu\n",
                        workloads::workloadKindName(kind),
                        threshold >> 10,
                        static_cast<double>(result.ns) / 1e6,
                        result.peakLogBytes / 1024,
                        static_cast<unsigned long long>(
                            result.reclaimCycles));
        }
    }
}

struct Artifact
{
    const char *name;
    void (*run)(Invocation &);
    double defaultScale;
};

const Artifact kArtifacts[] = {
    {"table1", table1, 1.0},       {"table2", table2, 1.0},
    {"fig1", fig1, 1.0},           {"fig12", fig12, 1.0},
    {"fig13", fig13, 1.0},         {"fig14", fig14, 1.0},
    {"fig15", fig15, 1.0},         {"seq-vs-hash", seqVsHash, 1.0},
    {"ablation", ablation, 0.3},
};

[[noreturn]] void
usage(const std::string &bad)
{
    std::string names;
    for (const auto &artifact : kArtifacts)
        names += std::string(" ") + artifact.name;
    SPECPMT_FATAL("%s; usage: specfig [--scale=F] [--metrics-out=P] "
                  "[--trace-out=P] ARTIFACT... (ARTIFACT:%s all)",
                  bad.c_str(), names.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    obs::OutputFlags obs_flags;
    double scale = 0; // 0 = each artifact's default
    std::vector<std::string> names;
    Flags flags;
    flags.positionals(names).option("--scale", [&scale](std::string_view v) {
        return parseFinite(v, scale) && scale > 0
                   ? std::string()
                   : "bad scale: --scale=" + std::string(v);
    });
    obs_flags.declare(flags);
    if (const std::string error = flags.parse(argc, argv); !error.empty())
        usage(error);

    std::vector<const Artifact *> todo;
    for (const std::string &name : names) {
        if (name == "all") {
            for (const auto &artifact : kArtifacts)
                todo.push_back(&artifact);
            continue;
        }
        const auto it = std::find_if(
            std::begin(kArtifacts), std::end(kArtifacts),
            [&](const Artifact &a) { return name == a.name; });
        if (it == std::end(kArtifacts))
            usage("unknown argument: " + name);
        todo.push_back(it);
    }
    if (todo.empty())
        usage("no artifact given");

    Invocation inv;
    for (const Artifact *artifact : todo) {
        inv.scale = scale > 0 ? scale : artifact->defaultScale;
        artifact->run(inv);
    }
    if (const std::string error = obs_flags.writeArtifacts();
        !error.empty())
        SPECPMT_FATAL("%s", error.c_str());
    return 0;
}
