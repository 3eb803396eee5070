/**
 * @file
 * The benchmark's three fixed-size simulation jobs and what one run of
 * a job measures. See perfbench/README.md for why each job is here and
 * which layers it stresses.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.hh"
#include "layers.hh"
#include "sim/superblock.hh"
#include "sim/types.hh"

namespace perfbench {

enum class Workload { OltpProfiled, ComputeMix, SensitivitySweep };

const char *workloadName(Workload w);
std::optional<Workload> parseWorkload(const std::string &name);

/** Size and mode of one job. */
struct JobConfig
{
    Workload workload = Workload::OltpProfiled;
    /** Benchmark seed; every guest input derives from it. */
    std::uint64_t seed = 1;
    /** Simulated ticks per machine (per lattice point for the sweep). */
    limit::sim::Tick horizon = 0;
    /** compute_mix: working set of each kernel. */
    std::uint64_t workingSetBytes = 64ull << 20;
    /** sensitivity_sweep: seeds per lattice point. */
    unsigned sweepSeeds = 10;
    /** Fan-out workers. oltp_profiled and compute_mix run one job per
        worker at once, each with its own seed. */
    unsigned workers = 1;
    /** false runs the per-op reference loop (the oracle). */
    bool batched = true;
    /** Build the machines and spawn the guests, then stop: only
        JobResult::setupSec is measured. */
    bool setupOnly = false;
};

/** The standard sizes (`test` shrinks them for the self-tests). */
JobConfig standardJob(Workload w, std::uint64_t seed, unsigned workers,
                      bool test);

/** Condensed simulated outcome; equal across modes and tracing. */
struct Digest
{
    std::uint64_t hash = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t units = 0;

    bool operator==(const Digest &) const = default;
};

std::ostream &operator<<(std::ostream &os, const Digest &d);

/** One thread's user-mode instruction count, as PEC and ledger see it. */
struct PreciseCount
{
    std::string thread;
    std::uint64_t pec = 0;
    std::uint64_t ledger = 0;
};

/** Exact per-layer counts of one job, summed over its machines. */
struct LayerCounts
{
    BoundaryStats boundary;
    std::uint64_t batchRounds = 0;
    std::uint64_t batchOps = 0;
    limit::sim::SuperblockStats sb;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t syncAcquires = 0;
    std::uint64_t syncContended = 0;
    std::uint64_t pecReadRestarts = 0;
    std::uint64_t pecOverflowFixups = 0;
    std::uint64_t pecDoubleCheckRetries = 0;
    std::uint64_t pecRegionVisits = 0;
    std::uint64_t reportBytes = 0;

    void add(const LayerCounts &o);
};

/** Host times of one job's layer calls (seconds). */
struct LayerTimes
{
    double bundleBuild = 0;
    /** Summed SimBundle::run wall time. */
    double run = 0;
    double report = 0;
    double timelineFinalize = 0;
    /** Wall time of each machine, set-up to harvest. */
    std::vector<double> points;
};

/** Everything one run of a job measured. */
struct JobResult
{
    Workload workload = Workload::OltpProfiled;
    /** Set-up, simulation and report, as the user waits for them. */
    double wallSec = 0;
    /** Before the first simulated tick, summed over the machines. */
    double setupSec = 0;
    /** Guest instructions per host CPU second of the simulate phase,
        summed over workers. */
    double guestMinstrPerSec = 0;
    /** Host CPU seconds of SimBundle::run, and the thread that ran it
        (single simulations). */
    double simCpuSec = 0;
    std::thread::id worker;
    Digest digest;
    LayerCounts counts;
    LayerTimes times;
    /** Per-thread user instruction counts for the precise-count check. */
    std::vector<PreciseCount> precise;
    /** Other outcomes to check, recorded while the job ran. */
    std::vector<std::pair<std::string, bool>> facts;
    /** Machines (fanned-out jobs or lattice points) run vs. expected. */
    std::uint64_t machinesRun = 0;
    std::uint64_t machinesExpected = 0;
    /** Effective execution mode of the (first) machine. */
    bool batchedEffective = false;
    bool superblocksEffective = false;
    unsigned shardsEffective = 0;
};

/**
 * Run one job. A non-null `spans` makes it a traced run: spans around
 * the layer calls, and boundary decorators on every machine.
 */
JobResult runJob(const JobConfig &config, SpanRecorder *spans);

/** Evaluate the correctness checks one job result carries. */
void checkJob(const JobResult &r, Checks &checks);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
