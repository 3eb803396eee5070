/**
 * @file
 * Benchmark harness: runs one workload repeatedly for a fixed number of
 * host seconds and prints its metrics, ending with one JSON result
 * line. See perfbench/README.md for the workloads and metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--commit SHA] [--spans-out FILE] [--test-sizes]
 *
 * --trace 0 reports the end-to-end metrics of untraced runs; --trace 1
 * alternates untraced and traced runs and reports the per-layer
 * metrics of the traced ones, plus the tracing overhead.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.hh"
#include "layers.hh"
#include "workloads.hh"

extern char **environ;

namespace {

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string commit = "unknown";
    std::string spansOut;
    bool testSizes = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "oltp_profiled|compute_mix|sensitivity_sweep --seed N "
                 "--seconds S --trace 0|1 [--commit SHA] "
                 "[--spans-out FILE] [--test-sizes]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--test-sizes") {
            a.testSizes = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (a.seconds <= 0)
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
            if (a.trace != 0 && a.trace != 1)
                usage("--trace must be 0 or 1");
        } else if (flag == "--commit") {
            a.commit = v;
        } else if (flag == "--spans-out") {
            a.spansOut = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad value for " + flag).c_str());
    }
    if (!haveWorkload)
        usage("--workload is required");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9);
    const auto r = static_cast<std::size_t>(std::max(rank, 1.0));
    return v[std::min(r, v.size()) - 1];
}

double
ratio(double a, double b)
{
    return b == 0 ? 0.0 : a / b;
}

/**
 * Memory high-water mark of this process image. VmHWM, unlike
 * getrusage's ru_maxrss, does not carry over the RSS of the process
 * that exec'd this one (a Python launcher's, say).
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

/** Settings under which the benchmark would measure another program. */
void
checkProvenance(Checks &checks)
{
    std::string overrides;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "LIMITPP_FORCE_", 14) == 0)
            overrides += std::string(overrides.empty() ? "" : " ") + *e;
    checks.expect(overrides.empty(),
                  "no LIMITPP_FORCE_* override is set (found: " +
                      overrides + ")");
    const std::string type = PERFBENCH_BUILD_TYPE;
    checks.expect(type == "Release" || type == "RelWithDebInfo",
                  "optimized build (build type is '" + type + "')");
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    checks.expect(false, "build without sanitizers");
#else
    checks.expect(true, "build without sanitizers");
#endif
}

/** Jobs of one benchmark run, by whether they were traced. */
struct Runs
{
    std::vector<JobResult> untraced;
    std::vector<JobResult> traced;
};

/**
 * The end-to-end metrics, from untraced runs and dedicated set-ups.
 *
 * Host times are reported as the quartile on the fast side (the lower
 * quartile of a time, the upper of a rate), not the median: on a shared
 * host, contention from other tenants only ever slows a run, comes and
 * goes over seconds, and its share of a run drifts over minutes. Runs
 * then fall into a fast and a slow mode, and the median of a run flips
 * between them; the fast-side quartile stays in the fast mode unless
 * three quarters of the run are slowed.
 */
std::vector<Metric>
endToEnd(const std::vector<JobResult> &runs,
         const std::vector<double> &setup)
{
    std::vector<double> wall, rate;
    for (const JobResult &r : runs) {
        wall.push_back(r.wallSec);
        rate.push_back(r.guestMinstrPerSec);
    }
    return {
        {"wall_s", "s", percentile(wall, 25)},
        {"setup_s", "s", percentile(setup, 25)},
        {"guest_minstr_per_s", "Minstr/s", percentile(rate, 75)},
        {"peak_rss_mb", "MB", peakRssMb()},
    };
}

/** The per-layer metrics, from traced runs (times are medians). */
std::vector<Metric>
perLayer(const Runs &runs, unsigned workers)
{
    const JobResult &last = runs.traced.back();
    const LayerCounts &c = last.counts;
    const BoundaryStats &bs = c.boundary;

    std::vector<double> build, run, self, access, syscall, poll, report,
        finalize, points, fanout;
    for (const JobResult &r : runs.traced) {
        const BoundaryStats &b = r.counts.boundary;
        build.push_back(r.times.bundleBuild);
        run.push_back(r.times.run);
        const double outside =
            static_cast<double>(b.kernelNs() + b.accessNs) * 1e-9;
        self.push_back(r.times.run - outside);
        access.push_back(static_cast<double>(b.accessNs) * 1e-9);
        syscall.push_back(static_cast<double>(b.syscallNs) * 1e-9);
        poll.push_back(static_cast<double>(b.pollNs) * 1e-9);
        report.push_back(r.times.report);
        finalize.push_back(r.times.timelineFinalize);
        points.insert(points.end(), r.times.points.begin(),
                      r.times.points.end());
        double pointSum = 0;
        for (double p : r.times.points)
            pointSum += p;
        fanout.push_back(ratio(pointSum, r.wallSec * workers));
    }
    std::vector<double> tracedWall, untracedWall;
    for (const JobResult &r : runs.traced)
        tracedWall.push_back(r.wallSec);
    for (const JobResult &r : runs.untraced)
        untracedWall.push_back(r.wallSec);

    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    const auto perCall = [](double sec, std::uint64_t calls) {
        return calls == 0 ? 0.0 : sec * 1e9 / static_cast<double>(calls);
    };
    const double accessSec = median(access);
    const double syscallSec = median(syscall);
    const limit::sim::SuperblockStats &sb = c.sb;
    const double sbOps =
        n(sb.opsReplayed) + n(sb.opsRecorded) + n(sb.stallBridges);
    const double untracedSec = median(untracedWall);

    return {
        {"analysis.bundle_build_s", "s", median(build)},
        {"analysis.point_s.p50", "s", percentile(points, 50)},
        {"analysis.point_s.p90", "s", percentile(points, 90)},
        {"analysis.fanout_efficiency", "ratio", median(fanout)},
        {"analysis.points", "count", n(last.times.points.size())},
        {"sim.run_s", "s", median(run)},
        {"sim.self_s", "s", median(self)},
        {"sim.batch_rounds", "count", n(c.batchRounds)},
        {"sim.ops_per_round", "ops", ratio(n(c.batchOps), n(c.batchRounds))},
        {"sim.sb_replay_ratio", "ratio", ratio(n(sb.opsReplayed), sbOps)},
        {"sim.sb_blocks_formed", "count", n(sb.blocksFormed)},
        {"sim.sb_entry_misses", "count", n(sb.entryMisses)},
        {"sim.sb_refused_faults", "count", n(sb.refusedFaults)},
        {"sim.sb_refused_pmi", "count", n(sb.refusedPmi)},
        {"sim.sb_refused_horizon", "count", n(sb.refusedHorizon)},
        {"sim.sb_refused_budget", "count", n(sb.refusedBudget)},
        {"sim.sb_refused_overflow", "count", n(sb.refusedOverflow)},
        {"sim.sb_refused_memview", "count", n(sb.refusedMemView)},
        {"mem.access_calls", "count", n(bs.accessCalls)},
        {"mem.access_s", "s", accessSec},
        {"mem.access_ns", "ns", perCall(accessSec, bs.accessCalls)},
        {"mem.fast_attempts", "count", n(bs.fastAttempts)},
        {"mem.fast_hit_ratio", "ratio",
         ratio(n(bs.fastHits), n(bs.fastAttempts))},
        {"mem.credited_accesses", "count", n(bs.creditedAccesses)},
        {"mem.l1_misses", "count", n(c.l1Misses)},
        {"mem.l2_misses", "count", n(c.l2Misses)},
        {"mem.llc_misses", "count", n(c.llcMisses)},
        {"mem.tlb_misses", "count", n(c.tlbMisses)},
        {"mem.tlb_miss_ratio", "ratio",
         ratio(n(c.tlbMisses), n(c.tlbMisses) + n(c.tlbHits))},
        {"os.syscalls", "count", n(bs.syscalls)},
        {"os.syscall_s", "s", syscallSec},
        {"os.syscall_ns", "ns", perCall(syscallSec, bs.syscalls)},
        {"os.polls", "count", n(bs.polls)},
        {"os.poll_s", "s", median(poll)},
        {"os.timer_ticks", "count", n(bs.timerTicks)},
        {"os.pmis", "count", n(bs.pmis)},
        {"os.context_switches", "count", n(c.contextSwitches)},
        {"sync.acquires", "count", n(c.syncAcquires)},
        {"sync.contended_ratio", "ratio",
         ratio(n(c.syncContended), n(c.syncAcquires))},
        {"pec.read_restarts", "count", n(c.pecReadRestarts)},
        {"pec.overflow_fixups", "count", n(c.pecOverflowFixups)},
        {"pec.double_check_retries", "count", n(c.pecDoubleCheckRetries)},
        {"pec.region_visits", "count", n(c.pecRegionVisits)},
        {"prof.report_s", "s", median(report)},
        {"prof.report_bytes", "bytes", n(c.reportBytes)},
        {"prof.timeline_finalize_s", "s", median(finalize)},
        {"workloads.units", "count", n(last.digest.units)},
        {"workloads.units_per_s", "1/s", ratio(n(last.digest.units),
                                               untracedSec)},
        {"trace.overhead_pct", "%",
         100.0 * (ratio(median(tracedWall), untracedSec) - 1.0)},
    };
}

void
printResult(bool correct, const Checks &checks,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(checks.attempted());
    out += ", \"failed\": " + std::to_string(checks.failed());
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const auto workload = parseWorkload(args.workload);
    if (!workload)
        usage(("unknown workload " + args.workload).c_str());

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const unsigned workers = std::min(4u, nproc);
    const JobConfig job =
        standardJob(*workload, args.seed, workers, args.testSizes);

    Checks checks;
    checkProvenance(checks);
    if (checks.failed() != 0) {
        for (const std::string &f : checks.failures())
            std::printf("FAILED check: %s\n", f.c_str());
        std::printf("refusing to run: these settings change the program "
                    "being measured\n");
        printResult(false, checks, {});
        return 3;
    }

    // Warm-up and oracle check in one: a short prefix of the job, once
    // on the default execution path and once on the per-op reference
    // loop; their simulated digests must agree.
    JobConfig prefix = job;
    prefix.horizon = std::max<limit::sim::Tick>(job.horizon / 20, 1'000'000);
    prefix.sweepSeeds = 1;
    const JobResult fast = runJob(prefix, nullptr);
    prefix.batched = false;
    const JobResult oracle = runJob(prefix, nullptr);
    checks.expectEq("per-op oracle prefix digest", oracle.digest,
                    fast.digest);
    checkJob(fast, checks);
    checkJob(oracle, checks);

    // Set-up alone is short, so it is measured many times over, a few
    // set-ups after each timed job to sample the host's state all
    // through the run.
    JobConfig setupOnly = job;
    setupOnly.setupOnly = true;
    const unsigned setupsPerJob =
        *workload == Workload::SensitivitySweep ? 2 : 20;

    Runs runs;
    SpanRecorder spans;
    std::vector<double> setups;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
    do {
        runs.untraced.push_back(runJob(job, nullptr));
        if (!args.trace)
            for (unsigned i = 0; i < setupsPerJob; ++i)
                setups.push_back(runJob(setupOnly, nullptr).setupSec);
        if (args.trace && (runs.traced.empty() || nowNs() < deadline))
            runs.traced.push_back(runJob(job, &spans));
    } while (nowNs() < deadline);

    if (args.trace && !args.spansOut.empty()) {
        std::ofstream out(args.spansOut);
        out << spans.toJson();
        checks.expect(static_cast<bool>(out),
                      "spans written to " + args.spansOut);
    }

    // Correctness, evaluated outside the timed jobs.
    const Digest &expected = runs.untraced.front().digest;
    for (const JobResult &r : runs.untraced) {
        checkJob(r, checks);
        checks.expectEq("repeat run digest", expected, r.digest);
    }
    for (const JobResult &r : runs.traced) {
        checkJob(r, checks);
        checks.expectEq("traced run digest equals untraced", expected,
                        r.digest);
    }

    const JobResult &first = runs.untraced.front();
    std::printf("perfbench %s seed=%llu horizon=%llu%s workers=%u "
                "nproc=%u build=%s commit=%s batched=%d superblocks=%d "
                "shards=%u runs=%zu traced=%zu\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(job.horizon),
                *workload == Workload::SensitivitySweep ? "/point" : "",
                workers,
                nproc, PERFBENCH_BUILD_TYPE, args.commit.c_str(),
                first.batchedEffective, first.superblocksEffective,
                first.shardsEffective, runs.untraced.size(),
                runs.traced.size());
    std::printf("modelled caches start empty in every job; the model is "
                "not validated against real hardware\n");
    for (const std::string &f : checks.failures())
        std::printf("FAILED check: %s\n", f.c_str());

    // The spread behind each figure.
    std::vector<double> wall, rate;
    std::printf("  wall_s of each run:");
    for (const JobResult &r : runs.untraced) {
        wall.push_back(r.wallSec);
        rate.push_back(r.guestMinstrPerSec);
        std::printf(" %.3f", r.wallSec);
    }
    std::printf("\n");
    for (const auto &[what, v] :
         {std::pair{"wall_s", wall}, std::pair{"setup_s", setups},
          std::pair{"guest_minstr_per_s", rate}})
        if (!v.empty())
            std::printf("  %-22s n=%zu min %.6g q1 %.6g median %.6g q3 "
                        "%.6g max %.6g\n",
                        what, v.size(), percentile(v, 0), percentile(v, 25),
                        median(v), percentile(v, 75), percentile(v, 100));

    const std::vector<Metric> metrics =
        args.trace ? perLayer(runs, workers)
                   : endToEnd(runs.untraced, setups);
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    printResult(checks.failed() == 0, checks, metrics);
    return 0;
}
