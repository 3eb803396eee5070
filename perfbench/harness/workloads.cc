#include "workloads.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>

#include "analysis/bundle.hh"
#include "analysis/runner.hh"
#include "analysis/sensitivity/engine.hh"
#include "analysis/sensitivity/param_space.hh"
#include "guard/fingerprint.hh"
#include "mem/hierarchy.hh"
#include "pec/pec.hh"
#include "prof/report.hh"
#include "prof/sync_profile.hh"
#include "prof/timeline.hh"
#include "workloads/browser.hh"
#include "workloads/kernels.hh"
#include "workloads/oltp.hh"

namespace perfbench {

using namespace limit;
using analysis::BundleOptions;
using analysis::SimBundle;

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::OltpProfiled: return "oltp_profiled";
      case Workload::ComputeMix: return "compute_mix";
      case Workload::SensitivitySweep: return "sensitivity_sweep";
    }
    return "?";
}

std::optional<Workload>
parseWorkload(const std::string &name)
{
    for (Workload w : {Workload::OltpProfiled, Workload::ComputeMix,
                       Workload::SensitivitySweep})
        if (name == workloadName(w))
            return w;
    return std::nullopt;
}

JobConfig
standardJob(Workload w, std::uint64_t seed, unsigned workers, bool test)
{
    JobConfig c;
    c.workload = w;
    c.seed = seed;
    c.workers = workers;
    switch (w) {
      case Workload::OltpProfiled:
        c.horizon = test ? 20'000'000 : 1'000'000'000;
        break;
      case Workload::ComputeMix:
        c.horizon = test ? 4'000'000 : 200'000'000;
        c.workingSetBytes = test ? (1ull << 20) : (64ull << 20);
        break;
      case Workload::SensitivitySweep:
        c.horizon = test ? 1'000'000 : 20'000'000;
        c.sweepSeeds = test ? 1 : 10;
        break;
    }
    return c;
}

std::ostream &
operator<<(std::ostream &os, const Digest &d)
{
    return os << "{hash " << std::hex << d.hash << std::dec << ", instr "
              << d.instructions << ", cycles " << d.cycles << ", units "
              << d.units << "}";
}

void
LayerCounts::add(const LayerCounts &o)
{
    boundary += o.boundary;
    batchRounds += o.batchRounds;
    batchOps += o.batchOps;
    sb.blocksFormed += o.sb.blocksFormed;
    sb.entries += o.sb.entries;
    sb.fullCommits += o.sb.fullCommits;
    sb.partialFlushes += o.sb.partialFlushes;
    sb.entryMisses += o.sb.entryMisses;
    sb.opsReplayed += o.sb.opsReplayed;
    sb.opsRecorded += o.sb.opsRecorded;
    sb.stallBridges += o.sb.stallBridges;
    sb.refusedFaults += o.sb.refusedFaults;
    sb.refusedPmi += o.sb.refusedPmi;
    sb.refusedHorizon += o.sb.refusedHorizon;
    sb.refusedBudget += o.sb.refusedBudget;
    sb.refusedOverflow += o.sb.refusedOverflow;
    sb.refusedMemView += o.sb.refusedMemView;
    l1Misses += o.l1Misses;
    l2Misses += o.l2Misses;
    llcMisses += o.llcMisses;
    tlbMisses += o.tlbMisses;
    tlbHits += o.tlbHits;
    contextSwitches += o.contextSwitches;
    syncAcquires += o.syncAcquires;
    syncContended += o.syncContended;
    pecReadRestarts += o.pecReadRestarts;
    pecOverflowFixups += o.pecOverflowFixups;
    pecDoubleCheckRetries += o.pecDoubleCheckRetries;
    pecRegionVisits += o.pecRegionVisits;
    reportBytes += o.reportBytes;
}

namespace {

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** PEC counters every job programs: 0 for regions, 1 user-only. */
constexpr unsigned cyclesCtr = 0;
constexpr unsigned userInstrCtr = 1;

void
programCounters(pec::PecSession &session)
{
    session.addEvent(cyclesCtr, sim::EventType::Cycles, true, true);
    session.addEvent(userInstrCtr, sim::EventType::Instructions, true,
                     false);
}

/** Build one simulation's bundle, timed as analysis.bundle_build. */
std::unique_ptr<SimBundle>
buildBundle(const BundleOptions &options, SpanRecorder *spans,
            JobResult &r)
{
    ScopedSpan s(spans, "analysis.bundle_build");
    const std::int64_t t0 = nowNs();
    auto b = std::make_unique<SimBundle>(options);
    r.times.bundleBuild = secondsSince(t0);
    return b;
}

/** Note the effective execution mode of a machine about to run. */
void
noteMode(sim::Machine &m, JobResult &r)
{
    r.batchedEffective = m.config().batched &&
                         sim::batchedExecutionDefault() &&
                         sim::ScopedExecutionClamp::batchedAllowed();
    r.superblocksEffective = m.superblocksEnabled();
    r.shardsEffective = m.effectiveShards();
}

/** SimBundle::run, behind the boundary decorators on a traced run. */
sim::Tick
runMachine(SimBundle &b, sim::Tick horizon, SpanRecorder *spans,
           JobResult &r)
{
    std::optional<BoundaryTap> tap;
    if (spans)
        tap.emplace(b, r.counts.boundary);
    ScopedSpan span(spans, "sim.run");
    const double cpu0 = threadCpuSec();
    const std::int64_t t0 = nowNs();
    const sim::Tick end = b.run(horizon);
    r.times.run = secondsSince(t0);
    r.simCpuSec = threadCpuSec() - cpu0;
    r.worker = std::this_thread::get_id();
    return end;
}

/** Read one finished simulation's outcome and exact counts into `r`. */
void
harvest(JobResult &r, SimBundle &b, sim::Tick end, std::uint64_t units,
        pec::PecSession &session, const pec::RegionProfiler *regions,
        const prof::SyncProfile *sync)
{
    os::Kernel &kernel = b.kernel();
    sim::Machine &machine = b.machine();

    guard::Fingerprint fp;
    guard::foldRun(fp, kernel, machine, end);
    fp.mix(units);
    r.digest.hash = fp.hash;
    r.digest.instructions =
        analysis::totalEvent(kernel, sim::EventType::Instructions);
    r.digest.cycles = analysis::totalEvent(kernel, sim::EventType::Cycles);
    r.digest.units = units;
    r.guestMinstrPerSec =
        r.simCpuSec > 0 ? static_cast<double>(r.digest.instructions) /
                              r.simCpuSec / 1e6
                        : 0.0;
    r.machinesRun = r.machinesExpected = 1;

    LayerCounts &c = r.counts;
    c.batchRounds = machine.batchRounds();
    c.batchOps = machine.batchOps();
    c.sb = machine.superblockStats();
    if (mem::CacheHierarchy *h = b.hierarchy()) {
        for (unsigned core = 0; core < machine.numCores(); ++core) {
            c.l1Misses += h->l1d(core).misses();
            c.l2Misses += h->l2(core).misses();
            c.tlbMisses += h->dtlb(core).misses();
            c.tlbHits += h->dtlb(core).hits();
        }
        c.llcMisses = h->llc().misses();
    }
    c.contextSwitches = kernel.totalContextSwitches();
    c.pecReadRestarts = session.readRestarts();
    c.pecOverflowFixups = session.overflowFixups();
    c.pecDoubleCheckRetries = session.doubleCheckRetries();
    if (regions)
        for (sim::RegionId id : regions->regions())
            c.pecRegionVisits += regions->stats(id).entries;
    if (sync)
        for (const auto &[key, site] : sync->sites()) {
            c.syncAcquires += site.acquisitions;
            c.syncContended += site.contended;
        }

    for (unsigned t = 0; t < kernel.numThreads(); ++t) {
        os::Thread &th = kernel.thread(t);
        r.precise.push_back(PreciseCount{
            th.ctx.name(), session.threadTotal(th, userInstrCtr),
            th.ctx.ledger().count(sim::EventType::Instructions,
                                  sim::PrivMode::User)});
    }
}

/**
 * One OLTP simulation: E5's server shape with calibrated lock regions
 * and per-call-site sync attribution, a timeline, and a profile report.
 */
JobResult
runOltp(const JobConfig &cfg, SpanRecorder *spans)
{
    JobResult r;
    const std::int64_t t0 = nowNs();
    ScopedSpan point(spans, "analysis.point");
    auto b = buildBundle(BundleOptions::builder()
                             .cores(4)
                             .seed(1 + cfg.seed)
                             .timelineInterval(65536)
                             .batched(cfg.batched)
                             .build(),
                         spans, r);
    pec::PecSession session(b->kernel());
    programCounters(session);
    pec::RegionProfilerConfig rc;
    rc.counters = {cyclesCtr};
    pec::RegionProfiler regions(session, rc);
    b->kernel().spawn("calibrate", [&](sim::Guest &g) -> sim::Task<void> {
        co_await regions.calibrate(g);
    });
    prof::SyncProfile sync;
    workloads::OltpConfig oc;
    oc.clients = 6;
    oc.readRatio = 0.5;
    workloads::OltpServer oltp(b->machine(), b->kernel(), oc,
                               1234 + cfg.seed);
    oltp.attachProfiler(&regions);
    oltp.attachSyncProfile(&sync);
    oltp.spawn();
    noteMode(b->machine(), r);
    r.setupSec = secondsSince(t0);
    if (cfg.setupOnly)
        return r;

    const sim::Tick end = runMachine(*b, cfg.horizon, spans, r);

    std::size_t phases = 0;
    {
        prof::Report report;
        report.meta("workload", "oltp_profiled");
        report.addSync("oltp", sync,
                       analysis::totalEvent(b->kernel(),
                                            sim::EventType::Cycles),
                       oltp.committed());
        report.addOpenRegions(regions, b->machine().regions());
        {
            // The timeline is its own artifact (as --timeline writes
            // it), so its section stays out of the profile report.
            ScopedSpan s(spans, "prof.timeline_finalize");
            const std::int64_t tf = nowNs();
            b->timeline()->finalize(b->machine().maxTime());
            phases =
                prof::buildTimeline("oltp", *b->timeline()).phases.size();
            r.times.timelineFinalize = secondsSince(tf);
        }
        ScopedSpan s(spans, "prof.report");
        const std::int64_t tr = nowNs();
        r.counts.reportBytes = report.toJson().size();
        r.times.report = secondsSince(tr);
    }
    r.wallSec = secondsSince(t0);
    r.times.points.push_back(r.wallSec);
    r.facts.emplace_back("profile report emitted", r.counts.reportBytes > 0);
    r.facts.emplace_back("timeline segmented into phases", phases > 0);
    harvest(r, *b, end, oltp.committed(), session, &regions, &sync);
    return r;
}

/** One simulation of four compute kernels, one per guest core. */
JobResult
runCompute(const JobConfig &cfg, SpanRecorder *spans)
{
    JobResult r;
    const std::int64_t t0 = nowNs();
    ScopedSpan point(spans, "analysis.point");
    auto b = buildBundle(BundleOptions::builder()
                             .cores(4)
                             .seed(1 + cfg.seed)
                             .batched(cfg.batched)
                             .build(),
                         spans, r);
    pec::PecSession session(b->kernel());
    programCounters(session);
    std::vector<std::unique_ptr<workloads::ComputeKernel>> kernels;
    std::uint64_t i = 0;
    for (workloads::KernelKind kind :
         {workloads::KernelKind::Stream, workloads::KernelKind::PtrChase,
          workloads::KernelKind::MatMul, workloads::KernelKind::SortLike}) {
        kernels.push_back(std::make_unique<workloads::ComputeKernel>(
            b->kernel(), kind, cfg.workingSetBytes, 777 + cfg.seed + i++));
        kernels.back()->spawn();
    }
    noteMode(b->machine(), r);
    r.setupSec = secondsSince(t0);
    if (cfg.setupOnly)
        return r;

    const sim::Tick end = runMachine(*b, cfg.horizon, spans, r);
    r.wallSec = secondsSince(t0);
    r.times.points.push_back(r.wallSec);
    std::uint64_t iterations = 0;
    for (const auto &k : kernels)
        iterations += k->iterations();
    harvest(r, *b, end, iterations, session, nullptr, nullptr);
    return r;
}

/** One sweep lattice point: an instrumented browser simulation. */
JobResult
runBrowser(const BundleOptions &options, const JobConfig &cfg,
           SpanRecorder *spans)
{
    JobResult r;
    const std::int64_t t0 = nowNs();
    ScopedSpan point(spans, "analysis.point");
    auto b = buildBundle(options, spans, r);
    pec::PecSession session(b->kernel());
    programCounters(session);
    pec::RegionProfilerConfig rc;
    rc.counters = {cyclesCtr};
    pec::RegionProfiler regions(session, rc);
    b->kernel().spawn("calibrate", [&](sim::Guest &g) -> sim::Task<void> {
        co_await regions.calibrate(g);
    });
    prof::SyncProfile sync;
    workloads::BrowserLoop browser(b->machine(), b->kernel(),
                                   workloads::BrowserConfig{},
                                   1234 + options.seed);
    browser.attachProfiler(&regions);
    browser.attachSyncProfile(&sync);
    browser.spawn();
    noteMode(b->machine(), r);
    r.setupSec = secondsSince(t0);
    if (cfg.setupOnly)
        return r;

    const sim::Tick end = runMachine(*b, cfg.horizon, spans, r);
    r.wallSec = secondsSince(t0);
    r.times.points.push_back(r.wallSec);
    harvest(r, *b, end, browser.totalEvents(), session, &regions, &sync);
    return r;
}

/**
 * Sum the simulations of one job, in a fixed order: digests fold in
 * that order, and guest_minstr_per_s sums the rate of each worker.
 */
JobResult
combine(Workload w, const std::vector<JobResult> &parts)
{
    JobResult r;
    r.workload = w;
    guard::Fingerprint fp;
    std::map<std::thread::id, std::pair<double, double>> perWorker;
    for (const JobResult &p : parts) {
        r.setupSec += p.setupSec;
        fp.mix(p.digest.hash);
        r.digest.instructions += p.digest.instructions;
        r.digest.cycles += p.digest.cycles;
        r.digest.units += p.digest.units;
        r.counts.add(p.counts);
        r.times.bundleBuild += p.times.bundleBuild;
        r.times.run += p.times.run;
        r.times.report += p.times.report;
        r.times.timelineFinalize += p.times.timelineFinalize;
        r.times.points.insert(r.times.points.end(), p.times.points.begin(),
                              p.times.points.end());
        r.precise.insert(r.precise.end(), p.precise.begin(),
                         p.precise.end());
        r.facts.insert(r.facts.end(), p.facts.begin(), p.facts.end());
        r.machinesRun += p.machinesRun;
        auto &worker = perWorker[p.worker];
        worker.first += static_cast<double>(p.digest.instructions);
        worker.second += p.simCpuSec;
    }
    r.digest.hash = fp.hash;
    for (const auto &[id, w] : perWorker)
        if (w.second > 0)
            r.guestMinstrPerSec += w.first / w.second / 1e6;
    if (!parts.empty()) {
        r.batchedEffective = parts.front().batchedEffective;
        r.superblocksEffective = parts.front().superblocksEffective;
        r.shardsEffective = parts.front().shardsEffective;
    }
    return r;
}

/**
 * One simulation per worker, all at once, each with its own seed: the
 * way the benches fan their seeds out. Each simulation alone is
 * single-threaded, and a lone busy thread on a shared host runs at
 * whatever speed the other tenants leave it, which drifts by tens of
 * percent over minutes; with every worker busy the host holds one
 * steady state.
 */
JobResult
fanOut(const JobConfig &cfg, SpanRecorder *spans,
       JobResult (*single)(const JobConfig &, SpanRecorder *))
{
    auto jobConfig = [&](std::size_t i) {
        JobConfig c = cfg;
        c.seed = cfg.seed * 1'000'003 + i;
        return c;
    };
    const std::int64_t t0 = nowNs();
    std::vector<JobResult> parts;
    {
        ScopedSpan job(spans,
                       std::string("job.") + workloadName(cfg.workload));
        if (cfg.setupOnly) {
            for (std::size_t i = 0; i < cfg.workers; ++i)
                parts.push_back(single(jobConfig(i), nullptr));
        } else {
            if (spans)
                spans->adopt(job.index());
            parts = analysis::ParallelRunner(cfg.workers)
                        .map(cfg.workers, [&](std::size_t i) {
                            return single(jobConfig(i), spans);
                        });
            if (spans)
                spans->adopt(-1);
        }
    }
    JobResult r = combine(cfg.workload, parts);
    r.wallSec = secondsSince(t0);
    r.machinesExpected = cfg.workers;
    return r;
}

/** Key of one lattice job: its machine configuration and seed. */
std::uint64_t
pointKey(const BundleOptions &o, std::uint64_t seed)
{
    guard::Fingerprint fp;
    for (const auto &[name, value] : mem::configFields(o.hierarchy)) {
        (void)name;
        fp.mix(value);
    }
    fp.mix(seed);
    return fp.hash;
}

JobResult
runSweep(const JobConfig &cfg, SpanRecorder *spans)
{
    using analysis::sensitivity::Axis;
    using analysis::sensitivity::Measurement;

    const std::int64_t t0 = nowNs();
    ScopedSpan job(spans, "job.sensitivity_sweep");
    analysis::sensitivity::ParamSpace space(
        BundleOptions::builder().cores(4).batched(cfg.batched).build());
    space.add(Axis::l1Size({16 * 1024, 64 * 1024}))
        .add(Axis::l2Latency({6, 24}))
        .add(Axis::llcSize({4 << 20, 16 << 20}))
        .add(Axis::memLatency({110, 440}))
        .add(Axis::tlbEntries({32, 128}));
    analysis::sensitivity::Options opts;
    opts.scenario = "browser";
    opts.workMetric = "events";
    opts.seeds = cfg.sweepSeeds;
    opts.jobs = cfg.workers;

    std::mutex mu;
    std::vector<std::pair<std::uint64_t, JobResult>> keyed;
    auto point = [&](const BundleOptions &base,
                     std::uint64_t seed) -> Measurement {
        const BundleOptions options = BundleOptions::Builder::from(base)
                                          .seed(cfg.seed * 1'000'003 + seed)
                                          .build();
        JobResult p = runBrowser(options, cfg, spans);
        Measurement m;
        m.work = static_cast<double>(p.digest.units);
        std::lock_guard<std::mutex> lock(mu);
        keyed.emplace_back(pointKey(base, seed), std::move(p));
        return m;
    };

    prof::Report::SensitivitySection section;
    if (cfg.setupOnly) {
        for (unsigned seed = 1; seed <= opts.seeds; ++seed) {
            point(space.base(), seed);
            for (const auto &p : space.points())
                point(p.options, seed);
        }
    } else {
        ScopedSpan s(spans, "analysis.analyze");
        if (spans)
            spans->adopt(s.index());
        section = analysis::sensitivity::analyze(space, point, opts);
        if (spans)
            spans->adopt(-1);
    }
    std::uint64_t reportBytes = 0;
    double reportSec = 0;
    if (!cfg.setupOnly) {
        ScopedSpan s(spans, "prof.report");
        const std::int64_t tr = nowNs();
        prof::Report report;
        report.schema("limitpp-sensitivity-v1");
        report.addSensitivity(section);
        reportBytes = report.toJson().size();
        reportSec = secondsSince(tr);
    }
    const double wallSec = secondsSince(t0);

    // Lattice order, whatever order the workers finished in.
    std::sort(keyed.begin(), keyed.end(), [](const auto &a, const auto &b) {
        return a.first < b.first;
    });
    std::vector<JobResult> parts;
    for (auto &[key, p] : keyed)
        parts.push_back(std::move(p));
    JobResult r = combine(cfg.workload, parts);
    r.wallSec = wallSec;
    r.times.report = reportSec;
    r.counts.reportBytes = reportBytes;
    r.machinesExpected = (1 + space.points().size()) * opts.seeds;
    bool ranked = section.axes.size() == space.axes().size();
    for (const auto &axis : section.axes)
        ranked = ranked && !axis.levels.empty();
    r.facts.emplace_back("sensitivity section ranks every axis", ranked);
    r.facts.emplace_back("sensitivity report emitted", reportBytes > 0);
    return r;
}

} // namespace

JobResult
runJob(const JobConfig &config, SpanRecorder *spans)
{
    switch (config.workload) {
      case Workload::OltpProfiled: return fanOut(config, spans, runOltp);
      case Workload::ComputeMix: return fanOut(config, spans, runCompute);
      case Workload::SensitivitySweep: return runSweep(config, spans);
    }
    return {};
}

void
checkJob(const JobResult &r, Checks &checks)
{
    for (const PreciseCount &p : r.precise)
        checks.expectEq("PEC user instructions == ledger on thread " +
                            p.thread,
                        p.ledger, p.pec);
    for (const auto &[what, ok] : r.facts)
        checks.expect(ok, what);
    checks.expect(r.digest.units > 0, "the job completed work units");
    checks.expectEq("machines run", r.machinesExpected, r.machinesRun);
}

} // namespace perfbench
