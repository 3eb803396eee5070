/**
 * @file
 * Superblock replay cache equivalence tests.
 *
 * The decoded-op superblock cache (sim/superblock.hh, DESIGN.md
 * "Superblock replay") retires whole loop bodies with precomputed
 * event-delta prefix sums instead of per-op bookkeeping. Its contract
 * is bit-identity: every scenario here runs three ways — superblocks
 * on, superblocks off (--no-superblock's effect, via
 * BundleOptions::superblocks), and the per-op reference scheduler —
 * and compares the whole observable machine state field by field,
 * exactly like tests/test_batch.cc does for horizon batching. The
 * shapes deliberately stress the replay seams: PMI storms splitting
 * replays, counter overflow landing at block boundaries, futex sleeps
 * and wakeups in the middle of a hot loop, and fault plans that must
 * fire at the same op regardless of execution strategy.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/bundle.hh"
#include "exec_modes.hh"
#include "fault/plan.hh"
#include "os/sysno.hh"
#include "pec/pec.hh"
#include "sim/machine.hh"
#include "sim/superblock.hh"
#include "stream_job.hh"
#include "sync/mutex.hh"
#include "trace/trace.hh"

namespace limit {
namespace {

using fault::FaultSpec;
using fault::Plan;
using fault::PlanController;
using fault::Site;
using sim::EventType;
using sim::Guest;
using sim::PrivMode;
using sim::Task;

/** The three execution strategies every scenario must agree across. */
enum class Mode
{
    Superblock, ///< batched + superblock replay cache
    NoSuperblock, ///< batched, cache disabled (--no-superblock)
    PerOp, ///< per-op reference scheduler (--no-batch)
};

analysis::BundleOptions::Builder
builderFor(Mode mode)
{
    analysis::BundleOptions::Builder b;
    b.batched(mode != Mode::PerOp);
    b.superblocks(mode == Mode::Superblock);
    return b;
}

/** Everything observable about a finished run. */
struct Fingerprint
{
    sim::Tick end = 0;
    std::uint64_t switches = 0;
    /** thread-major, then mode-major, then event: exact ledgers. */
    std::vector<std::uint64_t> ledgers;
    /** core-major, then counter index: final PMU values. */
    std::vector<std::uint64_t> pmuFinals;
    std::vector<trace::TraceRecord> records;
    sim::SuperblockStats sb{};
};

Fingerprint
collect(analysis::SimBundle &b, sim::Tick end)
{
    Fingerprint fp;
    fp.end = end;
    fp.switches = b.kernel().totalContextSwitches();
    for (unsigned t = 0; t < b.kernel().numThreads(); ++t) {
        const auto &ledger = b.kernel().thread(t).ctx.ledger();
        for (unsigned m = 0; m < 2; ++m) {
            for (unsigned e = 0; e < sim::numEventTypes; ++e) {
                fp.ledgers.push_back(
                    ledger.count(static_cast<EventType>(e),
                                 static_cast<PrivMode>(m)));
            }
        }
    }
    for (unsigned c = 0; c < b.machine().numCores(); ++c) {
        const auto &pmu = b.machine().cpu(c).pmu();
        for (unsigned k = 0; k < pmu.numCounters(); ++k)
            fp.pmuFinals.push_back(pmu.read(k));
    }
    if (b.tracer() != nullptr)
        fp.records = b.tracer()->merged();
    fp.sb = b.machine().superblockStats();
    return fp;
}

void
expectIdentical(const Fingerprint &a, const Fingerprint &b,
                const char *what)
{
    EXPECT_EQ(a.end, b.end) << what;
    EXPECT_EQ(a.switches, b.switches) << what;
    EXPECT_EQ(a.ledgers, b.ledgers) << what;
    EXPECT_EQ(a.pmuFinals, b.pmuFinals) << what;
    ASSERT_EQ(a.records.size(), b.records.size()) << what;
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const trace::TraceRecord &ra = a.records[i];
        const trace::TraceRecord &rb = b.records[i];
        EXPECT_EQ(ra.tick, rb.tick) << what << " record " << i;
        EXPECT_EQ(ra.a0, rb.a0) << what << " record " << i;
        EXPECT_EQ(ra.a1, rb.a1) << what << " record " << i;
        EXPECT_EQ(ra.tid, rb.tid) << what << " record " << i;
        EXPECT_EQ(ra.core, rb.core) << what << " record " << i;
        EXPECT_EQ(static_cast<unsigned>(ra.event),
                  static_cast<unsigned>(rb.event))
            << what << " record " << i;
    }
}

/** Run one scenario all three ways and demand identical state. */
template <typename RunFn>
void
threeWay(RunFn run, bool expect_replays = true)
{
    const Fingerprint sb = run(Mode::Superblock);
    const Fingerprint nosb = run(Mode::NoSuperblock);
    const Fingerprint perop = run(Mode::PerOp);
    expectIdentical(sb, nosb, "superblock vs no-superblock");
    expectIdentical(sb, perop, "superblock vs per-op");
    // The superblock run must actually have replayed something —
    // otherwise the equivalence above proved nothing about the cache.
    if (expect_replays && superblocksActive()) {
        EXPECT_GT(sb.sb.opsReplayed, 0u) << "scenario never replayed";
        EXPECT_GT(sb.sb.blocksFormed, 0u);
    }
    EXPECT_EQ(nosb.sb.opsReplayed, 0u);
    EXPECT_EQ(perop.sb.opsReplayed, 0u);
}

// ---------------------------------------------------------------------
// Hot-loop shape: the bread-and-butter replay case, plus PMC reads
// that interrupt the loop at fixed points
// ---------------------------------------------------------------------

Fingerprint
runHotLoop(Mode mode)
{
    analysis::SimBundle b(builderFor(mode)
                              .cores(2)
                              .quantum(20'000)
                              .seed(31)
                              .build());
    for (unsigned i = 0; i < 3; ++i) {
        b.kernel().spawn(
            "hot" + std::to_string(i),
            [](Guest &g) -> Task<void> {
                const sim::Addr base = 0x100000 + g.tid() * 0x40000;
                sim::ComputeProfile p{
                    .branchFrac = 0.06, .mispredictRate = 0.01};
                std::uint64_t sum = 0;
                for (unsigned s = 0; s < 3'000; ++s) {
                    co_await g.load(base + (s % 512) * 8);
                    co_await g.store(base + (s % 512) * 8 + 8);
                    co_await g.compute(6, p);
                    if (s % 256 == 0)
                        sum += co_await g.pmcRead(0);
                }
                (void)sum;
            });
    }
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(SuperblockEquivalence, HotLoopBitIdentical)
{
    threeWay(runHotLoop);
}

// ---------------------------------------------------------------------
// Overflow-storm shape: narrow counters wrap mid-replay, so pending
// PMIs and the no-wrap entry bound must split and refuse replays at
// exactly the right ops
// ---------------------------------------------------------------------

Fingerprint
runPmiStorm(Mode mode)
{
    analysis::SimBundle b(builderFor(mode)
                              .cores(2)
                              .quantum(20'000)
                              .pmuWidth(17) // wraps every ~128K cycles
                              .seed(11)
                              .build());
    pec::PecSession session(b.kernel(),
                            {.policy = pec::OverflowPolicy::DoubleCheck});
    session.addEvent(0, EventType::Instructions, true, false);
    session.addEvent(1, EventType::Cycles, true, true);

    for (unsigned i = 0; i < 3; ++i) {
        b.kernel().spawn(
            "storm" + std::to_string(i),
            [&session](Guest &g) -> Task<void> {
                const sim::Addr base = 0x200000 + g.tid() * 0x40000;
                std::uint64_t sum = 0;
                for (unsigned s = 0; s < 2'000; ++s) {
                    co_await g.compute(40);
                    co_await g.load(base + (s % 1024) * 8);
                    co_await g.store(base + (s % 1024) * 8 + 8);
                    if (s % 128 == 0)
                        sum += co_await session.read(g, 0);
                }
                (void)sum;
            });
    }
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(SuperblockEquivalence, PmiStormBitIdentical)
{
    threeWay(runPmiStorm);
}

// ---------------------------------------------------------------------
// Sync shape: futex sleeps and wakeups puncture the hot loop, so
// replays end on discontinuities and re-arm afterwards
// ---------------------------------------------------------------------

Fingerprint
runFutexWakeups(Mode mode)
{
    analysis::SimBundle b(builderFor(mode)
                              .cores(2)
                              .quantum(10'000)
                              .seed(23)
                              .build());
    auto mu = std::make_unique<sync::Mutex>(0x9000);
    auto shared = std::make_unique<std::uint64_t>(0);

    for (unsigned i = 0; i < 4; ++i) {
        b.kernel().spawn(
            "futex" + std::to_string(i),
            [&mu, &shared](Guest &g) -> Task<void> {
                const sim::Addr base = 0x300000 + g.tid() * 0x40000;
                for (unsigned s = 0; s < 400; ++s) {
                    // Hot inner loop long enough to form and replay.
                    for (unsigned k = 0; k < 24; ++k) {
                        co_await g.load(base + (k % 64) * 8);
                        co_await g.compute(5);
                        co_await g.store(base + (k % 64) * 8 + 8);
                    }
                    co_await mu->lock(g);
                    co_await g.atomicFetchAdd(shared.get(), 0xa000, 1);
                    co_await mu->unlock(g);
                    if (s % 17 == 0) {
                        co_await g.syscall(
                            os::sysSleep,
                            {1 + g.rng().below(3'000), 0, 0, 0});
                    }
                }
            });
    }
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(SuperblockEquivalence, FutexWakeupsBitIdentical)
{
    threeWay(runFutexWakeups);
}

// ---------------------------------------------------------------------
// Fault-plan shape: the injected seam must fire at the same op no
// matter how many ops retire through replay
// ---------------------------------------------------------------------

Fingerprint
runFaultPlan(Mode mode)
{
    analysis::SimBundle b(builderFor(mode)
                              .cores(1)
                              .quantum(50'000)
                              .pmuWidth(20)
                              .seed(7)
                              .build());
    pec::PecSession session(b.kernel(),
                            {.policy = pec::OverflowPolicy::DoubleCheck});
    session.addEvent(0, EventType::Instructions, true, false);

    b.kernel().spawn("victim", [&session](Guest &g) -> Task<void> {
        std::uint64_t sum = 0;
        for (unsigned s = 0; s < 60; ++s) {
            for (unsigned k = 0; k < 50; ++k) {
                co_await g.compute(20);
                co_await g.load(0x500000 + (k % 128) * 8);
            }
            sum += co_await session.read(g, 0);
        }
        (void)sum;
    });
    b.kernel().spawn("competitor", [](Guest &g) -> Task<void> {
        for (unsigned s = 0; s < 2'000; ++s)
            co_await g.compute(40);
    });

    Plan plan;
    FaultSpec p;
    p.site = Site::PreemptRead;
    p.step = 1;
    plan.add(p);
    PlanController ctl(b.machine(), plan);
    b.machine().setFaults(&ctl);
    const sim::Tick end = b.machine().run();
    EXPECT_EQ(ctl.injected(), 1u);
    return collect(b, end);
}

TEST(SuperblockEquivalence, FaultSeamsFireIdentically)
{
    // An active fault controller refuses replay entry outright (the
    // plan's probe seams sit on per-op boundaries), so this scenario
    // proves the refusal path, not replay: zero ops replayed, every
    // entry attempt counted as a fault refusal, results identical.
    threeWay(runFaultPlan, /*expect_replays=*/false);
    if (superblocksActive()) {
        const Fingerprint fp = runFaultPlan(Mode::Superblock);
        EXPECT_EQ(fp.sb.opsReplayed, 0u);
        EXPECT_GT(fp.sb.refusedFaults, 0u);
    }
}

// ---------------------------------------------------------------------
// Delta-sum pin: the prefix-summed commit must land the closed-form
// event totals exactly, not just agree with another scheduler
// ---------------------------------------------------------------------

TEST(SuperblockReplay, CommittedDeltaSumsMatchClosedForm)
{
    if (!superblocksActive())
        GTEST_SKIP() << "superblock execution force-disabled";
    constexpr unsigned iters = 20'000;
    constexpr std::uint64_t computeInstrs = 8;
    // Flat memory: every access hits the fast path at a fixed latency,
    // so a branch-free cpi-1 loop has an exact closed-form ledger and
    // nothing can end a replay early except the horizon checks.
    analysis::SimBundle b(analysis::BundleOptions::Builder()
                              .cores(1)
                              .seed(3)
                              .flatMemory()
                              .build());
    b.kernel().spawn("pin", [](Guest &g) -> Task<void> {
        const sim::ComputeProfile p{
            .branchFrac = 0.0, .mispredictRate = 0.0, .cpi = 1.0};
        for (unsigned s = 0; s < iters; ++s) {
            co_await g.load(0x600000 + (s % 256) * 8);
            co_await g.store(0x600000 + (s % 256) * 8 + 8);
            co_await g.compute(computeInstrs, p);
        }
    });
    b.machine().run();

    const auto &ledger = b.kernel().thread(0).ctx.ledger();
    const auto user = [&](EventType e) {
        return ledger.count(e, PrivMode::User);
    };
    EXPECT_EQ(user(EventType::Instructions),
              iters * (computeInstrs + 2));
    EXPECT_EQ(user(EventType::Loads), iters);
    EXPECT_EQ(user(EventType::Stores), iters);
    EXPECT_EQ(user(EventType::Branches), 0u);
    EXPECT_EQ(user(EventType::BranchMisses), 0u);
    sim::EventDeltas scratch{};
    const sim::Tick memLat =
        b.machine().memory()->access(0, 0x600000, false, false, scratch);
    EXPECT_EQ(user(EventType::Cycles),
              iters * (computeInstrs + 2 * memLat));

    // Replay accounting closes: every guest op either went through the
    // detector (recorded) or retired via replay, and most did the
    // latter. Flat memory cannot stall, so no bridges.
    const sim::SuperblockStats &sb = b.machine().superblockStats();
    EXPECT_GT(sb.opsReplayed, 0u);
    EXPECT_EQ(sb.opsReplayed + sb.opsRecorded,
              static_cast<std::uint64_t>(iters) * 3);
    EXPECT_EQ(sb.stallBridges, 0u);
    EXPECT_GT(sb.opsReplayed, sb.opsRecorded);
}

// ---------------------------------------------------------------------
// Stall bridging: a cache-missing stream keeps replaying across slow
// memory ops instead of tearing the replay down every crossing
// ---------------------------------------------------------------------

TEST(SuperblockReplay, StreamingLoopBridgesStalls)
{
    if (!superblocksActive())
        GTEST_SKIP() << "superblock execution force-disabled";
    analysis::SimBundle b(analysis::BundleOptions::Builder()
                              .cores(1)
                              .seed(5)
                              .build());
    b.kernel().spawn("stream", [](Guest &g) -> Task<void> {
        // Sequential walk: one line crossing (fast-path miss) every 8
        // accesses, exactly the shape sbStallMem exists for.
        for (unsigned s = 0; s < 60'000; ++s) {
            co_await g.load(0x700000 + s * 8);
            co_await g.compute(4);
        }
    });
    b.machine().run();
    const sim::SuperblockStats &sb = b.machine().superblockStats();
    EXPECT_GT(sb.opsReplayed, 0u);
    EXPECT_GT(sb.stallBridges, 0u);
    // Bridges must vastly outnumber full teardowns: the entry-miss
    // path would imply the hint/re-entry machinery is broken.
    EXPECT_GT(sb.stallBridges, sb.entryMisses * 10);
}

// ---------------------------------------------------------------------
// Fast-path shape on the one-core stream job: long scheduler rounds and
// most ops retired through replay. Simulated counts, so exact floors.
// ---------------------------------------------------------------------

TEST(SuperblockReplay, StreamJobBatchesHundredsOfOpsPerRound)
{
    if (!sim::batchedExecutionDefault())
        GTEST_SKIP() << "batched execution force-disabled";
    const StreamJob job = runStreamJob();
    ASSERT_GT(job.batchRounds, 0u);
    EXPECT_GE(static_cast<double>(job.batchOps) /
                  static_cast<double>(job.batchRounds),
              100.0)
        << job.batchOps << " ops in " << job.batchRounds << " rounds";
}

TEST(SuperblockReplay, StreamJobReplaysMostOps)
{
    if (!superblocksActive())
        GTEST_SKIP() << "superblock execution force-disabled";
    const StreamJob job = runStreamJob();
    // A stall-bridged op runs through the full memory model, so it
    // counts against replay.
    const std::uint64_t replayable =
        job.sb.opsReplayed + job.sb.opsRecorded + job.sb.stallBridges;
    ASSERT_GT(replayable, 0u);
    EXPECT_GE(static_cast<double>(job.sb.opsReplayed) /
                  static_cast<double>(replayable),
              0.85)
        << job.sb.opsReplayed << " of " << replayable << " ops replayed";
}

} // namespace
} // namespace limit
