/**
 * @file
 * Tests for the tracing and metrics subsystem: ring wrap-around,
 * per-core isolation, exporter JSON well-formedness, metrics merge
 * across ParallelRunner jobs, and the kernel/PEC tracepoints firing
 * end-to-end. Emission-dependent cases are guarded so the suite also
 * passes in a LIMITPP_TRACE=OFF build.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "analysis/bundle.hh"
#include "analysis/runner.hh"
#include "analysis/trace_report.hh"
#include "base/json.hh"
#include "fault/plan.hh"
#include "os/sysno.hh"
#include "pec/pec.hh"
#include "sync/mutex.hh"
#include "trace/exporter.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace limit {
namespace {

using trace::TraceEvent;
using trace::TraceRecord;

/** The document parses with the repository's JSON reader. */
::testing::AssertionResult
jsonWellFormed(std::string_view s)
{
    json::Value v;
    std::string err;
    if (json::parse(s, v, &err))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << err;
}

TraceRecord
makeRecord(sim::Tick tick, std::uint64_t a0)
{
    TraceRecord r;
    r.tick = tick;
    r.a0 = a0;
    r.event = TraceEvent::ContextSwitch;
    return r;
}

// --- Ring --------------------------------------------------------------

TEST(TraceRing, FillsWithoutDropsUpToCapacity)
{
    trace::Ring ring(4);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.size(), 0u);
    ring.push(makeRecord(1, 0));
    ring.push(makeRecord(2, 1));
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.written(), 2u);
    EXPECT_EQ(ring.dropped(), 0u);
    const auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].a0, 0u);
    EXPECT_EQ(snap[1].a0, 1u);
}

TEST(TraceRing, WrapAroundKeepsNewestOldestFirst)
{
    trace::Ring ring(4);
    for (std::uint64_t i = 0; i < 6; ++i)
        ring.push(makeRecord(10 * i, i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.written(), 6u);
    EXPECT_EQ(ring.dropped(), 2u);
    const auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    // Oldest two records (a0 = 0, 1) were overwritten.
    for (std::size_t i = 0; i < snap.size(); ++i)
        EXPECT_EQ(snap[i].a0, i + 2);
}

// --- Tracer ------------------------------------------------------------

TEST(Tracer, PerCoreRingsAreIsolated)
{
    trace::Tracer t(2, 8);
    t.record(0, TraceEvent::ContextSwitch, 10, 1);
    t.record(1, TraceEvent::SyscallEnter, 5, 2, os::sysYield);
    t.record(0, TraceEvent::ContextSwitch, 20, 1);
    t.record(1, TraceEvent::SyscallExit, 15, 2, os::sysYield);

    EXPECT_EQ(t.ring(0).written(), 2u);
    EXPECT_EQ(t.ring(1).written(), 2u);
    EXPECT_EQ(t.totalRecorded(), 4u);
    EXPECT_EQ(t.totalDropped(), 0u);
    for (const auto &r : t.ring(0).snapshot())
        EXPECT_EQ(r.core, 0u);
    for (const auto &r : t.ring(1).snapshot())
        EXPECT_EQ(r.core, 1u);
}

TEST(Tracer, CountsSurviveRingOverwriteAndMergeIsTimeOrdered)
{
    trace::Tracer t(2, 2);
    // Core 0 sees 5 switches into a 2-slot ring; counts keep all 5.
    for (sim::Tick tick = 0; tick < 5; ++tick)
        t.record(0, TraceEvent::ContextSwitch, 100 - 10 * tick, 1);
    t.record(1, TraceEvent::FutexWake, 75, 2, 0xbeef, 1);

    EXPECT_EQ(t.count(TraceEvent::ContextSwitch), 5u);
    EXPECT_EQ(t.categoryCount(trace::TraceCategory::Sched), 5u);
    EXPECT_EQ(t.categoryCount(trace::TraceCategory::Futex), 1u);
    EXPECT_EQ(t.totalDropped(), 3u);

    const auto merged = t.merged();
    ASSERT_EQ(merged.size(), 3u); // 2 retained + 1 futex
    for (std::size_t i = 1; i < merged.size(); ++i)
        EXPECT_LE(merged[i - 1].tick, merged[i].tick);
}

TEST(Tracer, EventNamesAndCategoriesAreStable)
{
    EXPECT_EQ(trace::traceEventName(TraceEvent::ContextSwitch),
              "context-switch");
    EXPECT_EQ(trace::traceEventName(TraceEvent::PmiDelivered),
              "pmi-delivered");
    EXPECT_EQ(trace::traceEventCategory(TraceEvent::FutexWait),
              trace::TraceCategory::Futex);
    EXPECT_EQ(trace::traceEventCategory(TraceEvent::PecRegionExit),
              trace::TraceCategory::Pec);
    EXPECT_EQ(trace::traceCategoryName(trace::TraceCategory::Pmu),
              "pmu");
}

TEST(Tracer, NullTracerExpressionIsSafe)
{
    trace::Tracer *none = nullptr;
    // Must not crash whether or not emission is compiled in.
    LIMIT_TRACE(none, 0, TraceEvent::ContextSwitch, 1,
                sim::invalidThread);
    (void)none; // unreferenced when the macro compiles out
    SUCCEED();
}

// --- MetricsRegistry ---------------------------------------------------

TEST(Metrics, CountersAndGaugesRoundTrip)
{
    trace::MetricsRegistry m;
    EXPECT_TRUE(m.empty());
    m.add("reads");
    m.add("reads", 4);
    m.set("ipc", 1.25);
    EXPECT_EQ(m.counter("reads"), 5u);
    EXPECT_DOUBLE_EQ(m.gauge("ipc"), 1.25);
    EXPECT_TRUE(m.hasCounter("reads"));
    EXPECT_FALSE(m.hasCounter("ipc"));
    EXPECT_TRUE(m.hasGauge("ipc"));
    EXPECT_EQ(m.counter("never"), 0u);
    EXPECT_FALSE(m.empty());
}

TEST(Metrics, MergeSumsCountersAndMaxesGauges)
{
    trace::MetricsRegistry a, b;
    a.add("n", 3);
    a.set("peak", 2.0);
    b.add("n", 4);
    b.add("only_b", 1);
    b.set("peak", 5.0);
    a.merge(b);
    EXPECT_EQ(a.counter("n"), 7u);
    EXPECT_EQ(a.counter("only_b"), 1u);
    EXPECT_DOUBLE_EQ(a.gauge("peak"), 5.0);
}

TEST(Metrics, MergeAcrossParallelRunnerJobs)
{
    // The intended usage: each job owns a registry, the coordinator
    // folds them after map() returns. Result must be independent of
    // worker count.
    for (unsigned workers : {1u, 4u}) {
        analysis::ParallelRunner pool(workers);
        const auto regs = pool.map(8, [](std::size_t i) {
            trace::MetricsRegistry m;
            m.add("jobs.run");
            m.add("work.items", i);
            m.set("job.peak", static_cast<double>(i));
            return m;
        });
        trace::MetricsRegistry total;
        for (const auto &m : regs)
            total.merge(m);
        EXPECT_EQ(total.counter("jobs.run"), 8u);
        EXPECT_EQ(total.counter("work.items"), 28u); // 0+1+..+7
        EXPECT_DOUBLE_EQ(total.gauge("job.peak"), 7.0);
    }
}

TEST(Metrics, ToJsonIsWellFormedAndSorted)
{
    trace::MetricsRegistry m;
    m.add("b.count", 2);
    m.add("a.count", 1);
    m.set("c.gauge", 0.5);
    const std::string json = m.toJson();
    EXPECT_TRUE(jsonWellFormed(json)) << json;
    EXPECT_LT(json.find("a.count"), json.find("b.count"));
    EXPECT_LT(json.find("b.count"), json.find("c.gauge"));
}

// --- Exporter ----------------------------------------------------------

TEST(Exporter, ChromeTraceJsonIsWellFormed)
{
    trace::Tracer t(2, 16);
    t.record(0, TraceEvent::ContextSwitch, 100, 1, 2, 1);
    t.record(1, TraceEvent::SyscallEnter, 200, 2, os::sysYield, 0);
    t.record(1, TraceEvent::SyscallExit, 230, 2, os::sysYield, 0);
    t.record(0, TraceEvent::FutexWake, 300, 1, 0xbeef, 2);
    t.record(0, TraceEvent::PmiDelivered, 400, sim::invalidThread, 0,
             1);

    trace::MetricsRegistry m;
    m.add("x.count", 3);
    m.set("y.gauge", 1.5);

    std::ostringstream out;
    trace::ExportOptions opts;
    opts.syscallName = os::sysName;
    trace::writeChromeTrace(out, t, &m, opts);
    const std::string json = out.str();

    // Well-formed, and the embedded metrics read back with their values.
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(json, doc, &err)) << err << "\n" << json;
    const json::Value *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    std::uint64_t count = 0;
    ASSERT_NE(metrics->find("x.count"), nullptr);
    EXPECT_TRUE(metrics->find("x.count")->asUint(count));
    EXPECT_EQ(count, 3u);
    ASSERT_NE(metrics->find("y.gauge"), nullptr);
    EXPECT_DOUBLE_EQ(metrics->find("y.gauge")->number, 1.5);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"context-switch\""), std::string::npos);
    // The syscall-name hook decodes sysYield for syscall events.
    EXPECT_NE(json.find("\"yield\""), std::string::npos);
    // PMI from an idle core carries tid -1.
    EXPECT_NE(json.find("\"tid\": -1"), std::string::npos);
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

TEST(Exporter, AsciiSummaryListsCategoriesAndCounts)
{
    trace::Tracer t(1, 8);
    t.record(0, TraceEvent::ContextSwitch, 10, 1);
    t.record(0, TraceEvent::ContextSwitch, 20, 2);
    t.record(0, TraceEvent::FutexWait, 30, 1, 0xcafe, 0);
    const std::string s = trace::asciiSummary(t);
    EXPECT_NE(s.find("context-switch"), std::string::npos);
    EXPECT_NE(s.find("futex-wait"), std::string::npos);
    EXPECT_NE(s.find("3 records"), std::string::npos);
}

// --- end-to-end through the simulator ---------------------------------

#if LIMITPP_TRACE_ENABLED

TEST(TraceIntegration, KernelTracepointsFire)
{
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(1)
                              .traceCapacity(4096)
                              .build());
    for (int i = 0; i < 2; ++i) {
        b.kernel().spawn("t" + std::to_string(i),
                         [](sim::Guest &g) -> sim::Task<void> {
                             for (int j = 0; j < 20; ++j) {
                                 co_await g.compute(100);
                                 co_await g.syscall(os::sysYield);
                             }
                             co_return;
                         });
    }
    b.machine().run();
    trace::Tracer *t = b.tracer();
    ASSERT_NE(t, nullptr);
    EXPECT_GT(t->count(TraceEvent::ContextSwitch), 0u);
    EXPECT_GT(t->count(TraceEvent::SyscallEnter), 0u);
    EXPECT_EQ(t->count(TraceEvent::SyscallEnter),
              t->count(TraceEvent::SyscallExit));
    // One-core yield ping-pong: every switch saves and restores the
    // same number of enabled counters (none here => no save records).
    EXPECT_EQ(t->count(TraceEvent::CounterSave),
              t->count(TraceEvent::CounterRestore));
}

TEST(TraceIntegration, PecTracepointsFireUnderNarrowCounters)
{
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(1)
                              .pmuWidth(16)
                              .traceCapacity(4096)
                              .build());
    pec::PecSession session(b.kernel());
    session.addEvent(0, sim::EventType::Cycles);
    b.kernel().spawn("t", [&](sim::Guest &g) -> sim::Task<void> {
        for (int i = 0; i < 200; ++i) {
            co_await g.compute(1'000);
            const std::uint64_t v = co_await session.read(g, 0);
            (void)v;
        }
        co_return;
    });
    b.machine().run();
    trace::Tracer *t = b.tracer();
    ASSERT_NE(t, nullptr);
    // A 16-bit cycle counter wraps every 64k cycles: overflow PMIs
    // and kernel fix-ups must both appear.
    EXPECT_GT(t->count(TraceEvent::CounterOverflow), 0u);
    EXPECT_GT(t->count(TraceEvent::PmiDelivered), 0u);
    EXPECT_GT(t->count(TraceEvent::PecOverflowFixup), 0u);
}

/**
 * Chrome trace of four threads contending for `mu` on two cores, with
 * one spurious futex wakeup injected.
 */
std::string
futexContendedTrace(sync::Mutex &mu)
{
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(2)
                              .seed(7)
                              .traceCapacity(1 << 14)
                              .build());
    for (unsigned i = 0; i < 4; ++i) {
        b.kernel().spawn("w" + std::to_string(i),
                         [&mu](sim::Guest &g) -> sim::Task<void> {
                             for (unsigned j = 0; j < 40; ++j) {
                                 co_await mu.lock(g);
                                 co_await g.compute(2'000);
                                 co_await mu.unlock(g);
                                 co_await g.compute(200);
                             }
                         });
    }
    fault::Plan plan;
    fault::FaultSpec spurious;
    spurious.site = fault::Site::SpuriousWake;
    spurious.ticks = 1'000;
    plan.add(spurious);
    fault::PlanController faults(b.machine(), plan);
    b.machine().setFaults(&faults);
    b.machine().run();

    const trace::Tracer &t = *b.tracer();
    EXPECT_GT(t.count(TraceEvent::FutexWait), 0u);
    EXPECT_GT(t.count(TraceEvent::FutexWake), 0u);
    EXPECT_EQ(faults.injectedAt(fault::Site::SpuriousWake), 1u);
    trace::ExportOptions opts;
    opts.syscallName = os::sysName;
    std::ostringstream out;
    trace::writeChromeTrace(out, t, nullptr, opts);
    return out.str();
}

TEST(TraceIntegration, FutexTraceDoesNotDependOnHostAddresses)
{
    // Both mutexes stay alive, so their host futex words differ; the
    // trace must show only the guest address they share.
    auto first = std::make_unique<sync::Mutex>(0x9000);
    auto second = std::make_unique<sync::Mutex>(0x9000);
    const std::string a = futexContendedTrace(*first);
    const std::string b = futexContendedTrace(*second);
    EXPECT_NE(a.find("\"futex-wait\""), std::string::npos);
    EXPECT_EQ(a, b);
}

TEST(TraceIntegration, UntracedBundleRecordsNothing)
{
    analysis::SimBundle b(
        analysis::BundleOptions::builder().cores(1).build());
    EXPECT_EQ(b.tracer(), nullptr);
    b.kernel().spawn("t", [](sim::Guest &g) -> sim::Task<void> {
        co_await g.syscall(os::sysYield);
        co_return;
    });
    b.machine().run();
    // harvest on an untraced bundle is legal and fills ledger metrics.
    analysis::harvestStandardMetrics(b);
    EXPECT_TRUE(b.metrics().hasCounter("ledger.instructions"));
    EXPECT_FALSE(b.metrics().hasCounter("trace.records"));
}

#endif // LIMITPP_TRACE_ENABLED

} // namespace
} // namespace limit
