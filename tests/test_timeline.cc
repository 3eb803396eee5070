/**
 * @file
 * Exact timeline profiler tests.
 *
 * The TimelineRecorder slices every core's full PMU event vector at
 * fixed guest-cycle intervals, with each event delta attributed to
 * the slice in force when it was applied. The captured matrix must be
 * *bit-identical* across the three execution loops (per-op, batched,
 * superblock replay) and conserve events exactly against the ledgers;
 * buildTimeline layers deterministic phase segmentation on top.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/bundle.hh"
#include "prof/report.hh"
#include "prof/timeline.hh"
#include "sim/machine.hh"
#include "sim/timeline.hh"

namespace limit {
namespace {

using sim::EventDeltas;
using sim::EventType;
using sim::Guest;
using sim::Task;
using sim::TimelineRecorder;

constexpr unsigned kInterval = 4096;

/** Mixed compute/memory run with a mid-run behaviour change. */
analysis::SimBundle
makeBundle(bool batched, bool superblocks)
{
    return analysis::SimBundle(analysis::BundleOptions::builder()
                                   .cores(2)
                                   .quantum(10'000)
                                   .seed(33)
                                   .batched(batched)
                                   .superblocks(superblocks)
                                   .timelineInterval(kInterval)
                                   .build());
}

sim::Tick
runWorkload(analysis::SimBundle &b)
{
    for (unsigned i = 0; i < 3; ++i) {
        b.kernel().spawn(
            "phase" + std::to_string(i), [](Guest &g) -> Task<void> {
                // Compute-heavy first, then memory-heavy: a real phase
                // change for the segmentation to find.
                for (unsigned s = 0; s < 300; ++s)
                    co_await g.compute(40 + g.rng().below(30));
                for (unsigned s = 0; s < 300; ++s) {
                    const sim::Addr a =
                        0x40000 + g.rng().below(1 << 15) * 8;
                    co_await g.load(a);
                    co_await g.store(a + 8);
                    co_await g.compute(2);
                }
            });
    }
    return b.run(400'000);
}

/** Flattened slice matrix: core-major, slice-major, event-major. */
std::vector<std::uint64_t>
flattenLanes(const TimelineRecorder &recorder)
{
    std::vector<std::uint64_t> out;
    for (const sim::TimelineLane &lane : recorder.lanes())
        for (std::size_t s = 0; s < lane.size(); ++s)
            for (unsigned e = 0; e < sim::numEventTypes; ++e)
                out.push_back(lane[s].counts[e]);
    return out;
}

TEST(TimelineRecorder, SlicesBitIdenticalAcrossExecutionModes)
{
    std::vector<std::uint64_t> flat[3];
    std::string json[3];
    const bool modes[3][2] = {
        {true, true}, {true, false}, {false, false}};
    for (int m = 0; m < 3; ++m) {
        analysis::SimBundle b = makeBundle(modes[m][0], modes[m][1]);
        const sim::Tick end = runWorkload(b);
        ASSERT_NE(b.timeline(), nullptr);
        b.timeline()->finalize(b.machine().maxTime());
        EXPECT_EQ(end, b.machine().maxTime());
        flat[m] = flattenLanes(*b.timeline());

        prof::Report report;
        report.schema("limitpp-timeline-v1");
        report.addTimeline(prof::buildTimeline("t", *b.timeline()));
        json[m] = report.toJson();
    }
    EXPECT_EQ(flat[0], flat[1]) << "superblock vs batched";
    EXPECT_EQ(flat[0], flat[2]) << "superblock vs per-op";
    EXPECT_EQ(json[0], json[1]);
    EXPECT_EQ(json[0], json[2]);
}

TEST(TimelineRecorder, SliceSumsConserveEveryEventExactly)
{
    analysis::SimBundle b = makeBundle(true, true);
    runWorkload(b);
    b.timeline()->finalize(b.machine().maxTime());

    // Core-summed slice deltas must equal the ledger totals event by
    // event: slicing is a partition of the event stream, not a
    // sampling of it.
    EventDeltas sliced{};
    for (const sim::TimelineLane &lane : b.timeline()->lanes())
        for (std::size_t s = 0; s < lane.size(); ++s)
            sliced += lane[s];
    for (unsigned e = 0; e < sim::numEventTypes; ++e) {
        const auto ev = static_cast<EventType>(e);
        EXPECT_EQ(sliced.counts[e], analysis::totalEvent(b.kernel(), ev))
            << sim::eventName(ev);
    }
}

TEST(TimelineRecorder, FinalizePadsEveryLaneToTheMachineClock)
{
    analysis::SimBundle b = makeBundle(true, true);
    runWorkload(b);
    TimelineRecorder *tl = b.timeline();
    const std::uint64_t expect =
        b.machine().maxTime() / tl->interval() + 1;
    tl->finalize(b.machine().maxTime());
    EXPECT_TRUE(tl->finalized());
    EXPECT_EQ(tl->numSlices(), expect);
    for (const sim::TimelineLane &lane : tl->lanes())
        EXPECT_EQ(lane.size(), expect);
    // Idempotent: a second finalize changes nothing.
    const std::vector<std::uint64_t> before = flattenLanes(*tl);
    tl->finalize(b.machine().maxTime());
    EXPECT_EQ(flattenLanes(*tl), before);
}

TEST(TimelineLane, ColumnsWidenExactlyAndMatchADenseReference)
{
    TimelineRecorder rec(1000);
    rec.attach(1);
    sim::TimelineLane &lane = rec.lane(0);
    std::vector<EventDeltas> dense(6);
    auto add = [&](std::uint64_t slice, EventType e, std::uint64_t v) {
        lane.curIndex = slice;
        lane.cur[e] += v;
        dense[slice][e] += v;
    };

    // Byte-sized values first, so every column starts one byte wide.
    add(1, EventType::Cycles, 3);
    add(1, EventType::Loads, 200);
    add(1, EventType::Branches, 5);
    lane.flush();
    // Slice 2 is skipped (zero-filled); each value here needs the next
    // width up, and Branches jumps straight from 1 to 8 bytes.
    add(3, EventType::Cycles, (1ull << 8) - 1);
    add(3, EventType::Instructions, 1ull << 8);
    add(3, EventType::Loads, 1ull << 16);
    add(3, EventType::Stores, 1ull << 32);
    add(3, EventType::Branches, 1ull << 40);
    lane.flush();
    // A second flush into the same slice carries two columns over
    // their current width: 255 + 1 and 2^16 + (2^32 - 2^16).
    add(3, EventType::Cycles, 1);
    add(3, EventType::Loads, (1ull << 32) - (1ull << 16));
    add(3, EventType::Branches, 1);
    lane.flush();
    rec.finalize(5999); // pads to 6 slices

    ASSERT_EQ(lane.size(), dense.size());
    for (std::size_t s = 0; s < dense.size(); ++s) {
        const EventDeltas d = lane[s];
        for (unsigned e = 0; e < sim::numEventTypes; ++e) {
            const auto ev = static_cast<EventType>(e);
            EXPECT_EQ(lane.count(s, ev), dense[s].counts[e])
                << "slice " << s << " " << sim::eventName(ev);
            EXPECT_EQ(d.counts[e], dense[s].counts[e])
                << "slice " << s << " " << sim::eventName(ev);
        }
    }
    EXPECT_EQ(lane.count(3, EventType::Cycles), 1ull << 8);
    EXPECT_EQ(lane.count(3, EventType::Loads), 1ull << 32);
    EXPECT_EQ(lane.count(3, EventType::Branches), (1ull << 40) + 1);
    EXPECT_EQ(lane.count(1, EventType::Branches), 5u);
}

TEST(TimelineLane, StoresEachColumnAtItsOwnWidth)
{
    constexpr std::size_t slices = 100;
    TimelineRecorder rec(1000);
    rec.attach(1);
    sim::TimelineLane &lane = rec.lane(0);
    for (std::size_t s = 0; s < slices; ++s) {
        lane.curIndex = s;
        for (unsigned e = 0; e < sim::numEventTypes; ++e)
            lane.cur.counts[e] = 255 - (s + e) % 255;
        lane.flush();
    }
    // Every count, 255 included, fits in a byte: one byte per event
    // per slice (11 B against the 88 B of a dense EventDeltas).
    EXPECT_EQ(lane.storageBytes(), slices * sim::numEventTypes);

    // One large count widens only its own column, to four bytes.
    lane.curIndex = 50;
    lane.cur[EventType::Cycles] = 70'000;
    lane.flush();
    EXPECT_EQ(lane.storageBytes(),
              slices * (sim::numEventTypes - 1) + slices * 4);
    EXPECT_EQ(lane.count(50, EventType::Cycles), 205u + 70'000u);
    EXPECT_EQ(lane.count(49, EventType::Cycles), 206u);
}

TEST(TimelineRecorderDeathTest, RejectsZeroInterval)
{
    EXPECT_DEATH(TimelineRecorder(0), "interval");
}

TEST(BuildTimeline, SegmentsSyntheticPhaseChange)
{
    // Hand-build two starkly different regimes: pure compute, then
    // load-heavy. Segmentation must put a boundary at the switch.
    TimelineRecorder rec(1000);
    rec.attach(1);
    sim::TimelineLane &lane = rec.lane(0);
    for (unsigned s = 0; s < 8; ++s) {
        lane.curIndex = s;
        lane.cur = EventDeltas{};
        lane.cur[EventType::Cycles] = 1000;
        lane.cur[EventType::Instructions] = 900;
        if (s < 4) {
            lane.cur[EventType::Branches] = 300;
        } else {
            lane.cur[EventType::Loads] = 450;
            lane.cur[EventType::L1DMiss] = 200;
        }
        lane.flush();
        lane.cur = EventDeltas{};
    }
    rec.finalize(7999);

    const prof::Report::TimelineSection t =
        prof::buildTimeline("synthetic", rec);
    ASSERT_EQ(t.cores.size(), 1u);
    ASSERT_EQ(t.cores[0]->size(), 8u);
    ASSERT_EQ(t.phases.size(), 2u);
    EXPECT_EQ(t.phases[0].firstSlice, 0u);
    EXPECT_EQ(t.phases[0].numSlices, 4u);
    EXPECT_EQ(t.phases[0].dominant, "branches");
    EXPECT_EQ(t.phases[1].firstSlice, 4u);
    EXPECT_EQ(t.phases[1].numSlices, 4u);
    EXPECT_EQ(t.phases[1].dominant, "loads");
    EXPECT_NEAR(t.phases[0].ipc, 0.9, 1e-9);
}

TEST(BuildTimeline, CoresViewTheRecorderLanesWithoutCopying)
{
    analysis::SimBundle b = makeBundle(true, true);
    runWorkload(b);
    b.timeline()->finalize(b.machine().maxTime());
    const prof::Report::TimelineSection t =
        prof::buildTimeline("view", *b.timeline());
    const auto &lanes = b.timeline()->lanes();
    ASSERT_EQ(t.cores.size(), lanes.size());
    for (std::size_t c = 0; c < lanes.size(); ++c)
        EXPECT_EQ(t.cores[c], &lanes[c]) << c;

    // The report keeps the same view, and a second finalize leaves
    // the lanes where the view points.
    prof::Report report;
    report.addTimeline(t);
    b.timeline()->finalize(b.machine().maxTime());
    const auto &held = report.timelineSections().front().cores;
    ASSERT_EQ(held.size(), lanes.size());
    for (std::size_t c = 0; c < lanes.size(); ++c)
        EXPECT_EQ(held[c], &lanes[c]) << c;
}

TEST(BuildTimeline, IdleRecorderYieldsOneIdlePhase)
{
    TimelineRecorder rec(512);
    rec.attach(2);
    rec.finalize(2047); // 4 empty slices per lane
    const prof::Report::TimelineSection t =
        prof::buildTimeline("idle", rec);
    ASSERT_EQ(t.phases.size(), 1u);
    EXPECT_EQ(t.phases[0].dominant, "idle");
    EXPECT_EQ(t.phases[0].ipc, 0.0);
}

TEST(TimelineReport, JsonAndAsciiCarryTheSection)
{
    analysis::SimBundle b = makeBundle(true, true);
    runWorkload(b);
    b.timeline()->finalize(b.machine().maxTime());

    prof::Report report;
    report.schema("limitpp-timeline-v1");
    report.addTimeline(prof::buildTimeline("mix", *b.timeline()));
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"timeline\": ["), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"mix\""), std::string::npos);
    EXPECT_NE(json.find("\"interval_ticks\": 4096"), std::string::npos);
    EXPECT_NE(json.find("\"phases\""), std::string::npos);

    const std::string ascii = report.timelineAscii();
    EXPECT_NE(ascii.find("timeline 'mix'"), std::string::npos);
    EXPECT_NE(ascii.find("core 0"), std::string::npos);
    EXPECT_NE(ascii.find("core 1"), std::string::npos);
    EXPECT_NE(ascii.find("phase 0"), std::string::npos);
}

TEST(TimelineRecorder, DetachedCpuRecordsNothing)
{
    // No timelineInterval → no recorder, and the hot path stays cold.
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(1)
                              .seed(5)
                              .build());
    EXPECT_EQ(b.timeline(), nullptr);
    b.kernel().spawn("t", [](Guest &g) -> Task<void> {
        for (int i = 0; i < 100; ++i)
            co_await g.compute(10);
    });
    b.run(50'000);
}

} // namespace
} // namespace limit
