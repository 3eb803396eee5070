/**
 * @file
 * Divergence-sentinel tests: fingerprints agree across the execution
 * ladder on clean runs, ModeScope clamps narrow and never widen, an
 * injected replay corruption (corrupt-replay) is caught by the
 * sentinel's windowed cross-check, the fast path is quarantined, a
 * guarded fan-out's accepted results match the per-op oracle
 * bit-for-bit after quarantine, and a default check's probes simulate
 * only a few 1/256 windows of the job they certify.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "analysis/bundle.hh"
#include "analysis/campaign.hh"
#include "base/json.hh"
#include "exec_modes.hh"
#include "fault/plan.hh"
#include "guard/fingerprint.hh"
#include "guard/sentinel.hh"
#include "sim/machine.hh"
#include "stream_job.hh"

namespace limit {
namespace {

using analysis::BundleOptions;
using analysis::SimBundle;
using guard::ExecMode;
using guard::Fingerprint;
using sim::Guest;
using sim::Task;

constexpr sim::Tick horizon = 400'000;

struct SpinResult
{
    std::uint64_t iters = 0;
    std::uint64_t instr = 0;

    bool
    operator==(const SpinResult &o) const
    {
        return iters == o.iters && instr == o.instr;
    }
};

/**
 * One flat-memory spin job: every load takes the memory fast path, so
 * the loop body forms a superblock and retires through replay — the
 * exact surface corrupt-replay attacks. Returns both the guest loop
 * count and the Instructions ledger total; the latter is what replay
 * corruption perturbs.
 */
SpinResult
runSpin(std::uint64_t seed, const std::string &faults = "")
{
    SimBundle b(BundleOptions::builder()
                    .cores(1)
                    .flatMemory()
                    .quantum(50'000)
                    .seed(seed)
                    .build());
    std::optional<fault::PlanController> ctl;
    if (!faults.empty()) {
        fault::Plan plan;
        std::string err;
        EXPECT_TRUE(fault::Plan::parse(faults, plan, err)) << err;
        ctl.emplace(b.machine(), std::move(plan));
        b.machine().setFaults(&*ctl);
    }
    SpinResult out;
    b.kernel().spawn("spin", [&](Guest &g) -> Task<void> {
        while (!g.shouldStop()) {
            co_await g.load(0x8000 + (out.iters % 256) * 64);
            co_await g.compute(2);
            ++out.iters;
        }
        co_return;
    });
    b.run(horizon);
    out.instr = analysis::totalEvent(b.kernel(),
                                     sim::EventType::Instructions);
    b.machine().setFaults(nullptr);
    return out;
}

/** Windowed probe of the spin job: mode-forced, fingerprinted. */
Fingerprint
probeSpin(ExecMode mode, std::uint64_t windowDiv,
          const std::string &faults = "")
{
    guard::ModeScope ms(mode);
    guard::ProbeScope ps(windowDiv);
    runSpin(1, faults);
    return ps.fingerprint();
}

TEST(FingerprintTest, AllThreeModesAgreeOnACleanRun)
{
    const Fingerprint sb = probeSpin(ExecMode::Superblock, 4);
    const Fingerprint ba = probeSpin(ExecMode::Batched, 4);
    const Fingerprint po = probeSpin(ExecMode::PerOp, 4);
    EXPECT_TRUE(sb == ba);
    EXPECT_TRUE(sb == po);
    EXPECT_EQ(sb.runs, 1u);
    EXPECT_GT(sb.instructions, 0u);
    EXPECT_GT(sb.endTick, 0u);
}

TEST(FingerprintTest, DifferentWindowsProduceDifferentFingerprints)
{
    const Fingerprint wide = probeSpin(ExecMode::PerOp, 4);
    const Fingerprint narrow = probeSpin(ExecMode::PerOp, 64);
    EXPECT_FALSE(wide == narrow);
}

TEST(ModeScopeTest, ClampsNarrowAndNeverWiden)
{
    ASSERT_TRUE(sim::ScopedExecutionClamp::batchedAllowed());
    ASSERT_TRUE(sim::ScopedExecutionClamp::superblocksAllowed());
    {
        guard::ModeScope outer(ExecMode::Batched);
        EXPECT_TRUE(sim::ScopedExecutionClamp::batchedAllowed());
        EXPECT_FALSE(sim::ScopedExecutionClamp::superblocksAllowed());
        {
            // An inner request for a faster mode cannot re-widen.
            guard::ModeScope inner(ExecMode::Superblock);
            EXPECT_FALSE(sim::ScopedExecutionClamp::superblocksAllowed());
        }
        {
            guard::ModeScope inner(ExecMode::PerOp);
            EXPECT_FALSE(sim::ScopedExecutionClamp::batchedAllowed());
        }
        EXPECT_TRUE(sim::ScopedExecutionClamp::batchedAllowed());
    }
    EXPECT_TRUE(sim::ScopedExecutionClamp::superblocksAllowed());
    // The process-wide defaults (forced off in the no-batch and
    // no-superblock CI jobs) narrow every request too.
    const ExecMode fastest = !sim::batchedExecutionDefault()
        ? ExecMode::PerOp
        : superblocksActive() ? ExecMode::Superblock : ExecMode::Batched;
    EXPECT_EQ(guard::effectiveMode(ExecMode::Superblock), fastest);
    EXPECT_EQ(guard::effectiveMode(ExecMode::PerOp), ExecMode::PerOp);
    {
        guard::ModeScope clamp(ExecMode::Batched);
        EXPECT_EQ(guard::effectiveMode(ExecMode::Superblock),
                  fastest == ExecMode::PerOp ? ExecMode::PerOp
                                             : ExecMode::Batched);
    }
}

TEST(ModeScopeTest, ModeNamesRoundTrip)
{
    for (const ExecMode m : {ExecMode::Superblock, ExecMode::Batched,
                             ExecMode::PerOp}) {
        ExecMode parsed = ExecMode::Superblock;
        ASSERT_TRUE(guard::parseMode(guard::modeName(m), parsed));
        EXPECT_EQ(parsed, m);
    }
    ExecMode parsed = ExecMode::Superblock;
    EXPECT_FALSE(guard::parseMode("warp", parsed));
    EXPECT_EQ(guard::nextSlower(ExecMode::Superblock), ExecMode::Batched);
    EXPECT_EQ(guard::nextSlower(ExecMode::Batched), ExecMode::PerOp);
    EXPECT_EQ(guard::nextSlower(ExecMode::PerOp), ExecMode::PerOp);
}

TEST(SentinelTest, SamplingAndSelfDisable)
{
    guard::SentinelOptions so;
    so.enabled = true;
    so.sampleEvery = 3;
    const guard::Sentinel s(so);
    // With batching forced off every run is per-op: nothing to check.
    const bool checkable = sim::batchedExecutionDefault();
    EXPECT_EQ(s.shouldCheck(0, ExecMode::Superblock), checkable);
    EXPECT_FALSE(s.shouldCheck(1, ExecMode::Superblock));
    EXPECT_EQ(s.shouldCheck(3, ExecMode::Superblock), checkable);
    // Per-op IS the oracle: nothing to cross-check.
    EXPECT_FALSE(s.shouldCheck(0, ExecMode::PerOp));
    {
        // Clamped to per-op, a faster request is unreachable, so the
        // check self-disables instead of comparing per-op to itself.
        guard::ModeScope clamp(ExecMode::PerOp);
        EXPECT_FALSE(s.shouldCheck(0, ExecMode::Superblock));
    }
    const guard::Sentinel off{guard::SentinelOptions{}};
    EXPECT_FALSE(off.shouldCheck(0, ExecMode::Superblock));
}

TEST(SentinelTest, CleanRunPassesTheCrossCheck)
{
    guard::SentinelOptions so;
    so.enabled = true;
    so.windowDiv = 4;
    so.reportPath.clear();
    guard::Sentinel s(so);
    const auto probe = [](ExecMode m, std::uint64_t div) {
        return probeSpin(m, div);
    };
    EXPECT_FALSE(s.check(0, ExecMode::Superblock, probe));
    // Forced per-op leaves no faster mode, so no check runs.
    EXPECT_EQ(s.checksRun(), sim::batchedExecutionDefault() ? 1u : 0u);
    EXPECT_EQ(s.divergences(), 0u);
    EXPECT_EQ(s.modeFor(ExecMode::Superblock), ExecMode::Superblock);
    // The JSON blob is valid (and empty of divergences) even when
    // clean; writeReport refuses to write it.
    EXPECT_NE(s.reportJson().find("limitpp-divergence-v1"),
              std::string::npos);
    EXPECT_FALSE(s.writeReport());
}

TEST(SentinelTest, UnwritableReportWarnsWithItsPath)
{
    // A directory cannot be opened for writing as the report file.
    const std::string dir = ::testing::TempDir() + "limitpp_sentinel_dir";
    std::filesystem::create_directories(dir);
    guard::SentinelOptions so;
    so.enabled = true;
    so.reportPath = dir;
    guard::Sentinel s(so);
    // A fast mode that always disagrees with the per-op oracle.
    const auto probe = [](ExecMode m, std::uint64_t) {
        Fingerprint fp;
        fp.mix(m == ExecMode::PerOp ? 1 : 2);
        return fp;
    };
    // Forced per-op leaves nothing to check, hence nothing to report.
    const bool diverged = s.check(0, ExecMode::Superblock, probe);
    EXPECT_EQ(diverged, sim::batchedExecutionDefault());

    ::testing::internal::CaptureStderr();
    const bool written = s.writeReport();
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(written);
    EXPECT_EQ(log, diverged ? "warn: sentinel: cannot write " + dir + "\n"
                            : std::string());
    std::filesystem::remove(dir);
}

TEST(SentinelTest, ProbesSimulateUnderThreeWindowsOfTheJob)
{
    // The sentinel's cost in simulated work, not host time: a default
    // check (windowDiv 256) probes the fast mode and the per-op
    // oracle once each, so together they simulate about 2/256 of the
    // job. The bound is 3/256.
    if (!sim::batchedExecutionDefault())
        GTEST_SKIP() << "batched execution force-disabled: no faster "
                        "mode to cross-check";
    const StreamJob job = runStreamJob();

    guard::SentinelOptions so;
    so.enabled = true;
    so.reportPath.clear();
    guard::Sentinel s(so);
    std::vector<Fingerprint> probes;
    const auto probe = [&](ExecMode m, std::uint64_t div) {
        guard::ModeScope ms(m);
        guard::ProbeScope ps(div);
        runStreamJob();
        probes.push_back(ps.fingerprint());
        return ps.fingerprint();
    };
    EXPECT_FALSE(s.check(0, ExecMode::Superblock, probe));
    EXPECT_EQ(s.checksRun(), 1u);
    EXPECT_EQ(s.divergences(), 0u);
    ASSERT_EQ(probes.size(), 2u);
    std::uint64_t probed = 0;
    for (const Fingerprint &fp : probes) {
        EXPECT_EQ(fp.runs, 1u);
        probed += fp.instructions;
    }
    EXPECT_GT(probed, 0u);
    EXPECT_LT(probed * so.windowDiv, 3 * job.instructions)
        << probed << " probe instructions for a job of "
        << job.instructions;
}

TEST(SentinelTest, CorruptReplayIsDetectedAndQuarantined)
{
    guard::SentinelOptions so;
    so.enabled = true;
    so.windowDiv = 4;
    so.reportPath.clear();
    guard::Sentinel s(so);
    const auto probe = [](ExecMode m, std::uint64_t div) {
        // corrupt-replay:nth=0 injects a phantom instruction into
        // every superblock replay commit; the per-op oracle (which
        // never replays) is untouched by the same plan.
        return probeSpin(m, div, "corrupt-replay:nth=0");
    };
    if (!superblocksActive()) {
        // Replay forced off: the plan has no commit to corrupt, so
        // the check (if any mode is left to check) finds nothing and
        // the report lists no divergence.
        EXPECT_FALSE(s.check(0, ExecMode::Superblock, probe));
        EXPECT_EQ(s.divergences(), 0u);
        EXPECT_EQ(s.modeFor(ExecMode::Superblock), ExecMode::Superblock);
        EXPECT_TRUE(s.reports().empty());
        json::Value doc;
        std::string err;
        ASSERT_TRUE(json::parse(s.reportJson(), doc, &err)) << err;
        ASSERT_NE(doc.find("divergences"), nullptr);
        EXPECT_TRUE(doc.find("divergences")->items.empty());
        return;
    }
    EXPECT_TRUE(s.check(0, ExecMode::Superblock, probe));
    EXPECT_EQ(s.divergences(), 1u);
    // The fast path is quarantined for every later job...
    EXPECT_EQ(s.modeFor(ExecMode::Superblock), ExecMode::Batched);

    const auto reports = s.reports();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].job, 0u);
    EXPECT_EQ(reports[0].fast, ExecMode::Superblock);
    EXPECT_EQ(reports[0].quarantined, ExecMode::Batched);
    EXPECT_EQ(reports[0].windowDiv, 4u);
    EXPECT_FALSE(reports[0].fastFp == reports[0].referenceFp);
    EXPECT_FALSE(reports[0].trail.empty());
    EXPECT_NE(s.reportJson().find("\"schema\": \"limitpp-divergence-v1\""),
              std::string::npos);
    // The report reads back with the repository's JSON reader.
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(s.reportJson(), doc, &err)) << err;
    ASSERT_NE(doc.find("divergences"), nullptr);
    const auto &divs = doc.find("divergences")->items;
    ASSERT_EQ(divs.size(), 1u);
    std::uint64_t job = 1;
    EXPECT_TRUE(divs[0].find("job")->asUint(job));
    EXPECT_EQ(job, 0u);
    EXPECT_EQ(divs[0].find("fast")->text, "superblock");
    EXPECT_EQ(divs[0].find("quarantined")->text, "batched");
    EXPECT_FALSE(divs[0].find("trail")->items.empty());

    // ...and the quarantined (batched) mode agrees with the oracle:
    // the degradation genuinely routed around the corruption.
    EXPECT_FALSE(s.check(2, s.modeFor(ExecMode::Superblock), probe));
}

TEST(GuardedJobTest, QuarantinedFanOutMatchesThePerOpOracle)
{
    // Control: with the replay corruption armed and no sentinel, the
    // superblock fast path really does produce a wrong instruction
    // count — otherwise this test proves nothing. With replay forced
    // off there is no commit to corrupt and the run is already exact.
    const SpinResult corrupted = runSpin(1, "corrupt-replay:nth=0");
    SpinResult oracle;
    {
        guard::ModeScope po(ExecMode::PerOp);
        oracle = runSpin(1, "corrupt-replay:nth=0");
    }
    ASSERT_EQ(corrupted.iters, oracle.iters);
    if (superblocksActive())
        ASSERT_NE(corrupted.instr, oracle.instr);
    else
        ASSERT_EQ(corrupted.instr, oracle.instr);

    // Guarded fan-out: the sentinel catches the divergence on the
    // first checked job, quarantines, and re-runs — so every accepted
    // result is bit-identical to the oracle.
    analysis::CampaignOptions copts;
    copts.sentinel.enabled = true;
    copts.sentinel.windowDiv = 4;
    copts.sentinel.reportPath.clear();
    const std::vector<SpinResult> guarded = analysis::mapGuarded(
        copts, 3, [](std::size_t i) {
            return runSpin(1 + i, "corrupt-replay:nth=0");
        });
    ASSERT_EQ(guarded.size(), 3u);
    for (std::size_t i = 0; i < guarded.size(); ++i) {
        guard::ModeScope po(ExecMode::PerOp);
        const SpinResult want =
            runSpin(1 + i, "corrupt-replay:nth=0");
        EXPECT_TRUE(guarded[i] == want) << "job " << i;
    }
}

TEST(GuardedJobTest, RetryDegradesOneRungThenFails)
{
    // A job that always throws is retried exactly once, one rung
    // slower, then reported failed with both attempts' modes.
    analysis::CampaignOptions copts;
    unsigned calls = 0;
    const auto g = analysis::detail::runGuardedJob(
        copts, nullptr, 0, [&](ExecMode) {
            ++calls;
            throw std::runtime_error("kaboom");
        });
    EXPECT_TRUE(g.failed);
    EXPECT_EQ(g.attempts, 2u);
    EXPECT_EQ(calls, 2u);
    EXPECT_NE(g.error.find("attempt 1 (superblock): kaboom"),
              std::string::npos);
    EXPECT_NE(g.error.find("attempt 2 (batched): kaboom"),
              std::string::npos);
}

} // namespace
} // namespace limit
