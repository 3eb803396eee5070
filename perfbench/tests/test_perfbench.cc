/**
 * @file
 * Tests of the benchmark harness's own machinery: the boundary
 * decorators pass every call through unchanged, and correctness checks
 * count failures as failed operations.
 */

#include <gtest/gtest.h>

#include "checks.hh"
#include "layers.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

JobConfig
tinyJob(Workload w)
{
    return standardJob(w, 7, 2, /*test=*/true);
}

class PassThrough : public ::testing::TestWithParam<Workload>
{
};

TEST_P(PassThrough, TracedDigestEqualsUntraced)
{
    const JobConfig job = tinyJob(GetParam());
    const JobResult plain = runJob(job, nullptr);
    SpanRecorder spans;
    const JobResult traced = runJob(job, &spans);

    EXPECT_EQ(plain.digest, traced.digest);
    EXPECT_GT(plain.digest.instructions, 0u);
    // The decorators were really in the path...
    EXPECT_GT(traced.counts.boundary.accessCalls, 0u);
    EXPECT_GT(traced.counts.boundary.fastAttempts, 0u);
    EXPECT_EQ(plain.counts.boundary.accessCalls, 0u);
    // ...and every layer count the untraced run sees is unchanged.
    EXPECT_EQ(plain.counts.batchRounds, traced.counts.batchRounds);
    EXPECT_EQ(plain.counts.sb.opsReplayed, traced.counts.sb.opsReplayed);
    EXPECT_EQ(plain.counts.l1Misses, traced.counts.l1Misses);
    EXPECT_EQ(plain.counts.tlbMisses, traced.counts.tlbMisses);
    EXPECT_EQ(plain.counts.contextSwitches,
              traced.counts.contextSwitches);
    EXPECT_FALSE(spans.spans().empty());
}

INSTANTIATE_TEST_SUITE_P(Workloads, PassThrough,
                         ::testing::Values(Workload::OltpProfiled,
                                           Workload::ComputeMix,
                                           Workload::SensitivitySweep));

TEST(PassThrough, FastPathsStayOnBehindTheDecorator)
{
    // compute_mix replays superblocks and hits the MRU fast path; a
    // decorator that dropped fastPeekView/creditFastAccesses/
    // tryFastAccess would turn both off and change these counts.
    const JobConfig job = tinyJob(Workload::ComputeMix);
    const JobResult plain = runJob(job, nullptr);
    SpanRecorder spans;
    const JobResult traced = runJob(job, &spans);
    EXPECT_GT(plain.counts.sb.opsReplayed, 0u);
    EXPECT_EQ(plain.counts.sb.opsReplayed, traced.counts.sb.opsReplayed);
    EXPECT_GT(traced.counts.boundary.peekViews, 0u);
    EXPECT_GT(traced.counts.boundary.creditedAccesses, 0u);
    EXPECT_GT(traced.counts.boundary.fastHits, 0u);
}

TEST(PassThrough, SpansNestUnderTheirCaller)
{
    SpanRecorder spans;
    (void)runJob(tinyJob(Workload::SensitivitySweep), &spans);
    const std::vector<Span> all = spans.spans();
    ASSERT_FALSE(all.empty());
    EXPECT_EQ(all[0].name, "job.sensitivity_sweep");
    EXPECT_EQ(all[0].parent, -1);
    std::size_t points = 0;
    for (const Span &s : all) {
        EXPECT_GE(s.endNs, s.startNs) << s.name;
        if (s.name == "analysis.point") {
            ++points;
            ASSERT_GE(s.parent, 0);
            EXPECT_EQ(all[static_cast<std::size_t>(s.parent)].name,
                      "analysis.analyze");
        }
        if (s.name == "sim.run") {
            ASSERT_GE(s.parent, 0);
            EXPECT_EQ(all[static_cast<std::size_t>(s.parent)].name,
                      "analysis.point");
        }
    }
    EXPECT_EQ(points, 11u); // base + 10 lattice points, one seed
}

TEST(Checks, WrongExpectedValueIsAFailedOperation)
{
    Checks checks;
    EXPECT_TRUE(checks.expectEq("right", 3, 3));
    EXPECT_FALSE(checks.expectEq("deliberately wrong", 4, 3));
    EXPECT_EQ(checks.attempted(), 2u);
    EXPECT_EQ(checks.failed(), 1u);
    ASSERT_EQ(checks.failures().size(), 1u);
    EXPECT_NE(checks.failures()[0].find("deliberately wrong"),
              std::string::npos);
}

TEST(Checks, JobWithAWrongCountFailsOneOperation)
{
    const JobResult good = runJob(tinyJob(Workload::OltpProfiled), nullptr);
    Checks clean;
    checkJob(good, clean);
    EXPECT_GT(clean.attempted(), 0u);
    EXPECT_EQ(clean.failed(), 0u);

    // A PEC count one off the ledger on one thread is one failed check.
    JobResult bad = good;
    ASSERT_FALSE(bad.precise.empty());
    bad.precise[0].ledger += 1;
    Checks checks;
    checkJob(bad, checks);
    EXPECT_EQ(checks.attempted(), clean.attempted());
    EXPECT_EQ(checks.failed(), 1u);

    // So is a digest that differs from the expected one.
    Digest wrong = good.digest;
    wrong.units += 1;
    checks.expectEq("digest", wrong, good.digest);
    EXPECT_EQ(checks.failed(), 2u);
}

TEST(Checks, PerOpOracleAgreesOnAPrefix)
{
    JobConfig job = tinyJob(Workload::ComputeMix);
    const JobResult fast = runJob(job, nullptr);
    job.batched = false;
    const JobResult oracle = runJob(job, nullptr);
    EXPECT_EQ(fast.digest, oracle.digest);
    EXPECT_TRUE(fast.batchedEffective);
    EXPECT_FALSE(oracle.batchedEffective);
}

} // namespace
} // namespace perfbench
