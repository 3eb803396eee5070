/**
 * @file
 * The one-core stream job shared by the fast-path shape and sentinel
 * probe-work tests: a Stream ComputeKernel over 16 MiB, a PEC session
 * counting cycles, 60M ticks. Nearly every guest op is a replayable
 * loop-body op with a line-crossing stall every few iterations, so the
 * job exercises horizon batching, superblock replay and stall bridging
 * at once.
 */

#ifndef LIMIT_TESTS_STREAM_JOB_HH
#define LIMIT_TESTS_STREAM_JOB_HH

#include <cstdint>

#include "analysis/bundle.hh"
#include "pec/pec.hh"
#include "sim/superblock.hh"
#include "workloads/kernels.hh"

namespace limit {

/** What the stream job leaves behind, read after the run. */
struct StreamJob
{
    std::uint64_t instructions = 0;
    std::uint64_t batchRounds = 0;
    std::uint64_t batchOps = 0;
    sim::SuperblockStats sb{};
};

/**
 * Run the stream job in the process's current execution mode. Under
 * an active guard::ProbeScope the run is truncated to the probe's
 * window and folded into its fingerprint, as any SimBundle::run is.
 */
inline StreamJob
runStreamJob()
{
    analysis::SimBundle b(
        analysis::BundleOptions::builder().cores(1).seed(1).build());
    pec::PecSession session(b.kernel());
    session.addEvent(0, sim::EventType::Cycles, true, true);
    workloads::ComputeKernel k(b.kernel(), workloads::KernelKind::Stream,
                               16 << 20, 777);
    k.spawn();
    b.run(60'000'000);
    StreamJob out;
    out.instructions =
        analysis::totalEvent(b.kernel(), sim::EventType::Instructions);
    out.batchRounds = b.machine().batchRounds();
    out.batchOps = b.machine().batchOps();
    out.sb = b.machine().superblockStats();
    return out;
}

} // namespace limit

#endif // LIMIT_TESTS_STREAM_JOB_HH
