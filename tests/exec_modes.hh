/**
 * @file
 * What the process-wide execution defaults leave reachable. The
 * no-batch and no-superblock CI jobs run every test with
 * LIMITPP_FORCE_NO_BATCH / LIMITPP_FORCE_NO_SUPERBLOCK set; tests that
 * assert fast-path activity (replay counts, replay corruption, sentinel
 * quarantine) ask here which behaviour the forced mode leaves, and
 * assert that instead.
 */

#ifndef LIMIT_TESTS_EXEC_MODES_HH
#define LIMIT_TESTS_EXEC_MODES_HH

#include "sim/machine.hh"

namespace limit {

/**
 * True when a superblock-requesting bundle can actually replay:
 * neither batching nor the superblock cache is forced off.
 */
inline bool
superblocksActive()
{
    return sim::batchedExecutionDefault() &&
           sim::superblockExecutionDefault();
}

} // namespace limit

#endif // LIMIT_TESTS_EXEC_MODES_HH
