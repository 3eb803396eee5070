/**
 * @file
 * Syscall numbers understood by the simulated kernel.
 */

#ifndef LIMIT_OS_SYSNO_HH
#define LIMIT_OS_SYSNO_HH

#include <cstdint>

namespace limit::os {

/** Syscall numbers (see Kernel::syscall for argument conventions). */
enum Sys : std::uint32_t {
    /** No-op trap; measures bare kernel-crossing cost. */
    sysNop = 0,
    /** Voluntarily yield the core. */
    sysYield,
    /** Sleep: arg0 = duration in ticks. */
    sysSleep,
    /**
     * Futex wait: arg0 = simulated address (the traced value), arg1 =
     * expected value, arg2 = host word pointer. Returns 0 when woken,
     * 1 (EAGAIN) when the value did not match.
     */
    sysFutexWait,
    /**
     * Futex wake: arg0 = simulated address, arg1 = max waiters to
     * wake, arg2 = host word pointer. Returns the number woken.
     */
    sysFutexWake,
    /** perf_event-style counter read: arg0 = counter idx. */
    sysPerfRead,
    /**
     * perf_event-style ioctl: arg0 = counter idx, arg1 = op
     * (see PerfIoctlOp).
     */
    sysPerfIoctl,
    /** PAPI-class lighter-weight counter read: arg0 = counter idx. */
    sysPapiRead,
    /**
     * rusage-style accounting read: arg0 = 0 for user jiffies-cycles,
     * 1 for system. Quantum resolution by construction.
     */
    sysRusage,
    /**
     * Submit blocking I/O (network/disk): arg0 = device latency in
     * ticks. The thread sleeps until completion.
     */
    sysIoSubmit,
    /** Returns the calling thread id. */
    sysGetTid,
    /**
     * Reprogram PMU counters (multiplex rotation): arg0 = number of
     * counters rewritten. Charges the MSR write cost; the actual
     * reconfiguration is performed by the caller's host-side session.
     */
    sysPmcConfig,

    sysCount, // must be last
};

/** Short syscall name (nullptr for out-of-range numbers). */
constexpr const char *
sysName(std::uint32_t nr)
{
    switch (static_cast<Sys>(nr)) {
      case sysNop: return "nop";
      case sysYield: return "yield";
      case sysSleep: return "sleep";
      case sysFutexWait: return "futex-wait";
      case sysFutexWake: return "futex-wake";
      case sysPerfRead: return "perf-read";
      case sysPerfIoctl: return "perf-ioctl";
      case sysPapiRead: return "papi-read";
      case sysRusage: return "rusage";
      case sysIoSubmit: return "io-submit";
      case sysGetTid: return "gettid";
      case sysPmcConfig: return "pmc-config";
      default: return nullptr;
    }
}

/** Ops for sysPerfIoctl. */
enum class PerfIoctlOp : std::uint64_t {
    Enable = 0,
    Disable = 1,
    Reset = 2,
};

} // namespace limit::os

#endif // LIMIT_OS_SYSNO_HH
