/**
 * @file
 * Per-layer host-time attribution for the benchmark's traced runs.
 *
 * Everything here sits *outside* the simulator: spans are opened by the
 * benchmark around calls into each layer's public entry points, and the
 * two hot layer boundaries the machine calls through virtually —
 * sim::MemoryIf (the cache hierarchy) and sim::KernelIf (the kernel) —
 * are wrapped in forwarding decorators installed with
 * Machine::setMemory / Machine::setKernel after bundle construction and
 * before the first run. The decorators forward every virtual method, so
 * the simulated result is unchanged (checked on every traced run).
 *
 * Coarse calls (bundle construction, SimBundle::run, report emission,
 * the sensitivity sweep and its points) become spans kept in memory:
 * name, start, end and parent. Hot calls (millions of memory accesses
 * and syscalls per run) are too many to keep one by one; the decorators
 * fold them into per-bundle counts and summed durations instead.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/bundle.hh"
#include "sim/kernel_if.hh"
#include "sim/memory_if.hh"

namespace perfbench {

/** Monotonic host nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU seconds consumed by the calling thread. */
double threadCpuSec();

/** One recorded layer call. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
};

/**
 * In-memory span store shared by every thread of a traced run. The
 * parent of a span is the innermost span open on the same thread; a
 * span opened on a thread with none open (a sweep worker) takes the
 * recorder's adopted parent instead.
 */
class SpanRecorder
{
  public:
    /** Open a span; returns its index. */
    int open(const std::string &name);
    void close(int index);

    /** Parent for spans opened on threads with no open span. */
    void adopt(int parent) { adopted_ = parent; }

    std::vector<Span> spans() const;
    /** The spans as a JSON array. */
    std::string toJson() const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    int adopted_ = -1;
};

/** RAII span; a null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const std::string &name)
        : rec_(rec), index_(rec ? rec->open(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return index_; }

  private:
    SpanRecorder *rec_;
    int index_;
};

/** Counts and summed host time at the MemoryIf / KernelIf boundaries. */
struct BoundaryStats
{
    std::uint64_t accessCalls = 0;
    std::uint64_t accessNs = 0;
    std::uint64_t fastAttempts = 0;
    std::uint64_t fastHits = 0;
    std::uint64_t creditedAccesses = 0;
    std::uint64_t peekViews = 0;

    std::uint64_t syscalls = 0;
    std::uint64_t syscallNs = 0;
    std::uint64_t polls = 0;
    std::uint64_t pollNs = 0;
    std::uint64_t timerTicks = 0;
    std::uint64_t timerNs = 0;
    std::uint64_t pmis = 0;
    std::uint64_t pmiNs = 0;
    std::uint64_t exitNs = 0;

    /** Host time spent in any kernel entry point. */
    std::uint64_t
    kernelNs() const
    {
        return syscallNs + pollNs + timerNs + pmiNs + exitNs;
    }

    BoundaryStats &operator+=(const BoundaryStats &o);
};

/**
 * Forwarding decorator over a memory model. access() is timed;
 * tryFastAccess() is only counted (it is a few nanoseconds, and a
 * clock read per call would dwarf it); fastPeekView() and
 * creditFastAccesses() forward so superblock replay and the MRU fast
 * path see exactly the wrapped model.
 */
class TracedMemory : public limit::sim::MemoryIf
{
  public:
    TracedMemory(limit::sim::MemoryIf &inner, BoundaryStats &stats)
        : inner_(inner), stats_(stats)
    {
    }

    using limit::sim::MemoryIf::access;

    limit::sim::Tick access(limit::sim::CoreId core, limit::sim::Addr addr,
                            bool write, bool atomic,
                            limit::sim::EventDeltas &deltas) override;
    limit::sim::Tick tryFastAccess(limit::sim::CoreId core,
                                   limit::sim::Addr addr,
                                   bool write) override;
    limit::sim::FastPeekView fastPeekView(limit::sim::CoreId core) override;
    void creditFastAccesses(limit::sim::CoreId core,
                            std::uint64_t n) override;

  private:
    limit::sim::MemoryIf &inner_;
    BoundaryStats &stats_;
};

/**
 * Forwarding decorator over the kernel; every entry point is timed.
 * The kernel never calls the memory model, so kernel time and memory
 * time never nest.
 */
class TracedKernel : public limit::sim::KernelIf
{
  public:
    TracedKernel(limit::sim::KernelIf &inner, BoundaryStats &stats)
        : inner_(inner), stats_(stats)
    {
    }

    limit::sim::SyscallOutcome
    syscall(limit::sim::Cpu &cpu, limit::sim::GuestContext &ctx,
            std::uint32_t nr,
            const std::array<std::uint64_t, 4> &args) override;
    void timerTick(limit::sim::Cpu &cpu) override;
    void pmuOverflow(limit::sim::Cpu &cpu, unsigned counter,
                     std::uint32_t wraps) override;
    void threadExited(limit::sim::Cpu &cpu,
                      limit::sim::GuestContext &ctx) override;
    bool poll(limit::sim::Tick now) override;
    bool allThreadsDone() const override;
    std::string blockedReport() const override;

  private:
    limit::sim::KernelIf &inner_;
    BoundaryStats &stats_;
};

/**
 * Both decorators installed on one bundle for the lifetime of this
 * object; the destructor restores the bundle's own memory model and
 * kernel, so the bundle can be inspected and destroyed normally.
 */
class BoundaryTap
{
  public:
    BoundaryTap(limit::analysis::SimBundle &bundle, BoundaryStats &stats);
    ~BoundaryTap();
    BoundaryTap(const BoundaryTap &) = delete;
    BoundaryTap &operator=(const BoundaryTap &) = delete;

  private:
    limit::analysis::SimBundle &bundle_;
    limit::sim::MemoryIf *memory_;
    TracedKernel kernel_;
    TracedMemory traced_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
