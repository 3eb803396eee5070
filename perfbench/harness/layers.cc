#include "layers.hh"

#include <cstdio>
#include <ctime>

#include "sim/machine.hh"

namespace perfbench {

using namespace limit;

double
threadCpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/** Innermost open span of the calling thread, per recorder. */
struct OpenStack
{
    const SpanRecorder *owner = nullptr;
    std::vector<int> stack;
};

OpenStack &
openStack(const SpanRecorder *rec)
{
    static thread_local OpenStack s;
    if (s.owner != rec) {
        s.owner = rec;
        s.stack.clear();
    }
    return s;
}

/** Adds the elapsed time of one boundary call to a counter. */
class Stopwatch
{
  public:
    explicit Stopwatch(std::uint64_t &sink) : sink_(sink), t0_(nowNs()) {}
    ~Stopwatch() { sink_ += static_cast<std::uint64_t>(nowNs() - t0_); }

  private:
    std::uint64_t &sink_;
    std::int64_t t0_;
};

} // namespace

int
SpanRecorder::open(const std::string &name)
{
    OpenStack &os = openStack(this);
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    const int parent = os.stack.empty() ? adopted_ : os.stack.back();
    spans_.push_back(Span{name, t, 0, parent});
    const int index = static_cast<int>(spans_.size()) - 1;
    os.stack.push_back(index);
    return index;
}

void
SpanRecorder::close(int index)
{
    const std::int64_t t = nowNs();
    OpenStack &os = openStack(this);
    if (!os.stack.empty() && os.stack.back() == index)
        os.stack.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].endNs = t;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::string
SpanRecorder::toJson() const
{
    const std::vector<Span> all = spans();
    std::string out = "[";
    char buf[160];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n  {\"id\": %zu, \"parent\": %d, \"start_ns\": "
                      "%lld, \"end_ns\": %lld, \"name\": \"",
                      i == 0 ? "" : ",", i, s.parent,
                      static_cast<long long>(s.startNs),
                      static_cast<long long>(s.endNs));
        out += buf;
        out += s.name; // names are fixed identifiers, no escaping needed
        out += "\"}";
    }
    out += "\n]\n";
    return out;
}

BoundaryStats &
BoundaryStats::operator+=(const BoundaryStats &o)
{
    accessCalls += o.accessCalls;
    accessNs += o.accessNs;
    fastAttempts += o.fastAttempts;
    fastHits += o.fastHits;
    creditedAccesses += o.creditedAccesses;
    peekViews += o.peekViews;
    syscalls += o.syscalls;
    syscallNs += o.syscallNs;
    polls += o.polls;
    pollNs += o.pollNs;
    timerTicks += o.timerTicks;
    timerNs += o.timerNs;
    pmis += o.pmis;
    pmiNs += o.pmiNs;
    exitNs += o.exitNs;
    return *this;
}

sim::Tick
TracedMemory::access(sim::CoreId core, sim::Addr addr, bool write,
                     bool atomic, sim::EventDeltas &deltas)
{
    ++stats_.accessCalls;
    const std::int64_t t0 = nowNs();
    const sim::Tick latency =
        inner_.access(core, addr, write, atomic, deltas);
    stats_.accessNs += static_cast<std::uint64_t>(nowNs() - t0);
    return latency;
}

sim::Tick
TracedMemory::tryFastAccess(sim::CoreId core, sim::Addr addr, bool write)
{
    ++stats_.fastAttempts;
    const sim::Tick latency = inner_.tryFastAccess(core, addr, write);
    if (latency != 0)
        ++stats_.fastHits;
    return latency;
}

sim::FastPeekView
TracedMemory::fastPeekView(sim::CoreId core)
{
    ++stats_.peekViews;
    return inner_.fastPeekView(core);
}

void
TracedMemory::creditFastAccesses(sim::CoreId core, std::uint64_t n)
{
    stats_.creditedAccesses += n;
    inner_.creditFastAccesses(core, n);
}

sim::SyscallOutcome
TracedKernel::syscall(sim::Cpu &cpu, sim::GuestContext &ctx,
                      std::uint32_t nr,
                      const std::array<std::uint64_t, 4> &args)
{
    ++stats_.syscalls;
    Stopwatch sw(stats_.syscallNs);
    return inner_.syscall(cpu, ctx, nr, args);
}

void
TracedKernel::timerTick(sim::Cpu &cpu)
{
    ++stats_.timerTicks;
    Stopwatch sw(stats_.timerNs);
    inner_.timerTick(cpu);
}

void
TracedKernel::pmuOverflow(sim::Cpu &cpu, unsigned counter,
                          std::uint32_t wraps)
{
    ++stats_.pmis;
    Stopwatch sw(stats_.pmiNs);
    inner_.pmuOverflow(cpu, counter, wraps);
}

void
TracedKernel::threadExited(sim::Cpu &cpu, sim::GuestContext &ctx)
{
    Stopwatch sw(stats_.exitNs);
    inner_.threadExited(cpu, ctx);
}

bool
TracedKernel::poll(sim::Tick now)
{
    ++stats_.polls;
    Stopwatch sw(stats_.pollNs);
    return inner_.poll(now);
}

bool
TracedKernel::allThreadsDone() const
{
    return inner_.allThreadsDone();
}

std::string
TracedKernel::blockedReport() const
{
    return inner_.blockedReport();
}

BoundaryTap::BoundaryTap(analysis::SimBundle &bundle, BoundaryStats &stats)
    : bundle_(bundle), memory_(bundle.machine().memory()),
      kernel_(*bundle.machine().kernel(), stats),
      traced_(*memory_, stats)
{
    bundle_.machine().setMemory(&traced_);
    bundle_.machine().setKernel(&kernel_);
}

BoundaryTap::~BoundaryTap()
{
    bundle_.machine().setMemory(memory_);
    bundle_.machine().setKernel(&bundle_.kernel());
}

} // namespace perfbench
