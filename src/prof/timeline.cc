#include "prof/timeline.hh"

#include <cmath>
#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace limit::prof {

namespace {

using sim::EventType;
using sim::numEventTypes;

/** Machine-summed deltas of one slice. */
sim::EventDeltas
sliceSum(const Report::TimelineSection &t, std::size_t slice)
{
    sim::EventDeltas v{};
    for (const sim::TimelineLane *lane : t.cores)
        v += (*lane)[slice];
    return v;
}

/** Per-cycle rate vector of a slice (zero vector when fully idle). */
void
rateVector(const sim::EventDeltas &v, double (&r)[numEventTypes])
{
    const double cycles =
        static_cast<double>(v[EventType::Cycles]);
    for (unsigned e = 0; e < numEventTypes; ++e)
        r[e] = cycles <= 0 ? 0.0 : static_cast<double>(v.counts[e]) /
                                       cycles;
}

} // namespace

Report::TimelineSection
buildTimeline(const std::string &name,
              const sim::TimelineRecorder &recorder)
{
    fatal_if(!recorder.finalized(),
             "buildTimeline: recorder not finalized (call "
             "recorder.finalize(machine.maxTime()) after the run)");
    Report::TimelineSection t;
    t.name = name;
    t.intervalTicks = recorder.interval();
    t.cores.reserve(recorder.numLanes());
    for (const auto &lane : recorder.lanes())
        t.cores.push_back(&lane);

    const std::size_t slices = recorder.numSlices();
    if (slices == 0 || t.cores.empty())
        return t;

    // Online change-point scan. The phase accumulator keeps exact
    // integer sums; means are only formed when comparing/closing, so
    // the arithmetic is identical for identical inputs.
    sim::EventDeltas phaseSum{};
    std::size_t phaseFirst = 0;

    auto closePhase = [&](std::size_t end_exclusive) {
        Report::TimelineSection::Phase p;
        p.firstSlice = phaseFirst;
        p.numSlices = end_exclusive - phaseFirst;
        const double cycles =
            static_cast<double>(phaseSum[EventType::Cycles]);
        p.ipc = cycles <= 0
                    ? 0.0
                    : static_cast<double>(
                          phaseSum[EventType::Instructions]) /
                          cycles;
        double bestRate = 0;
        for (unsigned e = 0; e < numEventTypes; ++e) {
            const auto ev = static_cast<EventType>(e);
            const double rate =
                cycles <= 0 ? 0.0
                            : static_cast<double>(phaseSum.counts[e]) /
                                  cycles;
            if (ev != EventType::Cycles)
                p.rates[std::string(sim::eventName(ev))] = rate;
            if (ev != EventType::Cycles &&
                ev != EventType::Instructions && rate > bestRate) {
                bestRate = rate;
                p.dominant = std::string(sim::eventName(ev));
            }
        }
        p.rates["utilization"] =
            cycles /
            (static_cast<double>(t.cores.size()) *
             static_cast<double>(t.intervalTicks) *
             static_cast<double>(p.numSlices));
        if (p.dominant.empty())
            p.dominant = cycles <= 0 ? "idle" : "compute";
        t.phases.push_back(std::move(p));
        phaseFirst = end_exclusive;
        phaseSum = sim::EventDeltas{};
    };

    for (std::size_t s = 0; s < slices; ++s) {
        const sim::EventDeltas v = sliceSum(t, s);
        if (s > phaseFirst) {
            double r[numEventTypes], m[numEventTypes];
            rateVector(v, r);
            rateVector(phaseSum, m);
            double dist = 0;
            for (unsigned e = 0; e < numEventTypes; ++e) {
                if (static_cast<EventType>(e) != EventType::Cycles)
                    dist += std::abs(r[e] - m[e]);
            }
            if (dist > phaseChangeThreshold)
                closePhase(s);
        }
        phaseSum += v;
    }
    closePhase(slices);
    return t;
}

} // namespace limit::prof
