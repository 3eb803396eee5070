/**
 * @file
 * Guest-cycle timeline recorder: exact per-interval PMU event deltas.
 *
 * Every event application on a core lands in the slice holding the
 * core's clock at apply time (slice = now / interval). Because all
 * three execution loops apply an op's events *before* advancing the
 * clock — and superblock replay sizing additionally refuses to let a
 * span cross the next slice boundary (see Cpu::sbSizeIters) — the
 * slice vectors are bit-identical across per-op, batched and
 * superblock execution, and across any `--jobs` fan-out (the
 * instrumented run is a dedicated single representative run).
 *
 * Unlike sampling, nothing here is statistical: each slice is the
 * exact sum of the event deltas of the ops that started inside it.
 *
 * Header-only on purpose: `limit_trace` links only `limit_base` (the
 * sim library links trace, not vice versa), so the Perfetto exporter
 * reads recorder data through these inline accessors without adding
 * a circular library dependency.
 */

#ifndef LIMIT_SIM_TIMELINE_HH
#define LIMIT_SIM_TIMELINE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "sim/types.hh"

namespace limit::sim {

/**
 * One core's accumulation lane. `cur` collects deltas for the slice
 * `curIndex`; Cpu::tlRoll flushes it when the clock crosses the next
 * boundary. The hot path pokes `cur` and `curIndex` directly and only
 * flush() touches the committed slices.
 *
 * Committed slices are stored as one column per event, each at the
 * narrowest width (1, 2, 4 or 8 bytes) that holds every value written
 * to it so far. A column widens in place, exactly, the first time a
 * value does not fit, so reads always return the exact count. Most
 * slices carry a few small counts, so a lane costs a fraction of a
 * dense `EventDeltas` (88 B) per slice.
 */
class TimelineLane
{
  public:
    /** In-flight accumulator for slice curIndex. */
    EventDeltas cur{};
    /** Slice `cur` belongs to. */
    std::uint64_t curIndex = 0;

    /**
     * Committed slice count; slice i covers ticks
     * [i*interval, (i+1)*interval).
     */
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Exact count of `e` in slice `s` (s < size()). */
    std::uint64_t
    count(std::size_t s, EventType e) const
    {
        return cols_[static_cast<unsigned>(e)].get(s);
    }

    /** Every event's count in slice `s` (s < size()). */
    EventDeltas
    operator[](std::size_t s) const
    {
        EventDeltas d;
        for (unsigned e = 0; e < numEventTypes; ++e)
            d.counts[e] = cols_[e].get(s);
        return d;
    }

    /** Host bytes the committed slices occupy, spare capacity aside. */
    std::size_t
    storageBytes() const
    {
        std::size_t n = 0;
        for (const Column &c : cols_)
            n += c.bytes();
        return n;
    }

    /**
     * Add `cur` into its slice, zero-filling any slices skipped since
     * the last flush, and zero `cur`.
     */
    void
    flush()
    {
        pad(static_cast<std::size_t>(curIndex) + 1);
        for (unsigned e = 0; e < numEventTypes; ++e) {
            if (cur.counts[e] != 0)
                cols_[e].add(static_cast<std::size_t>(curIndex),
                             cur.counts[e]);
        }
        cur = EventDeltas{};
    }

    /** Grow to at least `n` slices; new slices read zero. */
    void
    pad(std::size_t n)
    {
        if (n <= size_)
            return;
        for (Column &c : cols_)
            c.resize(n);
        size_ = n;
    }

  private:
    /** One event's slice values, little-endian, `width_` bytes each. */
    class Column
    {
      public:
        std::uint64_t get(std::size_t i) const { return load(i, width_); }

        void
        add(std::size_t i, std::uint64_t delta)
        {
            const std::uint64_t v = get(i) + delta;
            unsigned w = width_;
            while (w < 8 && (v >> (8 * w)) != 0)
                w *= 2;
            if (w > width_)
                widen(w);
            store(i, v, w);
        }

        void resize(std::size_t n) { bytes_.resize(n * width_); }

        std::size_t bytes() const { return bytes_.size(); }

      private:
        std::uint64_t
        load(std::size_t i, unsigned w) const
        {
            std::uint64_t v = 0;
            for (unsigned b = 0; b < w; ++b)
                v |= std::uint64_t{bytes_[i * w + b]} << (8 * b);
            return v;
        }

        void
        store(std::size_t i, std::uint64_t v, unsigned w)
        {
            for (unsigned b = 0; b < w; ++b)
                bytes_[i * w + b] = static_cast<std::uint8_t>(v >> (8 * b));
        }

        /**
         * Re-encode every slot at width `w` in place. Walking from the
         * last slot down never overwrites a slot not yet moved: slot i
         * lands at i*w, at or past its old offset i*width_.
         */
        void
        widen(unsigned w)
        {
            const std::size_t n = bytes_.size() / width_;
            bytes_.resize(n * w);
            for (std::size_t i = n; i-- > 0;)
                store(i, load(i, width_), w);
            width_ = w;
        }

        std::vector<std::uint8_t> bytes_;
        unsigned width_ = 1;
    };

    std::array<Column, numEventTypes> cols_;
    std::size_t size_ = 0;
};

/**
 * Whole-machine timeline: one lane per core plus the slicing
 * interval. Attach via Machine::setTimeline before running, call
 * finalize(machine.maxTime()) after; lanes are then padded to a
 * common, mode-invariant slice count (the slice holding the final
 * machine clock), so trailing idle slices never differ between
 * execution modes.
 */
class TimelineRecorder
{
  public:
    explicit TimelineRecorder(Tick interval_ticks)
        : interval_(interval_ticks)
    {
        fatal_if(interval_ticks == 0,
                 "TimelineRecorder: interval must be > 0");
    }

    Tick interval() const { return interval_; }

    /** Called by Machine::setTimeline; resets any previous capture. */
    void
    attach(unsigned num_cores)
    {
        lanes_.assign(num_cores, TimelineLane{});
        finalized_ = false;
    }

    unsigned
    numLanes() const
    {
        return static_cast<unsigned>(lanes_.size());
    }

    TimelineLane &lane(unsigned core) { return lanes_.at(core); }

    /**
     * Flush every lane and pad all of them to the slice containing
     * `max_time` (the final machine clock — identical across
     * execution modes). Idempotent.
     */
    void
    finalize(Tick max_time)
    {
        if (finalized_)
            return;
        const std::size_t n =
            static_cast<std::size_t>(max_time / interval_) + 1;
        for (auto &lane : lanes_) {
            lane.flush();
            lane.pad(n);
        }
        finalized_ = true;
    }

    bool finalized() const { return finalized_; }

    std::size_t
    numSlices() const
    {
        return lanes_.empty() ? 0 : lanes_.front().size();
    }

    const std::vector<TimelineLane> &lanes() const { return lanes_; }

  private:
    Tick interval_;
    std::vector<TimelineLane> lanes_;
    bool finalized_ = false;
};

} // namespace limit::sim

#endif // LIMIT_SIM_TIMELINE_HH
