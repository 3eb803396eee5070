/**
 * @file
 * Timeline analysis: turn a finalized sim::TimelineRecorder into a
 * Report::TimelineSection, running online phase segmentation
 * (change-point detection on normalized event-rate vectors) over the
 * exact per-interval deltas.
 */

#ifndef LIMIT_PROF_TIMELINE_HH
#define LIMIT_PROF_TIMELINE_HH

#include <string>

#include "prof/report.hh"
#include "sim/timeline.hh"

namespace limit::prof {

/**
 * L1 distance (over per-cycle event rates) a slice must diverge from
 * its phase's running mean to open a new phase. The rates are O(1)
 * quantities — IPC, misses per cycle — so 0.15 means "the slice's
 * behaviour vector moved by 0.15 events/cycle in aggregate".
 */
inline constexpr double phaseChangeThreshold = 0.15;

/**
 * Build a timeline section named `name` from `recorder`, which must
 * be finalized (Machine run complete, recorder.finalize(maxTime)
 * called). The section's `cores` view the recorder's lanes, so the
 * recorder must outlive it. Segments phases:
 *
 *  - each slice's feature vector is the machine-summed per-cycle rate
 *    of every non-cycle event (an all-idle slice is the zero vector);
 *  - a slice whose L1 distance from the current phase's mean exceeds
 *    phaseChangeThreshold starts a new phase;
 *  - each phase reports its mean IPC, per-event mean rates (plus a
 *    synthetic "utilization" = busy cycles / (cores * interval)), and
 *    the dominant architectural event (highest-rate event excluding
 *    cycles and instructions; "idle" when nothing ran).
 *
 * Fully deterministic: inputs are exact integers, so identical runs
 * produce identical sections across execution modes and --jobs.
 */
Report::TimelineSection buildTimeline(const std::string &name,
                                      const sim::TimelineRecorder &recorder);

} // namespace limit::prof

#endif // LIMIT_PROF_TIMELINE_HH
