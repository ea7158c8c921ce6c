/**
 * @file
 * The clarebench workloads.  Each generates its inputs from the run's
 * seed, sets up servers the way the tools deploy them, drives them
 * through a public front door for the run's seconds, checks the
 * answers, runs the write probe, and records its metrics in the run's
 * report: end-to-end metrics when untraced, per-layer metrics when
 * traced.
 */

#ifndef CLAREBENCH_WORKLOADS_HH
#define CLAREBENCH_WORKLOADS_HH

#include <filesystem>
#include <memory>
#include <string>

#include "harness.hh"
#include "layers.hh"

namespace clarebench {

/** Cold mixed-mode serveBatch() over a large KB (workers 4). */
void runBatchCold(Run &run);
/** Zipf repeat traffic: NetClient -> Router -> two NetServers. */
void runWireHot(Run &run);

/** Set-ups an untraced run makes; setup_s reports their median. */
constexpr int kSetupRepeats = 5;

/**
 * Run @p setup (which builds a world from a fresh store directory)
 * kSetupRepeats times, or once when traced, keeping the last world
 * and reporting the median wall time as setup_s.  Starts the
 * peak_rss_mb window once the last world is set up.
 */
template <typename World, typename Setup>
std::unique_ptr<World>
repeatedSetup(Run &run, Setup setup)
{
    const int repeats = run.args.trace ? 1 : kSetupRepeats;
    const std::string dir = run.scratch.sub("store");
    Samples seconds;
    std::unique_ptr<World> world;
    for (int i = 0; i < repeats; ++i) {
        world.reset();
        std::filesystem::remove_all(dir);
        Clock::time_point t0 = Clock::now();
        world = setup(dir);
        seconds.add(secondsBetween(t0, Clock::now()));
    }
    if (!run.args.trace)
        run.report.set("setup_s", seconds.percentile(0.5), "s",
                       "(median of " + std::to_string(repeats) +
                           " set-ups)");
    resetPeakRss();
    return world;
}

/**
 * The timed phase of a traced run: kTraceSlices slices of equal length
 * that alternate untraced and traced, so both halves see the same mix
 * of warm-up and host noise.  @p slice(seconds, index) runs one slice
 * with the span log already switched; the difference in goals_per_s
 * is reported as the tracing overhead.
 */
template <typename Slice>
void
alternateSlices(Run &run, Slice slice)
{
    constexpr int kTraceSlices = 6;
    const double seconds = run.args.seconds / double{kTraceSlices};
    PhaseStats halves[2];
    for (int i = 0; i < kTraceSlices; ++i) {
        const bool traced = i % 2 == 1;
        run.spans.setEnabled(traced);
        PhaseStats s = slice(seconds, i);
        halves[traced].goals += s.goals;
        halves[traced].seconds += s.seconds;
    }
    run.spans.setEnabled(true);
    traceOverhead(run, halves[0].goalsPerS(), halves[1].goalsPerS());
}

} // namespace clarebench

#endif // CLAREBENCH_WORKLOADS_HH
