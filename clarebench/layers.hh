/**
 * @file
 * The traced run's per-layer split.  Each workload's distinct goals
 * are replayed on the store version the workload ended on: one
 * serve() per goal on a fresh server with the workload's config, then
 * the public calls of every module that serve() makes for that goal
 * (term, pif, scw, fs1, fs2, storage, unify), each timed in its own
 * span.  The per-goal figures are weighted by the share of the
 * workload's requests that take each path (L3 hit or miss), so a
 * layer's metric is its time per goal of that workload.
 */

#ifndef CLAREBENCH_LAYERS_HH
#define CLAREBENCH_LAYERS_HH

#include <map>
#include <string>
#include <vector>

#include "crs/server.hh"
#include "harness.hh"
#include "kb.hh"
#include "support/obs.hh"

namespace clarebench {

/** What the replay needs from a finished workload. */
struct ReplayInput
{
    std::vector<const Goal *> goals; ///< distinct goals of the workload
    clare::term::SymbolTable *symbols = nullptr;
    const clare::crs::PredicateStore *store = nullptr;
    clare::crs::CrsConfig config;    ///< the workload's server config
    /** Share of the workload's requests answered by the L3 cache. */
    double l3HitRatio = 0;
};

/**
 * Replay the goals and set every crs / term / pif / scw / fs1 / fs2 /
 * storage.source_text / unify / net.codec per-layer metric.  Checks
 * that the replayed unification reproduces each response's answers.
 */
void replayLayers(Run &run, const ReplayInput &in);

/** Counter values of some servers' metrics() at one moment. */
class CounterBaseline
{
  public:
    explicit CounterBaseline(
        const std::vector<const clare::obs::MetricsRegistry *> &servers);
    /** Growth of counter @p name (summed over the servers) since. */
    std::uint64_t delta(const std::string &name) const;

  private:
    std::vector<const clare::obs::MetricsRegistry *> servers_;
    std::map<std::string, std::uint64_t> before_;
};

/**
 * Cache and mode metrics of the timed phase, from the servers'
 * metrics() counters since @p baseline: crs.cache.l3_hit_ratio,
 * crs.cache.l2_hit_ratio and crs.mode_share.*.  Returns the L3 hit
 * ratio.
 */
double cacheAndModeMetrics(Run &run, const CounterBaseline &baseline);

/**
 * Write-path metrics of the write probe: crs.live.commit_p50_us and
 * crs.live.commit_p90_us, storage.wal.commit_us and
 * storage.wal.bytes_per_user_byte (the same ops into a standalone
 * WAL), crs.live.publish_us (mean LiveStore commit wall minus the
 * WAL's), and crs.cache.invalidations_per_commit.
 */
void writeMetrics(Run &run, const WriteProbe &probe,
                  std::uint64_t invalidations);

/**
 * Record the wire metrics a workload without wire traffic does not
 * exercise as 0 (no time and no requests in that layer).
 */
void noWireMetrics(Run &run);

/**
 * Traced-minus-untraced throughput, as a share of untraced.  The traced
 * slices of a timed phase add only one benchmark-side span per request
 * (the per-layer spans run in the replay, which is not timed against
 * an untraced one), so this is the cost of that outer span: near noise
 * level, and it may read negative.
 */
void traceOverhead(Run &run, double untracedGoalsPerS,
                   double tracedGoalsPerS);

/** Write the span log under .bench_out/ and report its size. */
void finishSpans(Run &run);

} // namespace clarebench

#endif // CLAREBENCH_LAYERS_HH
