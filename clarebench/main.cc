/**
 * @file
 * clarebench: the CLARE benchmark program.
 *
 *   clarebench --workload {batch_cold|wire_hot} --seed N
 *              [--seconds 1..60] [--trace 0|1]
 *
 * Generates the workload's inputs from the seed, drives them through
 * the program's public front doors, checks every sampled answer
 * against a reference server, and prints one line per metric (name,
 * value, unit, sample count) followed by a JSON object as the last
 * line of standard output.  Untraced runs report the end-to-end
 * metrics, traced runs the per-layer split.  A mismatch in the
 * exactness gate prints `"correct": false` and exits 1; an argument
 * error prints the usage text and exits 2.  Run it from the root of a
 * checkout: scratch stores live under .bench_scratch/, span logs go to
 * .bench_out/.
 */

#include <cstdio>
#include <exception>

#include "harness.hh"
#include "layers.hh"
#include "workloads.hh"

namespace {

/** Metrics an untraced run of every workload must report. */
const char *const kEndToEnd[] = {
    "setup_s", "goals_per_s", "request_p50_us", "request_p99_us",
    "peak_rss_mb",
};

/** Metrics a traced run of every workload must report. */
const char *const kPerLayer[] = {
    "crs.serve_us",
    "crs.self_us",
    "crs.batch_speedup",
    "crs.cache.l3_hit_ratio",
    "crs.cache.l2_hit_ratio",
    "crs.cache.invalidations_per_commit",
    "crs.mode_share.software",
    "crs.mode_share.fs1",
    "crs.mode_share.fs2",
    "crs.mode_share.two_stage",
    "crs.modeled.index_ms",
    "crs.modeled.filter_ms",
    "crs.modeled.host_unify_ms",
    "crs.modeled.cache_ms",
    "crs.live.commit_p50_us",
    "crs.live.commit_p90_us",
    "crs.live.publish_us",
    "crs.host_unify_span_us",
    "term.parse_clause_us",
    "term.parse_clause_calls",
    "term.canonical_key_us",
    "pif.encode_args_us",
    "scw.encode_us",
    "fs1.search_us",
    "fs1.scan_span_us",
    "fs1.entries_scanned",
    "fs1.survivors",
    "fs1.useful_ratio",
    "fs2.search_us",
    "fs2.search_span_us",
    "fs2.clauses_examined",
    "fs2.useful_ratio",
    "storage.source_text_us",
    "storage.wal.commit_us",
    "storage.wal.bytes_per_user_byte",
    "unify.would_unify_us",
    "unify.pif_match_us",
    "unify.answer_ratio",
    "net.codec_us",
    "net.server_rtt_us",
    "net.router_hop_us",
    "net.router.wait_us",
    "net.router.relayed",
    "net.router.failovers",
    "net.router.shed",
    "net.bytes_per_request",
    "bench.trace_overhead_frac",
};

template <std::size_t N>
void
requireAll(const clarebench::Report &report, const char *const (&names)[N])
{
    for (const char *name : names)
        if (!report.has(name))
            throw std::runtime_error(std::string("metric ") + name +
                                     " was not measured");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace clarebench;
    std::optional<Args> args = parseArgs(argc, argv);
    if (!args)
        return 2;
    try {
        Run run(*args);
        std::printf("clarebench workload=%s seed=%llu seconds=%u trace=%d\n",
                    args->workload.c_str(),
                    static_cast<unsigned long long>(args->seed),
                    args->seconds, args->trace ? 1 : 0);
        if (args->workload == "batch_cold")
            runBatchCold(run);
        else
            runWireHot(run);

        if (args->trace) {
            requireAll(run.report, kPerLayer);
            finishSpans(run);
        } else {
            requireAll(run.report, kEndToEnd);
        }
        const bool correct = run.mismatches.empty();
        std::printf("attempted %llu, failed %llu, mismatches %zu\n",
                    static_cast<unsigned long long>(run.attempted),
                    static_cast<unsigned long long>(run.failed),
                    run.mismatches.size());
        run.report.printLines();
        run.report.printJson(correct, run.attempted, run.failed);
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "clarebench: %s\n", e.what());
        return 1;
    }
}
