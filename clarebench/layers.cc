#include "layers.hh"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "fs1/fs1_engine.hh"
#include "fs2/fs2_engine.hh"
#include "net/frame.hh"
#include "net/term_codec.hh"
#include "net/wire.hh"
#include "pif/encoder.hh"
#include "support/thread_pool.hh"
#include "term/canonical.hh"
#include "term/term_reader.hh"
#include "unify/oracle.hh"
#include "unify/pif_matcher.hh"

namespace clarebench {

using namespace clare;

namespace {

/** Keep a computed value observable so the call is not elided. */
template <typename T>
void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

bool
usesFs1(crs::SearchMode mode)
{
    return mode == crs::SearchMode::Fs1Only ||
        mode == crs::SearchMode::TwoStage;
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

double
ticksToMs(double ticks)
{
    return ticks / static_cast<double>(kMillisecond);
}

/** Mean cost (us) of one Clock::now(), measured now. */
double
clockReadUs()
{
    constexpr int kReads = 20000;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kReads; ++i) {
        Clock::time_point t = Clock::now();
        keep(t);
    }
    return microsBetween(t0, Clock::now()) / kReads;
}

} // namespace

void
replayLayers(Run &run, const ReplayInput &in)
{
    SpanLog &log = run.spans;
    const crs::CrsConfig &cfg = in.config;
    const bool caching = cfg.cache.enabled;
    const double h = caching ? in.l3HitRatio : 0.0;
    const double w = 1.0 - h;
    const double n = static_cast<double>(in.goals.size());
    if (in.goals.empty())
        throw std::runtime_error("layer replay without goals");

    crs::ClauseRetrievalServer server(*in.symbols, *in.store, cfg);

    // The FS1 scan as serve() runs it: the same engine config, and
    // with workers > 1 a pool of workers - 1 threads and the same
    // shard count (workers clamped to the cores).
    fs1::Fs1Engine fs1(in.store->generator(), cfg.fs1);
    std::unique_ptr<support::ThreadPool> pool;
    std::uint32_t shards = 1;
    if (cfg.workers > 1) {
        pool = std::make_unique<support::ThreadPool>(cfg.workers - 1);
        std::uint32_t cores =
            std::max(1u, std::thread::hardware_concurrency());
        shards = cfg.fs1.paceScale > 0 ? cfg.workers
                                       : std::min(cfg.workers, cores);
    }
    obs::MetricsRegistry replayMetrics;
    obs::Observer ob{nullptr, &replayMetrics};
    term::TermReader reader(*in.symbols);
    const storage::DiskModel &dataDisk = in.store->dataDisk();

    double candidates = 0, answers = 0;
    double fs1Entries = 0, fs1Survivors = 0, fs1Answers = 0;
    double fs2Examined = 0, fs2Accepted = 0, fs2Answers = 0;
    double modeledIndex = 0, modeledFilter = 0, modeledUnify = 0,
           modeledCache = 0;
    double wireBytes = 0;
    double sourceTextUs = 0, parseUs = 0, unifyUs = 0;
    std::size_t cacheable = 0;
    std::vector<crs::RetrievalResponse> missResponses;
    missResponses.reserve(in.goals.size());

    for (std::size_t i = 0; i < in.goals.size(); ++i) {
        const Goal &goal = *in.goals[i];
        const term::TermArena &arena = goal.arena;
        crs::RetrievalRequest req = goal.request();
        Scope root(log, "replay.goal", 0, i);

        crs::RetrievalResponse miss;
        {
            Scope s(log, "crs.serve.miss", root.id(), i);
            miss = server.serve(req);
        }
        std::shared_ptr<const crs::StoredPredicate> pinned =
            in.store->predicateVersion(goal.pred);
        const crs::StoredPredicate &stored = *pinned;
        const storage::ClauseFile &file = stored.clauses;
        const bool fs1Mode = usesFs1(miss.mode);
        const bool survivorReplay = caching && fs1Mode &&
            miss.breakdown.indexTime == 0 &&
            miss.breakdown.cacheTime == cfg.cache.survivorHitCost;

        if (caching) {
            Scope s(log, "term.canonical_key", root.id(), i);
            std::string key = term::canonicalKey(arena, goal.term);
            keep(key);
        }
        fs1::Fs1Result scan;
        if (fs1Mode) {
            scw::Signature sig;
            if (survivorReplay) {
                // serve() replayed the memoized survivor set: no
                // signature encode and no scan on its path.
                sig = in.store->generator().encode(arena, goal.term);
                scan = fs1.search(stored.index, stored.sliced.get(),
                                  stored.deltaSliced.get(),
                                  stored.baseEntries, sig, pool.get(),
                                  shards);
            } else {
                {
                    Scope s(log, "scw.encode", root.id(), i);
                    sig = in.store->generator().encode(arena, goal.term);
                }
                Scope s(log, "fs1.search", root.id(), i);
                scan = fs1.search(stored.index, stored.sliced.get(),
                                  stored.deltaSliced.get(),
                                  stored.baseEntries, sig, pool.get(),
                                  shards, ob, 0);
            }
            fs1Entries += static_cast<double>(scan.entriesScanned);
            fs1Survivors += static_cast<double>(scan.ordinals.size());
            fs1Answers += static_cast<double>(miss.answers.size());
            if (miss.mode == crs::SearchMode::Fs1Only &&
                scan.ordinals != miss.candidates)
                run.mismatch("replayed FS1 survivors differ from serve() "
                             "candidates for goal " + std::to_string(i));
        }

        pif::EncodedArgs qargs;
        {
            Scope s(log, "pif.encode_args", root.id(), i);
            pif::Encoder encoder;
            qargs = encoder.encodeArgs(arena, goal.term, pif::Side::Query);
        }
        std::vector<std::uint32_t> filtered;
        bool filteredSet = false;
        if (miss.mode == crs::SearchMode::SoftwareOnly) {
            Scope s(log, "unify.pif_match", root.id(), i);
            unify::PifMatcher matcher(unify::PifMatchConfig{
                cfg.fs2.level, cfg.fs2.crossBinding});
            for (std::size_t c = 0; c < file.clauseCount(); ++c)
                if (matcher.match(file.decodeArgs(c), qargs).hit)
                    filtered.push_back(static_cast<std::uint32_t>(c));
            filteredSet = true;
        } else if (miss.mode == crs::SearchMode::Fs2Only ||
                   miss.mode == crs::SearchMode::TwoStage) {
            fs2::Fs2SearchResult r;
            {
                Scope s(log, "fs2.search", root.id(), i);
                fs2::Fs2Engine engine(cfg.fs2);
                engine.setObserver(ob, 0, req.trace.maxDetailSpans);
                engine.setQuery(qargs, goal.pred);
                r = miss.mode == crs::SearchMode::Fs2Only
                    ? engine.search(file, &dataDisk,
                                    stored.clauseFileOffset)
                    : engine.searchSelected(file, scan.ordinals, &dataDisk,
                                            stored.clauseFileOffset);
            }
            fs2Examined += static_cast<double>(r.clausesExamined);
            fs2Accepted += static_cast<double>(r.acceptedOrdinals.size());
            fs2Answers += static_cast<double>(miss.answers.size());
            filtered = std::move(r.acceptedOrdinals);
            filteredSet = true;
        }
        if (filteredSet && filtered != miss.candidates)
            run.mismatch("replayed filter candidates differ from serve() "
                         "for goal " + std::to_string(i));

        // Host unification, interleaved per candidate exactly as
        // hostUnify() runs it; the three calls are timed with clock
        // reads between them (a span per candidate would cost more
        // than the calls it measures).
        std::vector<std::uint32_t> unified;
        {
            Scope s(log, "crs.host_unify.replay", root.id(), i);
            Clock::time_point t0 = Clock::now();
            for (std::uint32_t c : miss.candidates) {
                std::string text = file.sourceText(c);
                Clock::time_point t1 = Clock::now();
                term::Clause clause = reader.parseClause(text);
                Clock::time_point t2 = Clock::now();
                if (unify::wouldUnify(arena, goal.term, clause))
                    unified.push_back(c);
                Clock::time_point t3 = Clock::now();
                sourceTextUs += microsBetween(t0, t1);
                parseUs += microsBetween(t1, t2);
                unifyUs += microsBetween(t2, t3);
                t0 = t3;
            }
        }
        if (unified != miss.answers)
            run.mismatch("replayed host unification differs from serve() "
                         "for goal " + std::to_string(i));
        candidates += static_cast<double>(miss.candidates.size());
        answers += static_cast<double>(miss.answers.size());
        modeledIndex += static_cast<double>(miss.breakdown.indexTime);
        modeledFilter += static_cast<double>(miss.breakdown.filterTime);
        modeledUnify += static_cast<double>(miss.breakdown.hostUnifyTime);
        modeledCache += static_cast<double>(miss.breakdown.cacheTime);

        // Degraded and Result-Memory-overflowed responses are never
        // admitted to L3, so only the others have a hit path.
        if (caching && !miss.degraded && !miss.resultOverflow) {
            ++cacheable;
            crs::RetrievalResponse hit;
            {
                Scope s(log, "crs.serve.hit", root.id(), i);
                hit = server.serve(req);
            }
            {
                Scope s(log, "term.canonical_key.hit", root.id(), i);
                std::string key = term::canonicalKey(arena, goal.term);
                keep(key);
            }
            if (hit.answers != miss.answers ||
                hit.breakdown.cacheTime != cfg.cache.goalHitCost)
                run.mismatch("second serve() of goal " + std::to_string(i) +
                             " was not an L3 hit of the first");
        }

        // The server's own spans for the same goal (TraceOptions).
        {
            crs::RetrievalRequest traced = req;
            traced.bypassCache = true;
            traced.trace.enabled = true;
            server.serve(traced);
        }

        {
            Scope s(log, "net.codec", root.id(), i);
            net::WireRequest wire;
            wire.id = i + 1;
            wire.predicate = goal.pred;
            net::encodeGoal(arena, goal.term, wire.goalPif);
            std::vector<std::uint8_t> request;
            net::encodeRequest(wire, request);
            net::WireRequest decoded;
            net::decodeRequest(request, "replay", decoded);
            std::vector<std::uint8_t> response;
            net::encodeResponse(wire.id, miss, response);
            net::WireResponse back = net::decodeResponse(response, "replay");
            keep(back);
            wireBytes += static_cast<double>(
                request.size() + response.size() +
                2 * net::kFrameHeaderBytes);
        }
        missResponses.push_back(std::move(miss));
    }

    // serveBatch() against sequential serve() on the same goals, each
    // on a fresh server with the workload's config.
    double sequentialUs = 0, batchUs = 0;
    {
        crs::ClauseRetrievalServer a(*in.symbols, *in.store, cfg);
        for (std::size_t i = 0; i < in.goals.size(); ++i) {
            crs::RetrievalRequest req = in.goals[i]->request();
            Clock::time_point t0 = Clock::now();
            Scope s(log, "crs.speedup.serve", 0, i);
            keep(a.serve(req));
            sequentialUs += microsBetween(t0, Clock::now());
        }
        crs::ClauseRetrievalServer b(*in.symbols, *in.store, cfg);
        for (std::size_t i = 0; i < in.goals.size(); i += 8) {
            std::vector<crs::RetrievalRequest> batch;
            for (std::size_t k = i; k < std::min(i + 8, in.goals.size());
                 ++k)
                batch.push_back(in.goals[k]->request());
            std::vector<crs::RetrievalResponse> out;
            Clock::time_point t0 = Clock::now();
            {
                Scope s(log, "crs.speedup.serveBatch", 0, i);
                out = b.serveBatch(batch);
            }
            batchUs += microsBetween(t0, Clock::now());
            for (std::size_t k = 0; k < out.size(); ++k)
                if (out[k].answers != missResponses[i + k].answers)
                    run.mismatch("serveBatch answers differ from serve() "
                                 "for goal " + std::to_string(i + k));
        }
    }

    if (log.dropped() != 0)
        throw std::runtime_error("span log full: the layer split would "
                                 "miss replayed calls");
    std::map<std::string, double> serverSpanUs;
    for (const obs::SpanRecord &s : server.tracer().snapshot())
        serverSpanUs[s.name] += static_cast<double>(s.wallNs) / 1000.0;

    auto perGoal = [&](const char *name) {
        return log.totalUs(name) / n;
    };
    Report &r = run.report;
    auto perCacheable = [&](const char *name) {
        return cacheable == 0
            ? 0.0
            : log.totalUs(name) / static_cast<double>(cacheable);
    };
    const double serveUs =
        h * perCacheable("crs.serve.hit") + w * perGoal("crs.serve.miss");
    const double keyUs = h * perCacheable("term.canonical_key.hit") +
        w * perGoal("term.canonical_key");
    struct Layer
    {
        const char *span;
        const char *metric;
    };
    const Layer missLayers[] = {
        {"pif.encode_args", "pif.encode_args_us"},
        {"scw.encode", "scw.encode_us"},
        {"fs1.search", "fs1.search_us"},
        {"fs2.search", "fs2.search_us"},
        {"unify.pif_match", "unify.pif_match_us"},
    };
    double layersUs = keyUs;
    for (const Layer &l : missLayers) {
        double us = w * perGoal(l.span);
        layersUs += us;
        r.set(l.metric, us, "us", "(replayed, per goal)");
    }
    // Each per-candidate interval also holds one clock read.
    const double timerUs = clockReadUs() * candidates;
    const std::pair<const char *, double> hostLayers[] = {
        {"storage.source_text_us", sourceTextUs - timerUs},
        {"term.parse_clause_us", parseUs - timerUs},
        {"unify.would_unify_us", unifyUs - timerUs},
    };
    for (const auto &[metric, total] : hostLayers) {
        double us = w * total / n;
        layersUs += us;
        r.set(metric, us, "us",
              "(replayed host unification, per goal, clock reads removed)");
    }
    r.set("term.canonical_key_us", keyUs, "us", "(replayed, per goal)");
    r.set("crs.serve_us", serveUs, "us",
          "(replayed serve(), per goal, L3 hit share " +
              std::to_string(h) + ")");
    r.set("crs.self_us", serveUs - layersUs, "us",
          "(crs.serve_us minus the replayed layer calls)");
    r.set("term.parse_clause_calls", w * candidates / n, "count");
    r.set("fs1.entries_scanned", w * fs1Entries / n, "count");
    r.set("fs1.survivors", w * fs1Survivors / n, "count");
    r.set("fs1.useful_ratio", ratio(fs1Answers, fs1Survivors), "ratio",
          "(answers / FS1 survivors)");
    r.set("fs2.clauses_examined", w * fs2Examined / n, "count");
    r.set("fs2.useful_ratio", ratio(fs2Answers, fs2Accepted), "ratio",
          "(answers / FS2 accepted)");
    r.set("unify.answer_ratio", ratio(answers, candidates), "ratio",
          "(answers / candidates)");
    r.set("crs.modeled.index_ms", ticksToMs(modeledIndex / n), "ms",
          "(modeled, first serve of each distinct goal)");
    r.set("crs.modeled.filter_ms", ticksToMs(modeledFilter / n), "ms");
    r.set("crs.modeled.host_unify_ms", ticksToMs(modeledUnify / n), "ms");
    r.set("crs.modeled.cache_ms", ticksToMs(modeledCache / n), "ms");
    r.set("fs1.scan_span_us", w * serverSpanUs["fs1.scan"] / n, "us",
          "(server TraceOptions span fs1.scan)");
    r.set("fs2.search_span_us", w * serverSpanUs["fs2.search"] / n, "us",
          "(server TraceOptions span fs2.search)");
    r.set("crs.host_unify_span_us", w * serverSpanUs["crs.host_unify"] / n,
          "us", "(server TraceOptions span crs.host_unify)");
    r.set("crs.batch_speedup", ratio(sequentialUs, batchUs), "ratio",
          "(sequential serve() wall / serveBatch() wall, batches of 8)");
    r.set("net.codec_us", perGoal("net.codec"), "us",
          "(encodeGoal+encodeRequest+decodeRequest+encodeResponse+"
          "decodeResponse)");
    r.set("net.bytes_per_request", wireBytes / n, "B",
          "(request + response frames)");
}

namespace {

using CounterMap = std::map<std::string, std::uint64_t>;

CounterMap
sumCounters(const std::vector<const obs::MetricsRegistry *> &servers)
{
    CounterMap out;
    for (const obs::MetricsRegistry *m : servers)
        for (const obs::MetricsRegistry::CounterView &c : m->counters())
            out[c.name] += c.value;
    return out;
}

} // namespace

CounterBaseline::CounterBaseline(
    const std::vector<const obs::MetricsRegistry *> &servers)
    : servers_(servers), before_(sumCounters(servers))
{
}

std::uint64_t
CounterBaseline::delta(const std::string &name) const
{
    CounterMap now = sumCounters(servers_);
    auto b = before_.find(name);
    return now[name] - (b == before_.end() ? 0 : b->second);
}

double
cacheAndModeMetrics(Run &run, const CounterBaseline &baseline)
{
    Report &r = run.report;
    double hits = static_cast<double>(baseline.delta("crs.cache.hits"));
    double misses = static_cast<double>(baseline.delta("crs.cache.misses"));
    double l2Hits = static_cast<double>(
        baseline.delta("scw.cache.sig_hits") +
        baseline.delta("fs1.cache.survivor_hits"));
    double l2Lookups = l2Hits +
        static_cast<double>(baseline.delta("scw.cache.sig_misses") +
                            baseline.delta("fs1.cache.survivor_misses"));
    double l3 = ratio(hits, hits + misses);
    r.set("crs.cache.l3_hit_ratio", l3, "ratio",
          "(timed phase, " + std::to_string(static_cast<std::uint64_t>(
                                 hits + misses)) + " lookups)");
    r.set("crs.cache.l2_hit_ratio", ratio(l2Hits, l2Lookups), "ratio",
          "(signature + survivor memos, timed phase)");

    const crs::SearchMode modes[] = {
        crs::SearchMode::SoftwareOnly, crs::SearchMode::Fs1Only,
        crs::SearchMode::Fs2Only, crs::SearchMode::TwoStage};
    double total = 0;
    double count[4];
    for (int m = 0; m < 4; ++m) {
        count[m] = static_cast<double>(baseline.delta(
            std::string("crs.mode.") + crs::searchModeSlug(modes[m])));
        total += count[m];
    }
    for (int m = 0; m < 4; ++m)
        r.set(std::string("crs.mode_share.") +
                  crs::searchModeSlug(modes[m]),
              ratio(count[m], total), "ratio", "(crs.mode.* counters)");
    return l3;
}

void
writeMetrics(Run &run, const WriteProbe &probe, std::uint64_t invalidations)
{
    WalProbe wal =
        walProbe(probe.ops, run.scratch.sub("standalone.wal"), run.spans);
    const double commitUs = probe.latencyUs.mean();
    Report &r = run.report;
    r.percentile("crs.live.commit_p50_us", probe.latencyUs, 0.50);
    r.percentile("crs.live.commit_p90_us", probe.latencyUs, 0.90);
    r.set("storage.wal.commit_us", wal.commitUs, "us",
          "(same ops into a standalone storage::Wal)");
    r.set("storage.wal.bytes_per_user_byte", wal.bytesPerUserByte, "ratio");
    r.set("crs.live.publish_us", commitUs - wal.commitUs, "us",
          "(LiveStore commit wall minus storage.wal.commit_us)");
    r.set("crs.cache.invalidations_per_commit",
          ratio(static_cast<double>(invalidations),
                static_cast<double>(probe.ops.size())),
          "count");
}

void
noWireMetrics(Run &run)
{
    const char *note = "(this workload sends nothing over the wire)";
    Report &r = run.report;
    r.set("net.server_rtt_us", 0, "us", note);
    r.set("net.router_hop_us", 0, "us", note);
    r.set("net.router.wait_us", 0, "us", note);
    r.set("net.router.relayed", 0, "ratio", note);
    r.set("net.router.failovers", 0, "ratio", note);
    r.set("net.router.shed", 0, "ratio", note);
}

void
traceOverhead(Run &run, double untracedGoalsPerS, double tracedGoalsPerS)
{
    run.report.set("bench.trace_overhead_frac",
                   ratio(untracedGoalsPerS - tracedGoalsPerS,
                         untracedGoalsPerS),
                   "ratio",
                   "(untraced " + std::to_string(untracedGoalsPerS) +
                       " vs traced " + std::to_string(tracedGoalsPerS) +
                       " goals/s; covers only the outer request span, the "
                       "per-layer spans run in the untimed replay)");
}

void
finishSpans(Run &run)
{
    std::filesystem::create_directories(".bench_out");
    std::string path = ".bench_out/" + run.args.workload + ".spans.tsv";
    run.spans.write(path);
    std::printf("spans %zu written to %s (%zu dropped)\n", run.spans.size(),
                path.c_str(), run.spans.dropped());
}

} // namespace clarebench
