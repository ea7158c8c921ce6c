/**
 * @file
 * batch_cold: cold, mixed-mode retrieval of a large KB through
 * serveBatch().
 *
 * One caller thread submits batches of 8 consecutive goals of a fixed
 * request cycle to a server with workers 4 and caches on (clare_server
 * --workers 4 --cache).  The cycle holds kCycle requests over far more
 * distinct goals than the L3 capacity (256), and no goal recurs within
 * kCycle / 8 requests, so the L3 cache never answers: every request
 * runs the pipeline.  Most goals are keyed (bound arguments), a stated
 * minority carries a shared variable or binds no argument at all, so
 * all four search modes occur.  Nothing crosses the wire and nothing
 * is written while the timed phase runs.
 */

#include <map>
#include <set>

#include "kb.hh"
#include "layers.hh"
#include "workloads.hh"

namespace clarebench {

using namespace clare;

namespace {

/** 16 predicates x 4000 clauses, arity 2-4, every 4th rule-intensive. */
constexpr KbShape kShape{16, 4000, 4};
/** Requests in the cycle the caller walks through. */
constexpr std::size_t kCycle = 4096;
constexpr std::size_t kBatch = 8;
/**
 * Request classes by cycle position, so every cycle has the same mix:
 * 1 in 50 binds no argument, 2 in 25 repeat a variable, the rest (90%)
 * are keyed.  Goal i targets predicate i mod 16.
 */
bool
allVarPosition(std::size_t i)
{
    return i % 50 == 49;
}

bool
sharedVarPosition(std::size_t i)
{
    return i % 25 == 6 || i % 25 == 18;
}
/** Leading batches whose responses form the digest. */
constexpr std::size_t kDigestBatches = 16;
/** Every n-th batch is kept for the exactness gate. */
constexpr std::size_t kGateEvery = 16;
/** Distinct goals the traced run replays layer by layer. */
constexpr std::size_t kReplayGoals = 256;
/** Goals of the snapshot probes after the write probe. */
constexpr std::size_t kSnapshotGoals = 32;

struct World
{
    GeneratedKb kb;
    std::vector<Goal> goals;         ///< distinct goals
    std::vector<std::size_t> cycle;  ///< request cycle, into goals
    LoadedStore loaded;
    crs::CrsConfig config;
    std::unique_ptr<crs::ClauseRetrievalServer> server;
};

/**
 * The request cycle.  All-variable goals (one plain and one with every
 * argument the same variable, per predicate) are taken round-robin, so
 * each recurs only every 32 x 50 requests; every other request is a
 * goal not used before that binds at least one argument, so the share
 * of all-variable goals is the same for every seed.
 */
void
buildCycle(World &w, std::uint64_t seed)
{
    auto spec = [seed](double bound, double shared, double perturb,
                       std::uint64_t salt) {
        workload::QuerySpec s;
        s.boundArgProb = bound;
        s.sharedVarProb = shared;
        s.perturbProb = perturb;
        s.seed = seed * 0x9e3779b97f4a7c15ull + salt;
        return s;
    };
    term::SymbolTable &sym = *w.kb.symbols;
    workload::QueryGenerator keyed(sym, spec(0.6, 0.0, 0.1, 1));
    workload::QueryGenerator shared(sym, spec(0.4, 0.8, 0.0, 2));
    workload::QueryGenerator allVar(sym, spec(0.0, 0.0, 0.0, 3));
    workload::QueryGenerator allSame(sym, spec(0.0, 1.0, 0.0, 4));
    const std::vector<term::PredicateId> &preds =
        w.kb.program.predicates();

    std::set<std::string> seen;
    std::vector<std::size_t> templates;
    for (const term::PredicateId &p : preds) {
        for (workload::QueryGenerator *g : {&allVar, &allSame}) {
            Goal goal = makeGoal(*g, w.kb, p);
            if (seen.insert(goal.key).second) {
                templates.push_back(w.goals.size());
                w.goals.push_back(std::move(goal));
            }
        }
    }
    std::size_t nextTemplate = 0;
    for (std::size_t i = 0; i < kCycle; ++i) {
        if (allVarPosition(i)) {
            w.cycle.push_back(templates[nextTemplate++ % templates.size()]);
            continue;
        }
        workload::QueryGenerator &gen =
            sharedVarPosition(i) ? shared : keyed;
        for (;;) {
            Goal goal = makeGoal(gen, w.kb, preds[i % preds.size()]);
            if (bindsAnArgument(goal) && seen.insert(goal.key).second) {
                w.cycle.push_back(w.goals.size());
                w.goals.push_back(std::move(goal));
                break;
            }
        }
    }
}

std::unique_ptr<World>
setup(std::uint64_t seed, const std::string &dir)
{
    auto w = std::make_unique<World>();
    w->kb = generateKb(kShape, seed);
    buildCycle(*w, seed);
    saveKb(w->kb, dir);
    w->kb.program = term::Program{};
    w->loaded = loadKb(dir);
    w->config.workers = 4;
    w->config.cache.enabled = true;
    w->server = std::make_unique<crs::ClauseRetrievalServer>(
        *w->loaded.symbols, *w->loaded.store, w->config);
    return w;
}

/**
 * Drive serveBatch() for @p seconds from @p cursor in the cycle.  With
 * @p digest, the phase runs on past its end until the digest prefix is
 * complete.
 */
PhaseStats
timedPhase(Run &run, World &w, double seconds, Digest *digest,
           std::vector<Sample> &gate, std::size_t &cursor)
{
    PhaseStats stats;
    std::vector<crs::RetrievalRequest> batch(kBatch);
    Clock::time_point start = Clock::now();
    Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    auto more = [&](std::size_t b) {
        return Clock::now() < deadline ||
            (digest != nullptr && b < kDigestBatches);
    };
    for (std::size_t b = 0; more(b); ++b) {
        std::size_t first = cursor;
        for (std::size_t k = 0; k < kBatch; ++k) {
            batch[k] = w.goals[w.cycle[cursor]].request();
            cursor = (cursor + 1) % kCycle;
        }
        run.attempted += kBatch;
        std::vector<crs::RetrievalResponse> out;
        Clock::time_point t0 = Clock::now();
        try {
            Scope span(run.spans, "crs.serveBatch", 0, b);
            out = w.server->serveBatch(batch);
        } catch (const Error &e) {
            run.failed += kBatch;
            stats.latencyUs.addFailed();
            std::fprintf(stderr, "clarebench: serveBatch failed: %s\n",
                         e.what());
            continue;
        }
        stats.latencyUs.add(microsBetween(t0, Clock::now()));
        stats.goals += kBatch;
        if (digest != nullptr && b < kDigestBatches)
            for (const crs::RetrievalResponse &r : out)
                digest->add(r);
        if (b % kGateEvery == 0)
            for (std::size_t k = 0; k < kBatch; ++k)
                gate.push_back(Sample{w.cycle[(first + k) % kCycle],
                                      std::move(out[k])});
    }
    stats.seconds = secondsBetween(start, Clock::now());
    return stats;
}

} // namespace

void
runBatchCold(Run &run)
{
    const std::uint64_t seed = run.args.seed;
    // The whole run on one CPU, as for wire_hot: on a shared 4-vCPU
    // virtual host, runs spread over all four vCPUs differed by up to a
    // third, runs on one pinned vCPU by a few percent.  The pool's
    // workers still run, time-sliced on that CPU, and since
    // hardware_concurrency() still counts every core, serve() still
    // shards each FS1 scan four ways: their switching overhead counts,
    // their parallelism cannot.  A change that makes serveBatch
    // parallel needs a workload with more CPUs to show its gain.
    std::printf("pinned to cpu %d\n", pinToCpu());
    std::unique_ptr<World> w = repeatedSetup<World>(
        run, [seed](const std::string &dir) { return setup(seed, dir); });
    const std::vector<const obs::MetricsRegistry *> servers = {
        &w->server->metrics()};
    CounterBaseline baseline(servers);

    Digest digest;
    std::vector<Sample> gate;
    std::size_t cursor = 0;
    if (!run.args.trace) {
        reportEndToEnd(run, timedPhase(run, *w, run.args.seconds, &digest,
                                       gate, cursor));
    } else {
        alternateSlices(run, [&](double seconds, int slice) {
            return timedPhase(run, *w, seconds,
                              slice == 0 ? &digest : nullptr, gate, cursor);
        });
    }
    checkGate(run, *w->loaded.symbols, *w->loaded.store, w->goals, gate,
              w->config.cache);
    if (run.args.trace) {
        double l3 = cacheAndModeMetrics(run, baseline);
        ReplayInput in;
        std::set<std::size_t> picked;
        for (std::size_t i = 0;
             i < kCycle && in.goals.size() < kReplayGoals; ++i)
            if (picked.insert(w->cycle[i]).second)
                in.goals.push_back(&w->goals[w->cycle[i]]);
        in.symbols = w->loaded.symbols.get();
        in.store = w->loaded.store.get();
        in.config = w->config;
        in.l3HitRatio = l3;
        replayLayers(run, in);
        noWireMetrics(run);
    }

    std::vector<const Goal *> probeGoals;
    for (std::size_t i = 0; i < kSnapshotGoals; ++i)
        probeGoals.push_back(&w->goals[w->cycle[i]]);
    CounterBaseline beforeProbe(servers);
    WriteProbe probe = writeProbe(run, *w->loaded.store, *w->loaded.symbols,
                                  *w->server, probeGoals, digest);
    std::printf("digest %s over %zu goals\n", digest.hex().c_str(),
                digest.count());
    if (run.args.trace)
        writeMetrics(run, probe, beforeProbe.delta("crs.cache.invalidations"));
}

} // namespace clarebench
