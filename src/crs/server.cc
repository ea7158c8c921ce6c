#include "crs/server.hh"

#include <algorithm>
#include <thread>
#include <utility>

#include "support/crc32.hh"
#include "support/logging.hh"
#include "term/canonical.hh"
#include "unify/pif_matcher.hh"

namespace clare::crs {

using term::TermArena;
using term::TermKind;
using term::TermRef;

namespace {

constexpr double kTicksPerUs = static_cast<double>(kMicrosecond);

/** Bucket bounds shared by the server's latency histograms (us). */
std::vector<double>
latencyBoundsUs()
{
    return obs::Histogram::exponential(1.0, 10.0, 9);
}

const obs::GaugeDef kWorkers{"crs.workers", "configured pipeline width"};
const obs::CounterDef kCacheHits{"crs.cache.hits", "L3 goal-cache hits"};
const obs::CounterDef kCacheMisses{"crs.cache.misses",
                                   "L3 goal-cache misses"};
const obs::CounterDef kCacheEvictions{"crs.cache.evictions",
                                      "L3 entries displaced by capacity"};
const obs::CounterDef kCacheInvalidations{
    "crs.cache.invalidations", "L3 entries dropped by committed writes"};
const obs::CounterDef kHostUnifyClauses{
    "crs.host_unify_clauses", "candidates fully unified on the host"};
const obs::CounterDef kHeadsDecoded{
    "crs.host_unify.decoded",
    "clause heads parsed into a version's decoded-head store"};
const obs::CounterDef kBatches{"crs.batches", "serveBatch() calls"};
const obs::GaugeDef kLastBatchSize{"crs.last_batch_size",
                                   "requests in the most recent batch"};
const obs::CounterDef kRereadPages{
    "disk.retry.reread_pages",
    "data pages re-read after checksum failures"};
const std::array<obs::CounterDef, unify::kTueOpCount> kFs2Ops =
    obs::counterFamily<unify::kTueOpCount>(
        "fs2.op.",
        [](std::size_t o) {
            return unify::tueOpName(static_cast<unify::TueOp>(o));
        },
        "TUE datapath operations (Table 1)");
const obs::CounterDef kQueries{"crs.queries", "retrievals served"};
const obs::CounterDef kCandidates{"crs.candidates",
                                  "candidates across all retrievals"};
const obs::CounterDef kAnswers{"crs.answers",
                               "answers across all retrievals"};
const obs::CounterDef kFalseDrops{
    "crs.false_drops", "candidates rejected by full unification"};
const std::array<obs::CounterDef, kSearchModeCount> kModes =
    obs::counterFamily<kSearchModeCount>(
        "crs.mode.",
        [](std::size_t m) {
            return searchModeSlug(static_cast<SearchMode>(m));
        },
        "retrievals served in this mode");
const obs::CounterDef kDegradedQueries{
    "crs.degraded.queries", "retrievals downgraded to a full scan"};
const obs::CounterDef kCorruptIndexPages{
    "crs.degraded.corrupt_index_pages",
    "index pages that failed their CRC check"};
const obs::HistogramDef kElapsed{"crs.elapsed_us", latencyBoundsUs(),
                                 "retrieval latency, simulated us"};
const obs::HistogramDef kQueueWait{
    "crs.queue_wait_us", latencyBoundsUs(),
    "batch pipeline queue wait, simulated us"};

} // namespace

ClauseRetrievalServer::ClauseRetrievalServer(term::SymbolTable &symbols,
                                             const PredicateStore &store,
                                             CrsConfig config)
    : symbols_(symbols), store_(store), config_(config),
      fs1_(store.generator(), config.fs1)
{
    config_.validate();
#ifdef CLARE_FAULT_INJECT
    // Opt-in builds let the environment drive the oracle so any
    // binary (benches, fuzz sweeps) can replay a fault seed without a
    // code change; release builds carry no hook.
    if (config_.faults == nullptr)
        config_.faults = support::envFaultInjector();
#endif
    if (config_.faults != nullptr &&
        !config_.faults->config().anyFaults())
        config_.faults = nullptr;
    // The pool supplies workers-1 threads; the calling thread is the
    // last worker (it participates in sharded scans and runs the
    // pipeline back half), so total concurrency equals `workers`.
    if (config_.workers > 1) {
        pool_ = std::make_unique<support::ThreadPool>(
            config_.workers - 1);
        std::uint32_t cores =
            std::max(1u, std::thread::hardware_concurrency());
        // CPU-bound scans gain nothing from fanning out wider than the
        // hardware; paced (device-wait) scans overlap their waits at
        // any core count, so they shard the full worker width.
        scanShards_ = config_.fs1.paceScale > 0
            ? config_.workers
            : std::min(config_.workers, cores);
    }
    metrics_.gauge(kWorkers).set(config_.workers);
    // L2/L3 exist only when asked for AND no fault oracle is armed: a
    // response whose bytes were exposed to injected faults (or whose
    // index read might degrade) must never be replayed from cache.
    if (config_.cache.enabled && config_.faults == nullptr) {
        goalCache_ = std::make_unique<GoalCache>(
            config_.cache.goalCapacity);
        survivorCache_ = std::make_unique<fs1::SurvivorCache>(
            config_.cache.survivorCapacity);
    }
}

term::PredicateId
ClauseRetrievalServer::goalPredicate(const TermArena &q_arena,
                                     TermRef goal) const
{
    if (q_arena.kind(goal) == TermKind::Atom)
        return term::PredicateId{q_arena.atomSymbol(goal), 0};
    if (q_arena.kind(goal) == TermKind::Struct)
        return term::PredicateId{q_arena.functor(goal),
                                 q_arena.arity(goal)};
    clare_fatal("retrieval goal must be an atom or structure");
}

namespace {

void
collectVars(const TermArena &arena, TermRef t,
            std::set<term::VarId> &seen, bool &shared)
{
    switch (arena.kind(t)) {
      case TermKind::Var:
        if (!arena.isAnonymous(t) && !seen.insert(arena.varId(t)).second)
            shared = true;
        return;
      case TermKind::Struct:
      case TermKind::List:
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            collectVars(arena, arena.arg(t, i), seen, shared);
        if (arena.kind(t) == TermKind::List &&
            arena.listTail(t) != term::kNoTerm) {
            collectVars(arena, arena.listTail(t), seen, shared);
        }
        return;
      default:
        return;
    }
}

bool
containsVar(const TermArena &arena, TermRef t)
{
    switch (arena.kind(t)) {
      case TermKind::Var:
        return true;
      case TermKind::Struct:
      case TermKind::List:
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            if (containsVar(arena, arena.arg(t, i)))
                return true;
        if (arena.kind(t) == TermKind::List &&
            arena.listTail(t) != term::kNoTerm) {
            return containsVar(arena, arena.listTail(t));
        }
        return false;
      default:
        return false;
    }
}

} // namespace

QueryProfile
ClauseRetrievalServer::profileQuery(const TermArena &q_arena, TermRef goal)
{
    QueryProfile profile;
    if (q_arena.kind(goal) != TermKind::Struct)
        return profile;
    profile.arity = q_arena.arity(goal);

    std::set<term::VarId> seen;
    for (std::uint32_t i = 0; i < profile.arity; ++i) {
        TermRef arg = q_arena.arg(goal, i);
        TermKind k = q_arena.kind(arg);
        if (k == TermKind::Var) {
            ++profile.variableArgs;
        } else if (!containsVar(q_arena, arg)) {
            ++profile.groundArgs;
        } else {
            profile.hasVarBearingStructures = true;
        }
        collectVars(q_arena, arg, seen, profile.hasSharedVars);
    }
    return profile;
}

SearchMode
ClauseRetrievalServer::selectMode(const TermArena &q_arena,
                                  TermRef goal) const
{
    term::PredicateId pred = goalPredicate(q_arena, goal);
    std::shared_ptr<const StoredPredicate> head =
        store_.predicateVersion(pred);
    return selectModeFor(q_arena, goal,
                         head ? head->ruleFraction : 0.0);
}

SearchMode
ClauseRetrievalServer::selectModeFor(const TermArena &q_arena,
                                     TermRef goal,
                                     double rule_fraction)
{
    QueryProfile p = profileQuery(q_arena, goal);

    // Nothing for a filter to discriminate on: every clause of the
    // predicate is a candidate whatever we do.
    if (p.arity == 0 || p.variableArgs == p.arity) {
        if (p.hasSharedVars)
            return SearchMode::Fs2Only;  // e.g. married_couple(S,S)
        return SearchMode::SoftwareOnly;
    }

    // Shared variables and variable-bearing structures are invisible
    // to the codeword index; partial test unification is required to
    // keep the candidate set manageable.
    if (p.hasSharedVars || p.hasVarBearingStructures) {
        return p.groundArgs > 0 ? SearchMode::TwoStage
                                : SearchMode::Fs2Only;
    }

    // Ground query against a rule-intensive predicate: variable head
    // arguments set mask bits, so the index passes most clauses and
    // the second stage pays for itself.
    if (rule_fraction > 0.5)
        return SearchMode::TwoStage;

    return SearchMode::Fs1Only;
}

IndexScan
ClauseRetrievalServer::scanIndex(const StoredPredicate &stored,
                                 const TermArena &q_arena, TermRef goal,
                                 const obs::Observer &obs,
                                 obs::SpanId parent) const
{
    IndexScan scan;
    if (config_.faults != nullptr) {
        const support::FaultInjector &faults = *config_.faults;
        const std::vector<std::uint8_t> &image = stored.index.image();
        const storage::DiskModel &disk = store_.indexDisk();
        const std::uint64_t base = stored.indexFileOffset;

        support::RangeFaults rf = faults.rangeFaults(
            "disk.index", base, image.size(),
            config_.retry.maxAttempts);
        scan.faultTicks = static_cast<Tick>(rf.retries) *
            disk.accessTime() + rf.delayTicks;
        if (rf.permanent) {
            scan.unreadable = true;
            return scan;
        }

        // Verify the delivered copy page by page against the CRCs
        // computed at finalize().  Only faulted pages are actually
        // copied; clean pages are checked in place, so the scan reads
        // the master image exactly when it is provably intact.
        constexpr std::uint32_t page_bytes =
            support::kChecksumPageBytes;
        std::vector<std::uint8_t> scratch;
        for (std::size_t p = 0; p < stored.indexPageCrcs.size(); ++p) {
            std::size_t off = p * static_cast<std::size_t>(page_bytes);
            std::size_t n = std::min<std::size_t>(page_bytes,
                                                  image.size() - off);
            const std::uint8_t *page = image.data() + off;
            std::uint64_t key = faults.chunkKey(base + off);
            if (faults.corruptChunk("disk.index", key)) {
                scratch.assign(page, page + n);
                faults.flipBit("disk.index", key, scratch.data(),
                               scratch.size());
                page = scratch.data();
            }
            if (support::crc32(page, n) != stored.indexPageCrcs[p])
                ++scan.corruptPages;
        }
        if (scan.corruptPages > 0)
            return scan;
    }

    scw::Signature query_sig = store_.generator().encode(q_arena, goal);
    scan.fs1 = fs1_.search(stored.index, stored.sliced.get(),
                           stored.deltaSliced.get(), stored.baseEntries,
                           query_sig, pool_.get(), scanShards_, obs,
                           parent);
    return scan;
}

// ---------------------------------------------------------------------
// Cache plumbing (L2 survivor memo, L3 goal cache).
// ---------------------------------------------------------------------

std::string
ClauseRetrievalServer::goalKey(const TermArena &q_arena, TermRef goal,
                               SearchMode mode,
                               std::uint64_t generation)
{
    // The resolved mode is part of the identity: the same goal served
    // in two modes produces different candidate sets and timings.  So
    // is the MVCC generation of the predicate version that answers it:
    // key and payload derive from the same resolved version, so a
    // commit racing with a fill can never park one generation's
    // answers under another generation's key.
    std::string key = term::canonicalKey(q_arena, goal);
    key.push_back('#');
    key.push_back(static_cast<char>('0' + static_cast<int>(mode)));
    if (generation != 0) {
        key.push_back('@');
        key += std::to_string(generation);
    }
    return key;
}

std::uint64_t
ClauseRetrievalServer::generationOf(const term::PredicateId &pred) const
{
    std::lock_guard<std::mutex> lock(generationMutex_);
    auto it = indexGeneration_.find(pred);
    return it == indexGeneration_.end() ? 0 : it->second;
}

std::string
ClauseRetrievalServer::survivorKey(const term::PredicateId &pred,
                                   const scw::Signature &sig,
                                   std::uint64_t store_generation) const
{
    // Identify the scan, not just the goal: predicate (two predicates
    // can encode identical argument signatures), index generation (a
    // committed write makes every old memo unmatchable), the MVCC
    // generation of the version scanned (key and survivors from the
    // same resolved version — race-free against in-flight commits),
    // and the signature's exact bits.
    std::vector<std::uint8_t> bytes;
    auto put_u64 = [&bytes](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put_u64(static_cast<std::uint64_t>(pred.functor));
    put_u64(pred.arity);
    put_u64(generationOf(pred));
    put_u64(store_generation);
    put_u64(sig.maskBits);
    put_u64(sig.fields.size());
    for (const BitVec &field : sig.fields)
        field.serialize(bytes);
    return std::string(bytes.begin(), bytes.end());
}

IndexScan
ClauseRetrievalServer::rawScan(const StoredPredicate &stored,
                               const scw::Signature &sig,
                               const obs::Observer &obs,
                               obs::SpanId parent) const
{
    IndexScan scan;
    scan.fs1 = fs1_.search(stored.index, stored.sliced.get(),
                           stored.deltaSliced.get(), stored.baseEntries,
                           sig, pool_.get(), scanShards_, obs, parent);
    return scan;
}

void
ClauseRetrievalServer::serveGoalHit(const GoalCache::Entry &cached,
                                    RetrievalResponse &response)
{
    // Payload verbatim — candidates, answers, and every filter
    // statistic are bit-identical to a recomputation — with the stage
    // breakdown already reduced to the modeled cache lookup when the
    // entry was admitted.  The blob handle lets the wire tier send
    // the cached encoding verbatim (id patched per request).
    response = cached.response;
    response.replayBlob = cached.blob;
    ++metrics_.counter(kCacheHits);
}

void
ClauseRetrievalServer::maybeCacheGoal(const std::string &goal_key,
                                      const term::PredicateId &pred,
                                      const RetrievalResponse &response)
{
    // Degraded responses never exist here (caching requires no fault
    // oracle), but guard anyway; overflowed responses requeued
    // satisfiers through a host path whose cost depends on Result
    // Memory pressure at serve time, so they are not replayed either.
    if (response.degraded || response.resultOverflow)
        return;
    // Admit the *hit-shaped* response: payload verbatim, breakdown
    // reduced to the modeled goal-hit cost, no trace handle.  Shaping
    // at admission (the cold path) keeps every hit to one copy and
    // makes the entry's baked wire blob byte-identical to what a hit
    // returns.
    RetrievalResponse hit = response;
    hit.breakdown = StageBreakdown{};
    hit.breakdown.cacheTime = config_.cache.goalHitCost;
    hit.elapsed = hit.breakdown.serviceTime();
    hit.traceSpan = 0;
    if (goalCache_->put(goal_key, pred, std::move(hit)))
        ++metrics_.counter(kCacheEvictions);
}

void
ClauseRetrievalServer::invalidatePredicate(const term::PredicateId &pred)
{
    if (goalCache_ == nullptr)
        return;
    std::size_t removed = goalCache_->invalidatePredicate(pred);
    {
        // Bump the generation so every survivor memo of this
        // predicate is keyed under a stale generation and can never
        // match again (it ages out of the LRU naturally).
        std::lock_guard<std::mutex> lock(generationMutex_);
        ++indexGeneration_[pred];
    }
    metrics_.counter(kCacheInvalidations) += removed;
}

void
ClauseRetrievalServer::invalidateCaches()
{
    if (goalCache_ != nullptr) {
        goalCache_->clear();
        survivorCache_->clear();
        std::lock_guard<std::mutex> lock(generationMutex_);
        indexGeneration_.clear();
    }
    // A reload moves file offsets, so resident tracks are garbage.
    store_.dropDiskCaches();
}

std::size_t
ClauseRetrievalServer::goalCacheSize() const
{
    return goalCache_ == nullptr ? 0 : goalCache_->size();
}

void
ClauseRetrievalServer::hostUnify(const StoredPredicate &stored,
                                 const TermArena &q_arena, TermRef goal,
                                 RetrievalResponse &response)
{
    HeadUnifier unifier(stored, symbols_, q_arena, goal);
    // Answers are a subset of the candidates: one allocation, sized
    // for the worst case.
    response.answers.reserve(response.candidates.size());
    for (std::uint32_t ordinal : response.candidates)
        if (unifier.unifies(ordinal))
            response.answers.push_back(ordinal);
    response.breakdown.hostUnifyTime = config_.host.perCandidateUnify *
        response.candidates.size();

    metrics_.counter(kHostUnifyClauses) += response.candidates.size();
    metrics_.counter(kHeadsDecoded) += unifier.decoded();
}

// ---------------------------------------------------------------------
// The unified front door.
// ---------------------------------------------------------------------

RetrievalResponse
ClauseRetrievalServer::serve(const RetrievalRequest &request)
{
    clare_assert(request.arena != nullptr, "retrieval request has no "
                 "arena");
    RetrievalResponse response;

    const term::PredicateId pred =
        goalPredicate(*request.arena, request.goal);
    // Pin the MVCC version first: everything below — mode selection,
    // cache keys, the scan, unification — derives from this one
    // version, so a commit landing mid-request cannot tear the view.
    std::shared_ptr<const StoredPredicate> pinned = pinVersion(request, pred);
    response.mode = request.mode
        ? *request.mode
        : selectModeFor(*request.arena, request.goal,
                        pinned->ruleFraction);
    obs::Observer ob = observer(request.trace);
    obs::ScopedSpan root(ob.tracer, "crs.retrieve");
    root.attr("mode", std::string(searchModeSlug(response.mode)));
    retrieve(*pinned, pred, request, ob, root.id(), response);
    accountQuery(response, root);
    return response;
}

std::vector<RetrievalResponse>
ClauseRetrievalServer::serveBatch(const std::vector<RetrievalRequest> &
                                      batch)
{
    const std::size_t n = batch.size();
    std::vector<RetrievalResponse> out(n);
    if (n == 0)
        return out;

    ++metrics_.counter(kBatches);
    metrics_.gauge(kLastBatchSize).set(static_cast<double>(n));

    // Resolve predicates, MVCC pins and modes up front (cheap,
    // read-only); the pins keep every version alive for the batch.
    std::vector<std::shared_ptr<const StoredPredicate>> pins(n);
    std::vector<term::PredicateId> preds(n);
    bool any_tracing = false;
    for (std::size_t i = 0; i < n; ++i) {
        clare_assert(batch[i].arena != nullptr,
                     "serveBatch request %zu has no arena", i);
        preds[i] = goalPredicate(*batch[i].arena, batch[i].goal);
        pins[i] = pinVersion(batch[i], preds[i]);
        out[i].mode = batch[i].mode
            ? *batch[i].mode
            : selectModeFor(*batch[i].arena, batch[i].goal,
                            pins[i]->ruleFraction);
        any_tracing = any_tracing || batch[i].trace.enabled;
    }

    // One batch-level span parents every per-query root, so the
    // exported trace stays a single tree.
    obs::ScopedSpan batch_span(any_tracing ? &tracer_ : nullptr,
                               "crs.batch");
    batch_span.attr("requests", static_cast<std::uint64_t>(n));

    // Modeled pipeline timeline (workers > 1): the FS1 hardware scans
    // the batch serially while the serial host back half drains
    // finished scans; a scan that finishes before the back half is
    // free waits in queue.  This is the per-query queueWait —
    // simulated ticks, derived from each response's own stages, so it
    // never depends on host scheduling.  elapsed stays the query's own
    // service time, identical to serve().
    const bool model_queue = config_.workers > 1;
    Tick fs1_free = 0;
    Tick back_free = 0;
    for (std::size_t i = 0; i < n; ++i) {
        obs::Observer ob = observer(batch[i].trace);
        obs::ScopedSpan root(ob.tracer, "crs.retrieve", batch_span.id());
        root.attr("mode", std::string(searchModeSlug(out[i].mode)));
        root.attr("batch_index", static_cast<std::uint64_t>(i));
        retrieve(*pins[i], preds[i], batch[i], ob, root.id(), out[i]);
        if (model_queue) {
            StageBreakdown &stages = out[i].breakdown;
            Tick scan_done = fs1_free + stages.indexTime;
            fs1_free = scan_done;
            Tick back_start = std::max(scan_done, back_free);
            stages.queueWait = back_start - scan_done;
            // A nonzero queue wait diverges from the baked blob
            // (cached entries always carry queueWait == 0), so the
            // fast-path handle must not survive — a wire sender would
            // otherwise ship stale ticks.
            if (stages.queueWait != 0)
                out[i].replayBlob.reset();
            back_free = back_start + stages.cacheTime +
                stages.filterTime + stages.hostUnifyTime;
        }
        accountQuery(out[i], root);
    }
    return out;
}

std::shared_ptr<const StoredPredicate>
ClauseRetrievalServer::pinVersion(const RetrievalRequest &request,
                                  const term::PredicateId &pred) const
{
    std::shared_ptr<const StoredPredicate> pinned =
        store_.predicateVersion(pred, request.snapshot);
    if (pinned == nullptr)
        clare_fatal("predicate %s/%u is not stored%s",
                    symbols_.name(pred.functor).c_str(), pred.arity,
                    request.snapshot ? " at the requested snapshot" : "");
    return pinned;
}

void
ClauseRetrievalServer::retrieve(const StoredPredicate &stored,
                                const term::PredicateId &pred,
                                const RetrievalRequest &request,
                                const obs::Observer &ob, obs::SpanId root,
                                RetrievalResponse &response)
{
    const bool caching = cachingActive(request);
    std::string goal_key;
    if (caching) {
        goal_key = goalKey(*request.arena, request.goal, response.mode,
                           stored.generation);
        if (std::shared_ptr<const GoalCache::Entry> cached =
                goalCache_->find(goal_key)) {
            serveGoalHit(*cached, response);
            return;
        }
        ++metrics_.counter(kCacheMisses);
    }

    IndexScan scan;
    if (usesFs1(response.mode) && caching) {
        scw::Signature sig =
            store_.generator().encode(*request.arena, request.goal);
        std::string skey = survivorKey(pred, sig, stored.generation);
        if (std::shared_ptr<const fs1::Fs1Result> memo =
                survivorCache_->find(skey, ob)) {
            // The mutable working copy is made here, outside the cache
            // mutex — the memo itself is shared and never copied under
            // it.
            scan.fs1 = *memo;
            scan.fromCache = true;
        } else {
            scan = rawScan(stored, sig, ob, root);
            survivorCache_->put(skey, scan.fs1);
        }
    } else if (usesFs1(response.mode)) {
        scan = scanIndex(stored, *request.arena, request.goal, ob, root);
    }
    finishRetrieval(stored, request, std::move(scan), ob, root, response);
    if (caching)
        maybeCacheGoal(goal_key, pred, response);
}

// ---------------------------------------------------------------------
// The single back half / accounting path.
// ---------------------------------------------------------------------

void
ClauseRetrievalServer::finishRetrieval(const StoredPredicate &stored,
                                       const RetrievalRequest &request,
                                       IndexScan scan,
                                       const obs::Observer &obs,
                                       obs::SpanId root,
                                       RetrievalResponse &response)
{
    const TermArena &q_arena = *request.arena;
    TermRef goal = request.goal;
    const storage::ClauseFile &file = stored.clauses;
    const storage::DiskModel &data_disk = store_.dataDisk();
    fs1::Fs1Result &fs1 = scan.fs1;
    StageBreakdown &stages = response.breakdown;

    if (usesFs1(response.mode) && !scan.healthy()) {
        // Graceful degradation: the index cannot be trusted (a page
        // failed its CRC) or read at all, so this query runs as a
        // full FS2 scan of the clause file instead.  Host unification
        // removes the extra candidates, so the answer set is exactly
        // what the healthy index would have produced.  The index read
        // that discovered the damage is still charged.
        response.degraded = true;
        response.corruptIndexPages = scan.corruptPages;
        response.mode = SearchMode::Fs2Only;
        const storage::DiskModel &disk = store_.indexDisk();
        stages.indexTime = disk.accessTime() +
            disk.transferTime(stored.index.image().size()) +
            scan.faultTicks;
        obs::ScopedSpan span(obs.tracer, "disk.index_stream", root);
        span.attr("bytes",
                  static_cast<std::uint64_t>(
                      stored.index.image().size()));
        span.attr("corrupt_pages", static_cast<std::uint64_t>(
                      scan.corruptPages));
        span.attr("unreadable",
                  static_cast<std::uint64_t>(scan.unreadable ? 1 : 0));
        span.setSimTicks(stages.indexTime);
    }
    SearchMode mode = response.mode;

    if (usesFs1(mode) && scan.fromCache) {
        // L2 survivor replay: the memoized Fs1Result carries the
        // scan statistics verbatim, so the payload is bit-identical
        // to a recomputation, but no disk read or FS1 pass happens —
        // the breakdown charges only the modeled memo lookup.
        response.indexEntriesScanned = fs1.entriesScanned;
        response.fs1Hits = fs1.ordinals.size();
        stages.cacheTime += config_.cache.survivorHitCost;
        obs::ScopedSpan span(obs.tracer, "crs.survivor_replay", root);
        span.attr("hits", response.fs1Hits);
        span.setSimTicks(config_.cache.survivorHitCost);
    } else if (usesFs1(mode)) {
        response.indexEntriesScanned = fs1.entriesScanned;
        response.fs1Hits = fs1.ordinals.size();
        // The index file streams from disk while FS1 scans on the
        // fly.  modelRead() consults the L1 track cache when the
        // store has one (a resident index skips the seek and streams
        // at memory speed — FS1's own busy time then dominates); with
        // the cache disabled it is exactly accessTime + transferTime.
        const storage::DiskModel &disk = store_.indexDisk();
        storage::ReadTiming rt = disk.modelRead(
            stored.indexFileOffset, fs1.bytesScanned, obs);
        stages.indexTime = rt.access +
            std::max(rt.transfer, fs1.busyTime) + scan.faultTicks;
        obs::ScopedSpan span(obs.tracer, "disk.index_stream", root);
        span.attr("bytes", fs1.bytesScanned);
        if (rt.cacheHit)
            span.attr("cache_hit", static_cast<std::uint64_t>(1));
        span.setSimTicks(stages.indexTime);
    }

    pif::Encoder encoder;
    pif::EncodedArgs q_args = encoder.encodeArgs(q_arena, goal,
                                                 pif::Side::Query);
    term::PredicateId pred = goalPredicate(q_arena, goal);

    switch (mode) {
      case SearchMode::SoftwareOnly: {
        // The CRS streams the whole clause file and performs partial
        // matching in software before full unification.
        obs::ScopedSpan span(obs.tracer, "crs.software_scan", root);
        unify::PifMatcher matcher(unify::PifMatchConfig{
            config_.fs2.level, config_.fs2.crossBinding});
        Tick scan_cost = 0;
        pif::EncodedArgs db_args;
        for (std::size_t i = 0; i < file.clauseCount(); ++i) {
            file.decodeArgsInto(i, db_args);
            unify::PifMatchResult m = matcher.match(db_args, q_args);
            scan_cost += config_.host.perClause +
                config_.host.perOp * m.datapathOps();
            ++response.clausesExamined;
            for (std::size_t o = 0; o < unify::kTueOpCount; ++o)
                response.filterOps[o] += m.opCounts[o];
            if (m.hit)
                response.candidates.push_back(
                    static_cast<std::uint32_t>(i));
        }
        Tick transfer = data_disk.transferTime(file.image().size());
        stages.filterTime = data_disk.accessTime() +
            std::max(transfer, scan_cost);
        span.attr("clauses", response.clausesExamined);
        span.setSimTicks(stages.filterTime);
        break;
      }

      case SearchMode::Fs1Only: {
        response.candidates = std::move(fs1.ordinals);
        // Fetch the candidate clauses: one sequential sweep of the
        // spanned region, or a seek per candidate — whichever the
        // disk finishes sooner.
        if (!response.candidates.empty()) {
            const auto &first =
                file.record(response.candidates.front());
            const auto &last = file.record(response.candidates.back());
            std::uint64_t span_bytes =
                last.offset + last.length - first.offset;
            std::uint64_t selected = 0;
            for (std::uint32_t c : response.candidates)
                selected += file.record(c).length;
            // The sweep is cache-aware: the candidate span's tracks
            // may be resident in the L1 track cache (and are admitted
            // on a miss — every candidate byte lives in them).  The
            // seek-per-candidate alternative scatters single-sector
            // reads, which a track buffer does not accelerate.
            storage::ReadTiming rt = data_disk.modelRead(
                stored.clauseFileOffset + first.offset, span_bytes,
                obs);
            Tick sweep = rt.total();
            Tick seeks = data_disk.accessTime() *
                response.candidates.size() +
                data_disk.transferTime(selected);
            stages.filterTime = std::min(sweep, seeks);
            obs::ScopedSpan span(obs.tracer, "disk.candidate_fetch",
                                 root);
            span.attr("candidates",
                      static_cast<std::uint64_t>(
                          response.candidates.size()));
            span.attr("strategy", seeks < sweep
                      ? std::string("seek_per_candidate")
                      : std::string("sweep"));
            span.setSimTicks(stages.filterTime);
        }
        break;
      }

      case SearchMode::Fs2Only: {
        fs2::Fs2Engine engine(config_.fs2);
        engine.setObserver(obs, root, request.trace.maxDetailSpans);
        engine.setQuery(q_args, pred);
        fs2::Fs2SearchResult r = engine.search(file, &data_disk,
                                               stored.clauseFileOffset);
        response.candidates = std::move(r.acceptedOrdinals);
        response.clausesExamined = r.clausesExamined;
        response.filterOps = r.ops;
        response.resultOverflow = r.resultOverflow;
        response.satisfiersRequeued = r.satisfiersDropped;
        stages.filterTime = r.elapsed;
        break;
      }

      case SearchMode::TwoStage: {
        fs2::Fs2Engine engine(config_.fs2);
        engine.setObserver(obs, root, request.trace.maxDetailSpans);
        engine.setQuery(q_args, pred);
        fs2::Fs2SearchResult r = engine.searchSelected(
            file, fs1.ordinals, &data_disk, stored.clauseFileOffset);
        response.candidates = std::move(r.acceptedOrdinals);
        response.clausesExamined = r.clausesExamined;
        response.filterOps = r.ops;
        response.resultOverflow = r.resultOverflow;
        response.satisfiersRequeued = r.satisfiersDropped;
        stages.filterTime = r.elapsed;
        break;
      }
    }

    // resultOverflow / satisfiersRequeued: satisfiers past the Result
    // Memory's capacity were never captured (the real 6-bit counter
    // would wrap and silently overwrite slot 0); they are requeued
    // through the host's ordinary candidate fetch, which hostUnify()
    // already bills per candidate.  The response fields alone carry
    // the signal — overflow is data-dependent and occurs in fault-free
    // runs, so a new span or counter here would perturb the trace and
    // metrics dumps of clean runs.

    if (config_.faults != nullptr) {
        // Model the fault exposure of this query's data-disk reads.
        // A transient error costs a re-seek per retry; a corrupt page
        // is caught by its checksum and recovered with a re-seek plus
        // a page re-transfer; a permanently unreadable chunk is a
        // typed I/O failure.
        std::uint64_t range_start = 0;
        std::uint64_t range_len = 0;
        if (mode == SearchMode::SoftwareOnly ||
            mode == SearchMode::Fs2Only) {
            range_len = file.image().size();
        } else {
            const std::vector<std::uint32_t> &fetched =
                mode == SearchMode::TwoStage ? fs1.ordinals
                                             : response.candidates;
            if (!fetched.empty()) {
                const auto &first = file.record(fetched.front());
                const auto &last = file.record(fetched.back());
                range_start = first.offset;
                range_len = last.offset + last.length - first.offset;
            }
        }
        if (range_len > 0) {
            support::RangeFaults rf = config_.faults->rangeFaults(
                "disk.data", stored.clauseFileOffset + range_start,
                range_len, config_.retry.maxAttempts);
            if (rf.permanent)
                throw IoError(data_disk.geometry().name,
                              "clause data unreadable after " +
                              std::to_string(
                                  config_.retry.maxAttempts) +
                              " attempts");
            Tick penalty = static_cast<Tick>(rf.retries) *
                data_disk.accessTime() + rf.delayTicks;
            penalty += static_cast<Tick>(rf.corruptChunks) *
                (data_disk.accessTime() +
                 data_disk.transferTime(support::kChecksumPageBytes));
            stages.filterTime += penalty;
            if (obs.metrics != nullptr) {
                if (rf.retries > 0)
                    obs.metrics->counter(storage::kRetryAttempts) +=
                        rf.retries;
                if (rf.corruptChunks > 0)
                    obs.metrics->counter(kRereadPages) +=
                        rf.corruptChunks;
            }
            if (penalty > 0) {
                obs::ScopedSpan span(obs.tracer, "disk.fault_recovery",
                                     root);
                span.attr("retries", static_cast<std::uint64_t>(
                              rf.retries));
                span.attr("reread_pages", static_cast<std::uint64_t>(
                              rf.corruptChunks));
                span.setSimTicks(penalty);
            }
        }
    }

    // Table 1's operation mix, as cumulative per-op counters.
    if (mode == SearchMode::Fs2Only || mode == SearchMode::TwoStage) {
        for (std::size_t o = 0; o < unify::kTueOpCount; ++o)
            if (response.filterOps[o] != 0)
                metrics_.counter(kFs2Ops[o]) += response.filterOps[o];
    }

    {
        obs::ScopedSpan span(obs.tracer, "crs.host_unify", root);
        hostUnify(stored, q_arena, goal, response);
        span.attr("candidates", static_cast<std::uint64_t>(
                      response.candidates.size()));
        span.attr("answers", static_cast<std::uint64_t>(
                      response.answers.size()));
        span.setSimTicks(stages.hostUnifyTime);
    }

    // The one place total latency is derived from the stages.
    response.elapsed = stages.serviceTime();
}

void
ClauseRetrievalServer::accountQuery(RetrievalResponse &response,
                                    obs::ScopedSpan &root)
{
    ++metrics_.counter(kQueries);
    metrics_.counter(kCandidates) += response.candidates.size();
    metrics_.counter(kAnswers) += response.answers.size();
    metrics_.counter(kFalseDrops) += response.falseDrops();
    ++metrics_.counter(kModes[static_cast<std::size_t>(response.mode)]);
    // Degradation counters exist only once a query degrades, so a
    // clean run's metrics dump is bit-identical to a fault-free build.
    if (response.degraded) {
        ++metrics_.counter(kDegradedQueries);
        metrics_.counter(kCorruptIndexPages) += response.corruptIndexPages;
    }
    metrics_.histogram(kElapsed).record(
        static_cast<double>(response.elapsed) / kTicksPerUs);
    if (response.breakdown.queueWait > 0)
        metrics_.histogram(kQueueWait).record(
            static_cast<double>(response.breakdown.queueWait) /
            kTicksPerUs);

    if (root.active()) {
        response.traceSpan = root.id();
        root.attr("candidates", static_cast<std::uint64_t>(
                      response.candidates.size()));
        root.attr("answers", static_cast<std::uint64_t>(
                      response.answers.size()));
        root.attr("queue_wait_ticks", response.breakdown.queueWait);
        if (response.degraded)
            root.attr("degraded", static_cast<std::uint64_t>(1));
        root.setSimTicks(response.breakdown.total());
    }
}

} // namespace clare::crs
