/**
 * @file
 * The Clause Retrieval Server (CRS): the software module linking CLARE
 * with the PDBM Prolog system (section 2.2).
 *
 * For each retrieval the CRS runs one of the four search modes —
 * software-only, FS1-only, FS2-only, or the two-stage FS1+FS2 filter —
 * and hands the resulting candidate set to host-side full unification.
 * Mode selection follows the paper's criteria: the nature of the query
 * (e.g. whether it contains cross-bound/shared variables or variable-
 * bearing structures that the codeword index cannot see) and of the
 * knowledge base (rule-intensive predicates defeat the index because
 * variable arguments are masked).
 *
 * Host software costs are modeled with a simple per-clause/per-
 * operation cost model representative of the M68020-class host;
 * retrieval *correctness* (which clauses truly unify) is computed with
 * the real unifier so that false-drop accounting is exact.
 *
 * The front door is the unified request/response API (crs/api.hh):
 * serve() retrieves one RetrievalRequest, serveBatch() serves a batch
 * in order, and both share one accounting path that fills the response's
 * StageBreakdown.  The same pair is the *only* entry: networked
 * callers reach it through net::NetServer/NetClient, whose responses
 * are bit-identical to a local call.
 *
 * Both run one private per-request body (L3 consult, FS1 stage,
 * back half, L3 admission); serveBatch() runs it for each request in
 * batch order on the calling thread.  With `CrsConfig::workers > 1`
 * the FS1 index scan is sharded across a worker pool, and serveBatch()
 * models the paper's FS1/FS2 hardware overlap as each item's
 * breakdown.queueWait.  Shards merge back in clause order, so
 * candidate and answer sets are bit-identical at any worker count.
 *
 * Every server owns an obs::Tracer (per-request opt-in spans) and an
 * obs::MetricsRegistry (always-on counters/histograms) wired through
 * all pipeline layers; export them with obs::exportJson().
 */

#ifndef CLARE_CRS_SERVER_HH
#define CLARE_CRS_SERVER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "crs/api.hh"
#include "crs/goal_cache.hh"
#include "crs/search_mode.hh"
#include "crs/store.hh"
#include "crs/transaction.hh"
#include "fs1/fs1_engine.hh"
#include "fs1/survivor_cache.hh"
#include "fs2/fs2_engine.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/sim_time.hh"
#include "support/thread_pool.hh"
#include "term/term_reader.hh"
#include "unify/tue_op.hh"

namespace clare::crs {

/**
 * Host (M68020-class) software cost model.  A mid-80s workstation
 * Prolog ran on the order of 10-20 KLIPS, i.e. 50-100 us per
 * inference; a software partial-match visit is cheaper than a full
 * resolution step but of the same order.
 */
struct HostCostModel
{
    /** Fixed software cost to visit one clause record. */
    Tick perClause = 40 * kMicrosecond;
    /** Cost per software term-comparison operation. */
    Tick perOp = 5 * kMicrosecond;
    /** Full unification cost per candidate clause. */
    Tick perCandidateUnify = 100 * kMicrosecond;
};

/**
 * Configuration of the server-side cache levels (L2 FS1 survivor
 * memo, L3 goal-result cache).  The L1 disk track cache is
 * configured on the PredicateStore, which owns the modeled disks —
 * see PredicateStore::configureDiskCaches().
 *
 * Everything defaults to *disabled*, so a default server is
 * bit-identical to the pre-cache pipeline.  When a fault injector is
 * armed the server never caches regardless of this config: a
 * fault-touched response must not be replayed.
 */
struct CacheConfig
{
    /** Master switch for L2 + L3. */
    bool enabled = false;

    /** L3 goal-result entries. */
    std::uint32_t goalCapacity = 256;
    /** Modeled cost of an L3 hit (hash + lookup + payload copy). */
    Tick goalHitCost = 2 * kMicrosecond;

    /** L2 FS1 survivor-set memo entries. */
    std::uint32_t survivorCapacity = 128;
    /** Modeled cost of replaying a memoized survivor set. */
    Tick survivorHitCost = 10 * kMicrosecond;
};

/** CRS configuration. */
struct CrsConfig
{
    HostCostModel host;
    fs1::Fs1Config fs1;
    fs2::Fs2Config fs2;
    CacheConfig cache;

    /**
     * Total threads an FS1 index scan may use (including the calling
     * thread).  N > 1 shards each scan N ways and turns on the modeled
     * FS1/back-half queue of serveBatch() (breakdown.queueWait); 1
     * scans unsharded and leaves queueWait at 0.  Candidate and answer
     * sets are identical at every setting.
     */
    std::uint32_t workers = 1;

    /**
     * Bound on modeled re-reads of a chunk after transient disk
     * errors.  Each retry re-positions the head, so it costs a full
     * access time that shows honestly in the stage breakdown.
     */
    storage::RetryPolicy retry{};

    /**
     * Optional deterministic fault oracle (not owned; null = ideal
     * disks).  When set, every index read is verified against the
     * store's page checksums — corruption degrades the query to a
     * full scan — and data reads model bounded retries and page
     * re-reads.  In -DCLARE_FAULT_INJECT builds a null pointer falls
     * back to support::envFaultInjector().
     */
    const support::FaultInjector *faults = nullptr;

    /**
     * Check the host, FS1, FS2, and pipeline settings as one unit,
     * throwing ConfigError naming the offending field on the first
     * incoherent value (e.g. workers == 0, a non-positive FS1 scan
     * rate under paced replay).  The server constructor calls this;
     * call it directly to vet a config before building stores.
     */
    void validate() const;
};

/**
 * Outcome of the FS1 stage, including the modeled fault effects of
 * the index read.  A scan that is not healthy() carries no FS1 result
 * — the server degrades the query to a full FS2 scan instead of
 * matching garbage codewords.
 */
struct IndexScan
{
    fs1::Fs1Result fs1;
    /** Re-seek and delay ticks injected faults added to the read. */
    Tick faultTicks = 0;
    /** Index pages whose delivered copy failed its CRC check. */
    std::uint32_t corruptPages = 0;
    /** A chunk failed every bounded read attempt. */
    bool unreadable = false;
    /**
     * The survivor set was replayed from the L2 memo: fs1 is a stored
     * Fs1Result, so timing charges the memo replay cost instead of the
     * modeled disk read + scan.
     */
    bool fromCache = false;

    bool healthy() const { return corruptPages == 0 && !unreadable; }
};

/** Characteristics of a query goal that drive mode selection. */
struct QueryProfile
{
    std::uint32_t arity = 0;
    std::uint32_t groundArgs = 0;
    std::uint32_t variableArgs = 0;
    bool hasSharedVars = false;          ///< a variable occurs twice
    bool hasVarBearingStructures = false; ///< complex arg containing vars
};

/**
 * The retrieval server.
 *
 * Implements CacheInvalidationSink so a crs::Transaction constructed
 * with the server as its sink flushes cached results for every
 * predicate it wrote, while its exclusive locks are still held.
 */
class ClauseRetrievalServer : public CacheInvalidationSink
{
  public:
    /**
     * @param symbols shared symbol table (non-const: a candidate's head
     *        is parsed, interning its atoms, the first time it is
     *        decoded for host unification)
     * @throws ConfigError when @p config is incoherent
     */
    ClauseRetrievalServer(term::SymbolTable &symbols,
                          const PredicateStore &store,
                          CrsConfig config = {});

    /**
     * The unified front door: retrieve one request.  The response's
     * breakdown satisfies breakdown.serviceTime() == elapsed and
     * breakdown.queueWait == 0 (queueing only exists in a batch).
     */
    RetrievalResponse serve(const RetrievalRequest &request);

    /**
     * Batched front door: retrieve every request, one after another
     * in batch order, through the same per-request body as serve();
     * candidates, answers, and elapsed are identical to calling
     * serve() in a loop.  With workers > 1 each response's
     * breakdown.queueWait reports the simulated time its finished FS1
     * scan waited for the serial back half of the modeled hardware
     * pipeline.
     *
     * Batch split contract (what the sharded scatter/gather relies
     * on): all retrieval state — caches and MVCC version pins — is
     * keyed per predicate, so any partition of a batch into
     * sub-batches that preserves the relative order of same-predicate
     * requests yields per-item responses identical to serving the
     * whole batch, provided workers == 1 (the serving default, where
     * the modeled queue is off and queueWait == 0 for every item).
     * With workers > 1 the modeled FS1/back-half queue couples items
     * *across* predicates, so a sharded deployment that must stay
     * bit-identical to a local serveBatch() pins workers == 1
     * backends.
     */
    std::vector<RetrievalResponse>
    serveBatch(const std::vector<RetrievalRequest> &batch);

    /**
     * The mode-selection heuristic (exposed for tests/benches),
     * evaluated against the head predicate version.
     */
    SearchMode selectMode(const term::TermArena &q_arena,
                          term::TermRef goal) const;

    /** Analyze a goal's filter-relevant characteristics. */
    static QueryProfile profileQuery(const term::TermArena &q_arena,
                                     term::TermRef goal);

    const CrsConfig &config() const { return config_; }

    /** Spans recorded for requests with TraceOptions::enabled. */
    obs::Tracer &tracer() { return tracer_; }
    const obs::Tracer &tracer() const { return tracer_; }

    /** Always-on pipeline metrics (counters, histograms). */
    obs::MetricsRegistry &metrics() { return metrics_; }
    const obs::MetricsRegistry &metrics() const { return metrics_; }

    /**
     * Drop every cached result derived from @p pred: the L3 goal
     * cache entries for the predicate and, by bumping the predicate's
     * index generation, every L2 survivor memo keyed under the old
     * generation.  Called by Transaction::commit() while the writer's
     * exclusive lock is still held.  Safe under concurrent serves.
     */
    void invalidatePredicate(const term::PredicateId &pred) override;

    /**
     * Wholesale invalidation: clear both server-side cache levels
     * (L2, L3) and the store's disk track caches.  Call after a store
     * reload — clause ordinals and file offsets may all have changed.
     */
    void invalidateCaches();

    /** Entries currently resident in the L3 goal cache (tests). */
    std::size_t goalCacheSize() const;

  private:
    term::SymbolTable &symbols_;
    const PredicateStore &store_;
    CrsConfig config_;
    /** Persistent FS1 engine, shared across retrievals and threads. */
    fs1::Fs1Engine fs1_;
    /** FS1 shard pool; null when workers <= 1 (unsharded scans). */
    std::unique_ptr<support::ThreadPool> pool_;
    /**
     * FS1 scan fan-out: config workers, clamped to the host's core
     * count for CPU-bound scans (sharding wider than the hardware
     * only adds scheduling overhead) but left at full width for paced
     * device-wait scans.  The shard count never changes results
     * (contiguous shards merge back into sequential order).
     */
    std::uint32_t scanShards_ = 1;

    obs::Tracer tracer_;
    obs::MetricsRegistry metrics_;

    // ----- Cache hierarchy (all null when cache.enabled is false, or
    // when a fault oracle is armed — fault-touched results must never
    // be replayed).  Each level is internally mutex-guarded; the
    // server adds no locking of its own around lookups.
    /** L3: canonical goal + mode → full response payload. */
    std::unique_ptr<GoalCache> goalCache_;
    /** L2: predicate + signature + generation → FS1 survivor set. */
    std::unique_ptr<fs1::SurvivorCache> survivorCache_;
    /**
     * Per-predicate index generation, bumped by invalidatePredicate();
     * part of every L2 key, so survivor memos of an updated predicate
     * can never match again (they age out of the LRU).
     */
    mutable std::mutex generationMutex_;
    std::map<term::PredicateId, std::uint64_t> indexGeneration_;

    /** The per-request observer: tracer only when the request asks. */
    obs::Observer observer(const TraceOptions &trace)
    {
        return obs::Observer{trace.enabled ? &tracer_ : nullptr,
                             &metrics_};
    }

    term::PredicateId goalPredicate(const term::TermArena &q_arena,
                                    term::TermRef goal) const;

    /**
     * Mode selection against an already-resolved predicate version's
     * rule fraction — serve()/serveBatch() pin the MVCC version first
     * and select against that same version, never the (possibly
     * newer) head.
     */
    static SearchMode selectModeFor(const term::TermArena &q_arena,
                                    term::TermRef goal,
                                    double rule_fraction);

    /** Does this mode run the FS1 index scan? */
    static bool usesFs1(SearchMode mode)
    {
        return mode == SearchMode::Fs1Only ||
            mode == SearchMode::TwoStage;
    }

    /**
     * FS1 stage: verify the delivered index pages against the store's
     * checksums (when a fault oracle is configured), then scan the
     * predicate's index (sharded when a pool is configured).
     * Thread-safe; touches no per-query state.
     */
    IndexScan scanIndex(const StoredPredicate &stored,
                        const term::TermArena &q_arena,
                        term::TermRef goal,
                        const obs::Observer &obs,
                        obs::SpanId parent) const;

    // ----- Cache plumbing.  Every cache consult and fill below runs
    // on the calling thread, in request (or batch) order, so hit/miss
    // counters and LRU state are deterministic at any worker count.

    /**
     * Do L2/L3 participate in this request?  Snapshot-pinned requests
     * never cache: their answers belong to one historical generation.
     */
    bool cachingActive(const RetrievalRequest &request) const
    {
        return goalCache_ != nullptr && !request.bypassCache &&
            !request.snapshot;
    }

    /** L3 key: canonical goal key + mode + MVCC generation. */
    static std::string goalKey(const term::TermArena &q_arena,
                               term::TermRef goal, SearchMode mode,
                               std::uint64_t generation);

    /** Current index generation of a predicate (0 until written). */
    std::uint64_t generationOf(const term::PredicateId &pred) const;

    /** L2 key: predicate + generations + signature bytes. */
    std::string survivorKey(const term::PredicateId &pred,
                            const scw::Signature &sig,
                            std::uint64_t store_generation) const;

    /**
     * FS1 scan with a precomputed signature and no fault modeling
     * (caching and fault injection are mutually exclusive).
     */
    IndexScan rawScan(const StoredPredicate &stored,
                      const scw::Signature &sig,
                      const obs::Observer &obs, obs::SpanId parent) const;

    /**
     * Build a response from an L3 hit.  The entry is stored already
     * hit-shaped (payload verbatim, breakdown reduced to the modeled
     * goal-hit cost), so this is one copy of the shared payload plus
     * the pre-encoded wire blob handle — nothing was copied under the
     * cache mutex.
     */
    void serveGoalHit(const GoalCache::Entry &cached,
                      RetrievalResponse &response);

    /** Admit an eligible (clean, non-overflowed) response into L3. */
    void maybeCacheGoal(const std::string &goal_key,
                        const term::PredicateId &pred,
                        const RetrievalResponse &response);

    /** Pin the request's MVCC predicate version (fatal if absent). */
    std::shared_ptr<const StoredPredicate>
    pinVersion(const RetrievalRequest &request,
               const term::PredicateId &pred) const;

    /**
     * The per-request body of serve() and serveBatch(), for a request
     * whose response.mode is resolved: the L3 consult (a hit ends
     * here), the FS1 stage (with caches: the goal's signature keys
     * the L2 survivor memo, else a fresh scan is admitted to it;
     * without: scanIndex()), finishRetrieval(), and L3 admission.
     */
    void retrieve(const StoredPredicate &stored,
                  const term::PredicateId &pred,
                  const RetrievalRequest &request,
                  const obs::Observer &ob, obs::SpanId root,
                  RetrievalResponse &response);

    /**
     * Everything after the FS1 stage: degradation of unhealthy index
     * scans, FS2 / software filtering, fault-recovery accounting,
     * host unification, and the single authoritative stage
     * accounting.  Runs on the calling thread.
     */
    void finishRetrieval(const StoredPredicate &stored,
                         const RetrievalRequest &request,
                         IndexScan scan, const obs::Observer &obs,
                         obs::SpanId root, RetrievalResponse &response);

    /**
     * Host full unification of the goal against each candidate's
     * decoded head (see DecodedHeads); fills answers + time.
     */
    void hostUnify(const StoredPredicate &stored,
                   const term::TermArena &q_arena, term::TermRef goal,
                   RetrievalResponse &response);

    /** Per-query metrics + root-span finalization (both paths). */
    void accountQuery(RetrievalResponse &response, obs::ScopedSpan &root);
};

} // namespace clare::crs

#endif // CLARE_CRS_SERVER_HH
