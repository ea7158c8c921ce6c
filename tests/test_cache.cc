/**
 * @file
 * The three-level retrieval cache hierarchy (ctest label: cache).
 *
 * L1 — storage::DiskModel track cache: hit skips the seek and streams
 * at memory speed, miss pays full disk timing and fills, corrupted
 * deliveries are never admitted, and the disabled state is
 * bit-identical to the pre-cache model.
 *
 * L2 — fs1::SurvivorCache: a repeated query signature skips the index
 * scan; the replayed Fs1Result is verbatim.
 *
 * L3 — crs::GoalCache: a hit replays the full response payload
 * bit-identically while charging only the modeled cache lookup;
 * entries invalidate per predicate through crs::Transaction commit.
 *
 * Shared invariants: cold and bypassed requests are bit-identical to
 * a cache-disabled server, and batch results are identical at any
 * worker count.  These tests also carry the concurrency coverage the
 * tier-1 TSan stage runs (-DCLARE_SANITIZE=thread, ctest -L cache).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crs/server.hh"
#include "crs/store.hh"
#include "crs/transaction.hh"
#include "fs1/fs1_engine.hh"
#include "storage/disk_model.hh"
#include "support/lru.hh"
#include "support/thread_pool.hh"
#include "term/canonical.hh"
#include "term/term_reader.hh"
#include "workload/kb_generator.hh"

namespace clare {
namespace {

// ---------------------------------------------------------------------
// support::LruCache — the shared substrate.
// ---------------------------------------------------------------------

TEST(LruCacheTest, EvictsLeastRecentlyUsed)
{
    support::LruCache<int, std::string> cache(2);
    EXPECT_FALSE(cache.put(1, "one"));
    EXPECT_FALSE(cache.put(2, "two"));
    EXPECT_TRUE(cache.put(3, "three"));   // evicts 1
    EXPECT_EQ(cache.get(1), nullptr);
    ASSERT_NE(cache.get(2), nullptr);
    EXPECT_EQ(*cache.get(3), "three");
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, GetPromotesToMostRecent)
{
    support::LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    ASSERT_NE(cache.get(1), nullptr);     // 2 is now least-recent
    cache.put(3, 30);                     // evicts 2
    EXPECT_NE(cache.get(1), nullptr);
    EXPECT_EQ(cache.get(2), nullptr);
    EXPECT_NE(cache.get(3), nullptr);
}

TEST(LruCacheTest, PutOverwritesWithoutEviction)
{
    support::LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    EXPECT_FALSE(cache.put(1, 11));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(*cache.get(1), 11);
}

TEST(LruCacheTest, CapacityZeroIsInertNoop)
{
    support::LruCache<int, int> cache(0);
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.put(1, 10));
    EXPECT_EQ(cache.get(1), nullptr);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, EraseIfRemovesMatchingEntries)
{
    support::LruCache<int, int> cache(8);
    for (int i = 0; i < 6; ++i)
        cache.put(i, i * 10);
    std::size_t removed =
        cache.eraseIf([](int key, int) { return key % 2 == 0; });
    EXPECT_EQ(removed, 3u);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_FALSE(cache.contains(0));
    EXPECT_TRUE(cache.contains(1));
}

// ---------------------------------------------------------------------
// term::canonicalKey — the renaming-invariant cache key.
// ---------------------------------------------------------------------

class CanonicalKeyTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::TermReader reader{sym};

    std::string
    key(const std::string &text)
    {
        term::ParsedTerm t = reader.parseTerm(text);
        return term::canonicalKey(t.arena, t.root);
    }

    std::uint64_t
    hash(const std::string &text)
    {
        term::ParsedTerm t = reader.parseTerm(text);
        return term::canonicalHash(t.arena, t.root);
    }
};

TEST_F(CanonicalKeyTest, RenamedVariablesShareOneKey)
{
    EXPECT_EQ(key("p(X, Y)"), key("p(A, B)"));
    EXPECT_EQ(key("f(X, g(X, Z))"), key("f(Q, g(Q, R))"));
}

TEST_F(CanonicalKeyTest, SharedVariablesAreDistinguished)
{
    EXPECT_NE(key("p(X, X)"), key("p(X, Y)"));
    EXPECT_EQ(key("p(X, X)"), key("p(B, B)"));
}

TEST_F(CanonicalKeyTest, AnonymousVariablesAreAlwaysFresh)
{
    // _ never co-refers, so p(_, _) has the shape of p(X, Y).
    EXPECT_EQ(key("p(_, _)"), key("p(X, Y)"));
    EXPECT_NE(key("p(_, _)"), key("p(X, X)"));
}

TEST_F(CanonicalKeyTest, GroundContentIsDistinguished)
{
    EXPECT_NE(key("p(a, X)"), key("p(b, X)"));
    EXPECT_NE(key("p(1, X)"), key("p(2, X)"));
    EXPECT_NE(key("p(a)"), key("q(a)"));
    EXPECT_NE(key("p(a)"), key("p(a, b)"));
    EXPECT_NE(key("p([a, b])"), key("p([a | T])"));
}

TEST_F(CanonicalKeyTest, HashFollowsKeyEquality)
{
    EXPECT_EQ(hash("p(X, Y)"), hash("p(A, B)"));
    EXPECT_NE(hash("p(a, X)"), hash("p(b, X)"));
}

// ---------------------------------------------------------------------
// L1: the DiskModel track cache.
// ---------------------------------------------------------------------

class DiskCacheTest : public ::testing::Test
{
  protected:
    storage::DiskModel disk{storage::DiskGeometry::fujitsuM2351A()};
    /** The bytes the disk holds; the model itself keeps none. */
    std::vector<std::uint8_t> image;
    obs::MetricsRegistry metrics;
    obs::Observer obs{nullptr, &metrics};

    void
    SetUp() override
    {
        // 8 tracks of data.
        image.resize(8ull * disk.geometry().trackBytes());
        for (std::size_t i = 0; i < image.size(); ++i)
            image[i] = static_cast<std::uint8_t>(i * 7 + 3);
    }

    std::uint64_t
    counter(const std::string &name) const
    {
        for (const auto &c : metrics.counters())
            if (c.name == name)
                return c.value;
        return 0;
    }
};

TEST_F(DiskCacheTest, DisabledModelReadMatchesAnalyticTiming)
{
    storage::ReadTiming rt = disk.modelRead(100, 5000, obs);
    EXPECT_EQ(rt.access, disk.accessTime());
    EXPECT_EQ(rt.transfer, disk.transferTime(5000));
    EXPECT_FALSE(rt.cacheHit);
    // Disabled cache must not even create the counters, so default
    // runs keep a bit-identical metrics dump.
    EXPECT_TRUE(metrics.counters().empty());
}

TEST_F(DiskCacheTest, MissFillsThenHitSkipsSeek)
{
    disk.configureCache({.capacityTracks = 4, .cacheRate = 200.0e6});
    storage::ReadTiming miss = disk.modelRead(0, 40000, obs);
    EXPECT_FALSE(miss.cacheHit);
    EXPECT_EQ(miss.access, disk.accessTime());
    EXPECT_EQ(miss.transfer, disk.transferTime(40000));
    EXPECT_EQ(disk.cachedTracks(), 2u);   // 40000 bytes, 32 KB tracks

    storage::ReadTiming hit = disk.modelRead(0, 40000, obs);
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_EQ(hit.access, 0u);
    EXPECT_LT(hit.transfer, miss.transfer);
    EXPECT_EQ(counter("disk.cache.hit"), 1u);
    EXPECT_EQ(counter("disk.cache.miss"), 1u);
}

TEST_F(DiskCacheTest, CapacityPressureEvictsLeastRecentTracks)
{
    disk.configureCache({.capacityTracks = 2, .cacheRate = 200.0e6});
    const std::uint64_t track = disk.geometry().trackBytes();
    disk.modelRead(0 * track, 100, obs);
    disk.modelRead(1 * track, 100, obs);
    disk.modelRead(2 * track, 100, obs);  // evicts track 0
    EXPECT_EQ(disk.cachedTracks(), 2u);
    EXPECT_GE(counter("disk.cache.evict"), 1u);
    EXPECT_FALSE(disk.modelRead(0, 100, obs).cacheHit);
}

TEST_F(DiskCacheTest, RangeWiderThanCapacityIsNotAdmitted)
{
    // Scan resistance: one full-image sweep must not flush the cache.
    disk.configureCache({.capacityTracks = 2, .cacheRate = 200.0e6});
    disk.modelRead(0, 100, obs);
    disk.modelRead(disk.geometry().trackBytes(), 100, obs);
    ASSERT_EQ(disk.cachedTracks(), 2u);
    disk.modelRead(0, image.size(), obs);   // 8-track sweep
    EXPECT_EQ(disk.cachedTracks(), 2u);
    EXPECT_TRUE(disk.modelRead(0, 100, obs).cacheHit);
}

TEST_F(DiskCacheTest, DropCacheEmptiesResidentSet)
{
    disk.configureCache({.capacityTracks = 4, .cacheRate = 200.0e6});
    disk.modelRead(0, 1000, obs);
    ASSERT_GT(disk.cachedTracks(), 0u);
    disk.dropCache();
    EXPECT_EQ(disk.cachedTracks(), 0u);
}

TEST_F(DiskCacheTest, StreamHitDeliversSameBytesWithoutAccessTime)
{
    disk.configureCache({.capacityTracks = 4, .cacheRate = 200.0e6});
    auto stream_all = [&](std::uint64_t len) {
        std::vector<std::uint8_t> bytes;
        Tick end = disk.stream(
            image, 0, len, 4096, 0,
            [&](const std::uint8_t *d, std::uint32_t n, Tick) {
                bytes.insert(bytes.end(), d, d + n);
            },
            obs);
        return std::make_pair(std::move(bytes), end);
    };
    auto [cold_bytes, cold_end] = stream_all(50000);
    auto [warm_bytes, warm_end] = stream_all(50000);
    EXPECT_EQ(warm_bytes, cold_bytes);
    EXPECT_LT(warm_end, cold_end);
    // The hit pays no seek/rotation at all: pure cache-rate transfer.
    EXPECT_LT(warm_end, disk.accessTime());
}

TEST_F(DiskCacheTest, CorruptedDeliveryIsNeverAdmitted)
{
    disk.configureCache({.capacityTracks = 4, .cacheRate = 200.0e6});
    support::FaultConfig config;
    config.seed = 11;
    config.bitFlipRate = 1.0;     // every chunk delivered corrupt
    support::FaultInjector faults(config);
    std::vector<std::uint8_t> delivered;
    disk.stream(
        image, 0, 8192, 4096, 0,
        [&](const std::uint8_t *d, std::uint32_t n, Tick) {
            delivered.insert(delivered.end(), d, d + n);
        },
        obs, 0, &faults);
    ASSERT_NE(delivered,
              std::vector<std::uint8_t>(image.begin(),
                                        image.begin() + 8192));
    // The poisoned range must not be resident: a re-read goes to the
    // platters (and, fault-free this time, delivers clean bytes).
    EXPECT_EQ(disk.cachedTracks(), 0u);
    EXPECT_FALSE(disk.modelRead(0, 8192, obs).cacheHit);
}

// ---------------------------------------------------------------------
// FS1 shard spans telescope to the merged busy time (satellite fix:
// span ticks and busyTime derive from one cumulative conversion).
// ---------------------------------------------------------------------

TEST(Fs1SpanAccountingTest, ShardSpanTicksSumToMergedBusyTime)
{
    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 777;   // odd count → uneven shards
    spec.seed = 5;
    term::Program program = kbgen.generate(spec);
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();
    const crs::StoredPredicate &stored =
        store.predicate(program.predicates()[0]);

    term::TermReader reader(sym);
    term::ParsedTerm goal = reader.parseTerm("p0(a1, B)");
    scw::Signature sig = store.generator().encode(goal.arena, goal.root);

    fs1::Fs1Engine engine(store.generator(), fs1::Fs1Config{});
    support::ThreadPool pool(3);
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    obs::Observer obs{&tracer, &metrics};
    for (std::uint32_t shards : {1u, 3u, 7u}) {
        tracer.clear();
        fs1::Fs1Result result =
            engine.search(stored.index, stored.sliced.get(), sig, &pool,
                          shards, obs);
        Tick span_sum = 0;
        for (const obs::SpanRecord &span : tracer.snapshot())
            if (span.name == "fs1.shard")
                span_sum += span.simTicks;
        EXPECT_EQ(span_sum, result.busyTime) << shards << " shards";
    }
}

// ---------------------------------------------------------------------
// L2/L3: the server-side caches.
// ---------------------------------------------------------------------

class ServerCacheTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::Program program;
    std::unique_ptr<crs::PredicateStore> store;
    std::unique_ptr<term::TermReader> reader;
    std::vector<term::ParsedTerm> goals;

    void
    SetUp() override
    {
        workload::KbGenerator kbgen(sym);
        workload::KbSpec spec;
        spec.predicates = 3;
        spec.clausesPerPredicate = 200;
        spec.arityMin = 2;
        spec.arityMax = 2;
        spec.varProb = 0.1;
        spec.seed = 41;
        program = kbgen.generate(spec);
        store = std::make_unique<crs::PredicateStore>(
            sym, scw::CodewordGenerator{});
        store->addProgram(program);
        store->finalize();
        reader = std::make_unique<term::TermReader>(sym);
        for (const char *text :
             {"p0(a1, X)", "p0(a2, X)", "p1(a3, X)", "p1(a4, X)",
              "p2(a5, X)", "p2(a6, X)"}) {
            goals.push_back(reader->parseTerm(text));
        }
    }

    crs::CrsConfig
    cachedConfig() const
    {
        crs::CrsConfig config;
        config.cache.enabled = true;
        return config;
    }

    std::unique_ptr<crs::ClauseRetrievalServer>
    makeServer(crs::CrsConfig config = {})
    {
        return std::make_unique<crs::ClauseRetrievalServer>(sym, *store,
                                                            config);
    }

    static crs::RetrievalRequest
    request(const term::ParsedTerm &goal,
            crs::SearchMode mode = crs::SearchMode::TwoStage)
    {
        crs::RetrievalRequest r;
        r.arena = &goal.arena;
        r.goal = goal.root;
        r.mode = mode;
        return r;
    }

    static std::uint64_t
    counter(const crs::ClauseRetrievalServer &server,
            const std::string &name)
    {
        for (const auto &c : server.metrics().counters())
            if (c.name == name)
                return c.value;
        return 0;
    }

    /** Payload equality: every field full unification depends on. */
    static void
    expectSamePayload(const crs::RetrievalResponse &a,
                      const crs::RetrievalResponse &b)
    {
        EXPECT_EQ(a.mode, b.mode);
        EXPECT_EQ(a.candidates, b.candidates);
        EXPECT_EQ(a.answers, b.answers);
        EXPECT_EQ(a.indexEntriesScanned, b.indexEntriesScanned);
        EXPECT_EQ(a.fs1Hits, b.fs1Hits);
        EXPECT_EQ(a.clausesExamined, b.clausesExamined);
        EXPECT_EQ(a.filterOps, b.filterOps);
        EXPECT_EQ(a.degraded, b.degraded);
        EXPECT_EQ(a.resultOverflow, b.resultOverflow);
        EXPECT_EQ(a.satisfiersRequeued, b.satisfiersRequeued);
    }

    /** Full bit-identity: payload plus every timing field. */
    static void
    expectIdentical(const crs::RetrievalResponse &a,
                    const crs::RetrievalResponse &b)
    {
        expectSamePayload(a, b);
        EXPECT_EQ(a.breakdown.queueWait, b.breakdown.queueWait);
        EXPECT_EQ(a.breakdown.cacheTime, b.breakdown.cacheTime);
        EXPECT_EQ(a.breakdown.indexTime, b.breakdown.indexTime);
        EXPECT_EQ(a.breakdown.filterTime, b.breakdown.filterTime);
        EXPECT_EQ(a.breakdown.hostUnifyTime, b.breakdown.hostUnifyTime);
        EXPECT_EQ(a.elapsed, b.elapsed);
    }
};

TEST_F(ServerCacheTest, ColdRequestIsBitIdenticalToCacheDisabledServer)
{
    auto plain = makeServer();
    auto cached = makeServer(cachedConfig());
    for (const term::ParsedTerm &goal : goals) {
        crs::RetrievalResponse a = plain->serve(request(goal));
        crs::RetrievalResponse b = cached->serve(request(goal));
        expectIdentical(a, b);
        EXPECT_EQ(b.breakdown.cacheTime, 0u);
    }
}

TEST_F(ServerCacheTest, HitAfterMissReplaysPayloadBitIdentically)
{
    auto server = makeServer(cachedConfig());
    crs::RetrievalResponse miss = server->serve(request(goals[0]));
    crs::RetrievalResponse hit = server->serve(request(goals[0]));
    expectSamePayload(miss, hit);
    EXPECT_EQ(hit.breakdown.cacheTime,
              server->config().cache.goalHitCost);
    EXPECT_EQ(hit.breakdown.indexTime, 0u);
    EXPECT_EQ(hit.breakdown.filterTime, 0u);
    EXPECT_EQ(hit.breakdown.hostUnifyTime, 0u);
    EXPECT_EQ(hit.elapsed, hit.breakdown.serviceTime());
    EXPECT_LT(hit.elapsed, miss.elapsed);
    EXPECT_EQ(counter(*server, "crs.cache.hits"), 1u);
    EXPECT_EQ(counter(*server, "crs.cache.misses"), 1u);
}

TEST_F(ServerCacheTest, RenamedGoalHitsTheSameEntry)
{
    auto server = makeServer(cachedConfig());
    term::ParsedTerm a = reader->parseTerm("p0(a1, Xvar)");
    term::ParsedTerm b = reader->parseTerm("p0(a1, Other)");
    crs::RetrievalResponse first = server->serve(request(a));
    crs::RetrievalResponse second = server->serve(request(b));
    expectSamePayload(first, second);
    EXPECT_EQ(counter(*server, "crs.cache.hits"), 1u);
}

TEST_F(ServerCacheTest, BypassOnWarmServerMatchesCacheDisabledServer)
{
    auto plain = makeServer();
    auto cached = makeServer(cachedConfig());
    cached->serve(request(goals[0]));     // warm every level
    cached->serve(request(goals[0]));
    crs::RetrievalRequest bypass = request(goals[0]);
    bypass.bypassCache = true;
    crs::RetrievalResponse a = plain->serve(request(goals[0]));
    crs::RetrievalResponse b = cached->serve(bypass);
    expectIdentical(a, b);
    // And the bypass neither consulted nor refreshed the caches: the
    // next normal request is still a hit.
    std::uint64_t hits = counter(*cached, "crs.cache.hits");
    cached->serve(request(goals[0]));
    EXPECT_EQ(counter(*cached, "crs.cache.hits"), hits + 1);
}

TEST_F(ServerCacheTest, SurvivorMemoServesRepeatedSignatureAcrossModes)
{
    // Same goal, different mode: a different L3 key but the same
    // query signature, so the FS1 survivor set replays from L2.
    auto server = makeServer(cachedConfig());
    crs::RetrievalResponse two_stage =
        server->serve(request(goals[0], crs::SearchMode::TwoStage));
    crs::RetrievalResponse fs1_only =
        server->serve(request(goals[0], crs::SearchMode::Fs1Only));
    EXPECT_EQ(fs1_only.breakdown.cacheTime,
              server->config().cache.survivorHitCost);
    EXPECT_EQ(fs1_only.breakdown.indexTime, 0u);
    EXPECT_EQ(fs1_only.indexEntriesScanned,
              two_stage.indexEntriesScanned);
    EXPECT_EQ(fs1_only.fs1Hits, two_stage.fs1Hits);
    EXPECT_EQ(fs1_only.answers, two_stage.answers);

    // The replayed payload is bit-identical to a real scan's.
    auto plain = makeServer();
    crs::RetrievalResponse recomputed =
        plain->serve(request(goals[0], crs::SearchMode::Fs1Only));
    expectSamePayload(recomputed, fs1_only);
}

TEST_F(ServerCacheTest, TransactionCommitInvalidatesOnlyItsPredicate)
{
    auto server = makeServer(cachedConfig());
    server->serve(request(goals[0]));     // p0
    server->serve(request(goals[2]));     // p1
    ASSERT_EQ(server->goalCacheSize(), 2u);

    crs::LockManager locks;
    term::PredicateId p0{sym.intern("p0"), 2};
    {
        crs::Transaction tx(locks, 1, server.get());
        ASSERT_TRUE(tx.acquire(p0, crs::LockKind::Exclusive));
        tx.commit();
    }
    EXPECT_EQ(server->goalCacheSize(), 1u);
    EXPECT_EQ(counter(*server, "crs.cache.invalidations"), 1u);

    // p0 recomputes (and the survivor memo is dead too — the commit
    // bumped the index generation); p1 still hits.
    std::uint64_t misses = counter(*server, "crs.cache.misses");
    crs::RetrievalResponse again = server->serve(request(goals[0]));
    EXPECT_EQ(counter(*server, "crs.cache.misses"), misses + 1);
    EXPECT_EQ(again.breakdown.cacheTime, 0u);
    std::uint64_t hits = counter(*server, "crs.cache.hits");
    server->serve(request(goals[2]));
    EXPECT_EQ(counter(*server, "crs.cache.hits"), hits + 1);
}

TEST_F(ServerCacheTest, AbortedTransactionInvalidatesNothing)
{
    auto server = makeServer(cachedConfig());
    server->serve(request(goals[0]));
    ASSERT_EQ(server->goalCacheSize(), 1u);
    crs::LockManager locks;
    {
        crs::Transaction tx(locks, 1, server.get());
        ASSERT_TRUE(tx.acquire(term::PredicateId{sym.intern("p0"), 2},
                               crs::LockKind::Exclusive));
        tx.abort();
    }
    EXPECT_EQ(server->goalCacheSize(), 1u);
    EXPECT_EQ(counter(*server, "crs.cache.invalidations"), 0u);
}

TEST_F(ServerCacheTest, EvictionUnderCapacityPressure)
{
    crs::CrsConfig config = cachedConfig();
    config.cache.goalCapacity = 2;
    auto server = makeServer(config);
    server->serve(request(goals[0]));
    server->serve(request(goals[1]));
    server->serve(request(goals[2]));     // evicts goals[0]
    EXPECT_EQ(server->goalCacheSize(), 2u);
    EXPECT_EQ(counter(*server, "crs.cache.evictions"), 1u);
    std::uint64_t misses = counter(*server, "crs.cache.misses");
    server->serve(request(goals[0]));     // recomputes
    EXPECT_EQ(counter(*server, "crs.cache.misses"), misses + 1);
}

TEST_F(ServerCacheTest, BatchResponsesIdenticalAtAnyWorkerCount)
{
    std::vector<crs::RetrievalRequest> batch;
    for (int round = 0; round < 3; ++round)
        for (const term::ParsedTerm &goal : goals)
            batch.push_back(request(goal));

    crs::CrsConfig sequential = cachedConfig();
    auto baseline = makeServer(sequential);
    std::vector<crs::RetrievalResponse> expected =
        baseline->serveBatch(batch);

    for (std::uint32_t workers : {2u, 8u}) {
        crs::CrsConfig config = cachedConfig();
        config.workers = workers;
        auto server = makeServer(config);
        std::vector<crs::RetrievalResponse> got =
            server->serveBatch(batch);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            expectSamePayload(expected[i], got[i]);
            // Service timing is pipeline-independent; only queueWait
            // reflects the overlap model.
            EXPECT_EQ(expected[i].breakdown.serviceTime(),
                      got[i].breakdown.serviceTime());
            EXPECT_EQ(expected[i].elapsed, got[i].elapsed);
        }
        // Repeated goals were served from cache in both runs.
        EXPECT_GT(counter(*server, "crs.cache.hits"), 0u);
    }
}

TEST_F(ServerCacheTest, BatchQueueWaitFollowsModeledPipeline)
{
    // Every goal in all four modes, twice: the second round hits L3,
    // and within a round a goal's TwoStage scan replays the survivor
    // memo its Fs1Only scan filled.
    const crs::SearchMode kModes[] = {
        crs::SearchMode::SoftwareOnly, crs::SearchMode::Fs1Only,
        crs::SearchMode::Fs2Only, crs::SearchMode::TwoStage};
    std::vector<crs::RetrievalRequest> batch;
    for (int round = 0; round < 2; ++round)
        for (const term::ParsedTerm &goal : goals)
            for (crs::SearchMode mode : kModes)
                batch.push_back(request(goal, mode));

    for (std::uint32_t workers : {2u, 4u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        crs::CrsConfig config = cachedConfig();
        config.workers = workers;
        auto server = makeServer(config);
        std::vector<crs::RetrievalResponse> out = server->serveBatch(batch);
        ASSERT_EQ(out.size(), batch.size());

        // The modeled hardware pipeline: FS1 scans back to back, the
        // host back half drains them in batch order.
        Tick fs1_free = 0;
        Tick back_free = 0;
        Tick total_wait = 0;
        for (std::size_t i = 0; i < out.size(); ++i) {
            const crs::StageBreakdown &b = out[i].breakdown;
            Tick scan_done = fs1_free + b.indexTime;
            fs1_free = scan_done;
            Tick back_start = std::max(scan_done, back_free);
            EXPECT_EQ(b.queueWait, back_start - scan_done) << "item " << i;
            back_free = back_start + b.cacheTime + b.filterTime +
                b.hostUnifyTime;
            if (b.queueWait != 0) {
                EXPECT_EQ(out[i].replayBlob, nullptr) << "item " << i;
            }
            total_wait += b.queueWait;
        }
        EXPECT_GT(total_wait, 0u);
        EXPECT_GT(counter(*server, "crs.cache.hits"), 0u);
        EXPECT_GT(counter(*server, "fs1.cache.survivor_hits"), 0u);
    }
}

TEST_F(ServerCacheTest, BatchAtCapacityOneMatchesServeLoop)
{
    // One-entry caches evict between a request and its repeat, so a
    // hit filled earlier in the batch is gone by its turn: B evicts
    // A's goal entry, and B's scan evicts A's survivor memo
    // before A is served again in another FS1 mode.  The overflowing
    // goal is never admitted to L3, so its repeat recomputes.
    term::ParsedTerm overflow = reader->parseTerm("p0(X, Y)");
    const crs::SearchMode two = crs::SearchMode::TwoStage;
    const crs::SearchMode fs1 = crs::SearchMode::Fs1Only;
    const std::vector<crs::RetrievalRequest> batch = {
        request(goals[0]),       request(goals[1]),
        request(goals[0]),       request(goals[2]),
        request(goals[0]),       request(goals[1], fs1),
        request(goals[3], two),  request(goals[1], two),
        request(overflow, two),  request(overflow, two),
        request(goals[0]),       request(overflow, two),
    };

    crs::CrsConfig base = cachedConfig();
    base.cache.goalCapacity = 1;
    base.cache.survivorCapacity = 1;
    auto loop_server = makeServer(base);
    std::vector<crs::RetrievalResponse> expected;
    for (const crs::RetrievalRequest &r : batch)
        expected.push_back(loop_server->serve(r));
    ASSERT_TRUE(expected[8].resultOverflow);
    EXPECT_NE(expected[9].breakdown.filterTime, 0u)
        << "an overflowed response must not be replayed from L3";

    for (std::uint32_t workers : {1u, 4u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        crs::CrsConfig config = base;
        config.workers = workers;
        auto server = makeServer(config);
        std::vector<crs::RetrievalResponse> got = server->serveBatch(batch);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE("item " + std::to_string(i));
            expectSamePayload(expected[i], got[i]);
            EXPECT_EQ(expected[i].breakdown.serviceTime(),
                      got[i].breakdown.serviceTime());
            EXPECT_EQ(expected[i].elapsed, got[i].elapsed);
            if (workers == 1) {
                EXPECT_EQ(got[i].breakdown.queueWait, 0u);
            }
        }
        EXPECT_EQ(counter(*server, "crs.cache.hits"),
                  counter(*loop_server, "crs.cache.hits"));
        EXPECT_EQ(counter(*server, "fs1.cache.survivor_hits"),
                  counter(*loop_server, "fs1.cache.survivor_hits"));
    }
}

TEST_F(ServerCacheTest, ConcurrentServesStayCorrectUnderSharedCaches)
{
    // The L3 cache (and the L2 memo) are shared mutable state under
    // concurrent serve() callers; TSan runs this via ctest -L cache.
    auto plain = makeServer();
    std::vector<crs::RetrievalResponse> expected;
    expected.reserve(goals.size());
    for (const term::ParsedTerm &goal : goals)
        expected.push_back(plain->serve(request(goal)));

    auto server = makeServer(cachedConfig());
    constexpr int kThreads = 4;
    constexpr int kRounds = 8;
    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int r = 0; r < kRounds; ++r) {
                std::size_t g = (t + r) % goals.size();
                crs::RetrievalResponse got =
                    server->serve(request(goals[g]));
                if (got.candidates != expected[g].candidates ||
                    got.answers != expected[g].answers) {
                    ++failures[t];
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[t], 0) << "thread " << t;
}

TEST_F(ServerCacheTest, CacheConfigValidation)
{
    crs::CrsConfig config = cachedConfig();
    config.cache.goalCapacity = 0;
    EXPECT_THROW(makeServer(config), crs::ConfigError);
    config = cachedConfig();
    config.cache.survivorCapacity = 0;
    EXPECT_THROW(makeServer(config), crs::ConfigError);
    config = cachedConfig();
    config.cache.goalHitCost = 2 * kSecond;
    EXPECT_THROW(makeServer(config), crs::ConfigError);
    // Disabled caches skip the capacity checks entirely.
    config = crs::CrsConfig{};
    config.cache.goalCapacity = 0;
    EXPECT_NO_THROW(makeServer(config));
}

} // namespace
} // namespace clare
