/**
 * @file
 * Concurrency coverage for the sharded retrieval pipeline: thread-pool
 * primitives, FS1 shard determinism (bit-identical candidates and
 * answers at any worker count), serveBatch() equivalence with the
 * sequential loop, shard-accumulated busy-time accounting,
 * thread-safe metrics resolution, transaction/lock-manager edge cases
 * (re-acquisition, upgrade, partial acquireAll failure), and live-update
 * interleaving: a writer thread streaming assertz commits through a
 * LiveStore while concurrent serveBatch() readers prove that
 * snapshot-pinned reads stay bit-identical to the quiesced pre-commit
 * reference, and cold serving (stored clause heads parsed on first
 * touch through the shared symbol table) racing a writer that interns
 * fresh atoms.  These tests carry the `tsan` ctest label so a
 * -DCLARE_SANITIZE=thread build exercises them under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "crs/live_update.hh"
#include "crs/server.hh"
#include "crs/store.hh"
#include "crs/transaction.hh"
#include "support/thread_pool.hh"
#include "term/term_reader.hh"
#include "unify/oracle.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

namespace clare {
namespace {

/** One goal through the unified front door. */
crs::RetrievalResponse
serveOne(crs::ClauseRetrievalServer &server, const term::TermArena &arena,
         term::TermRef goal, std::optional<crs::SearchMode> mode = {})
{
    crs::RetrievalRequest request;
    request.arena = &arena;
    request.goal = goal;
    request.mode = mode;
    return server.serve(request);
}

// ---------------------------------------------------------------------
// ThreadPool primitives.
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    support::ThreadPool pool(3);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> touched(kCount);
    pool.parallelFor(kCount, [&](std::size_t i) {
        touched[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(touched[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline)
{
    support::ThreadPool pool(0);
    int calls = 0;
    pool.parallelFor(5, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 5);
}

TEST(ThreadPoolTest, ConcurrentParallelForOnBusyPoolFinishes)
{
    // Concurrent serve() callers shard their scans on one shared pool;
    // each parallelFor must complete even while every worker is busy,
    // because its calling thread drains the indices itself.
    support::ThreadPool pool(1);
    std::atomic<bool> release{false};
    std::atomic<int> entered{0};
    // Both indices block, so the blocker thread and the pool's only
    // worker each hold one until released.
    std::thread blocker([&] {
        pool.parallelFor(2, [&](std::size_t) {
            entered.fetch_add(1);
            while (!release.load())
                std::this_thread::yield();
        });
    });
    while (entered.load() < 2)
        std::this_thread::yield();
    std::atomic<int> n{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < 2; ++t) {
        callers.emplace_back([&] {
            pool.parallelFor(8, [&](std::size_t) {
                n.fetch_add(1, std::memory_order_relaxed);
            });
        });
    }
    for (std::thread &c : callers)
        c.join();
    EXPECT_EQ(n.load(), 16);
    release.store(true);
    blocker.join();
}

// ---------------------------------------------------------------------
// Thread-safe metrics: descriptors first-touched from many threads.
// ---------------------------------------------------------------------

const obs::CounterDef kSharedEvents{"test.shared_events",
                                    "events counted by every worker"};
const std::array<obs::CounterDef, 8> kEvents =
    obs::counterFamily<8>(
        "test.events.", [](std::size_t i) { return std::to_string(i); },
        "events counted by one residue class");
const obs::HistogramDef kLatency[4] = {
    {"test.latency.0", {1.0, 16.0}, "samples of residue class 0"},
    {"test.latency.1", {1.0, 16.0}, "samples of residue class 1"},
    {"test.latency.2", {1.0, 16.0}, "samples of residue class 2"},
    {"test.latency.3", {1.0, 16.0}, "samples of residue class 3"},
};

TEST(MetricsConcurrencyTest, RacingFirstTouchesShareOneInstrument)
{
    obs::MetricsRegistry metrics;
    support::ThreadPool pool(4);
    constexpr std::size_t kIters = 10000;
    // Every task may be the first touch: the slot fills exactly once
    // per registry and no increment lands on a discarded instrument.
    pool.parallelFor(kIters, [&](std::size_t) {
        metrics.counter(kSharedEvents) += 2;
    });
    EXPECT_EQ(metrics.counter(kSharedEvents).value(), 2 * kIters);
    EXPECT_EQ(&metrics.counter(kSharedEvents),
              &metrics.counter(kSharedEvents.name()));
    ASSERT_EQ(metrics.counters().size(), 1u);
    EXPECT_EQ(metrics.counters()[0].desc, kSharedEvents.desc());
}

TEST(MetricsConcurrencyTest, InterleavedDescriptorsStayPerRegistry)
{
    obs::MetricsRegistry metrics;
    obs::MetricsRegistry other;
    support::ThreadPool pool(4);
    pool.parallelFor(64, [&](std::size_t i) {
        // Distinct counter and histogram descriptors first-touched in
        // interleaved order; even tasks also count into a second
        // registry, whose instruments must stay its own.
        metrics.histogram(kLatency[i % 4]).record(static_cast<double>(i));
        ++metrics.counter(kEvents[i % 8]);
        if (i % 2 == 0)
            ++other.counter(kEvents[i % 8]);
    });

    std::uint64_t samples = 0;
    for (const obs::HistogramDef &def : kLatency) {
        obs::Histogram &h = metrics.histogram(def);
        EXPECT_EQ(&h, &metrics.histogram(def.name(), {}));
        EXPECT_EQ(h.count(), 16u);
        samples += h.count();
    }
    EXPECT_EQ(samples, 64u);
    EXPECT_EQ(metrics.histograms().size(), 4u);

    ASSERT_EQ(metrics.counters().size(), 8u);
    ASSERT_EQ(other.counters().size(), 4u);
    for (std::size_t k = 0; k < kEvents.size(); ++k) {
        obs::Counter &mine = metrics.counter(kEvents[k]);
        EXPECT_EQ(&mine, &metrics.counter(kEvents[k].name()));
        EXPECT_EQ(mine.value(), 8u);
        if (k % 2 == 0) {
            EXPECT_NE(&other.counter(kEvents[k]), &mine);
            EXPECT_EQ(other.counter(kEvents[k]).value(), 8u);
        }
    }
    // Touching a descriptor in one registry never registers it in
    // another: the odd residue classes are still absent from other.
    for (const obs::MetricsRegistry::CounterView &c : other.counters())
        EXPECT_EQ(c.value, 8u);
    EXPECT_TRUE(other.histograms().empty());
}

// ---------------------------------------------------------------------
// Shard ranges.
// ---------------------------------------------------------------------

TEST(ShardRangeTest, PartitionIsContiguousAndComplete)
{
    scw::CodewordGenerator gen;
    scw::SecondaryFile file = scw::SecondaryFile::fromImage(
        std::vector<std::uint8_t>(10 * (gen.signatureBytes() + 8)), 10,
        gen.signatureBytes() + 8);
    for (std::size_t shards : {1u, 2u, 3u, 7u, 10u, 32u}) {
        std::vector<scw::EntryRange> ranges = file.shardRanges(shards);
        ASSERT_FALSE(ranges.empty());
        EXPECT_LE(ranges.size(), std::min<std::size_t>(shards, 10));
        EXPECT_EQ(ranges.front().begin, 0u);
        EXPECT_EQ(ranges.back().end, 10u);
        for (std::size_t s = 1; s < ranges.size(); ++s)
            EXPECT_EQ(ranges[s].begin, ranges[s - 1].end);
    }
    EXPECT_TRUE(file.shardRanges(0).empty());
}

// ---------------------------------------------------------------------
// Engine-level sharded scan.  The server clamps its fan-out to the
// host's core count, so this test drives Fs1Engine directly with an
// explicit pool and shard width to cover the scan/merge path with real
// threads on any hardware.
// ---------------------------------------------------------------------

TEST(Fs1ShardedScanTest, MatchesSequentialScanForAnyShardWidth)
{
    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 500;
    spec.varProb = 0.1;
    spec.seed = 29;
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
    fs1::Fs1Result seq =
        engine.search(stored.index, stored.sliced.get(), sig, nullptr, 1);
    ASSERT_GT(seq.entriesScanned, 0u);

    support::ThreadPool pool(3);
    for (std::uint32_t shards : {2u, 4u, 16u}) {
        fs1::Fs1Result par =
            engine.search(stored.index, stored.sliced.get(), sig, &pool,
                          shards);
        EXPECT_EQ(par.ordinals, seq.ordinals) << shards << " shards";
        EXPECT_EQ(par.clauseOffsets, seq.clauseOffsets);
        EXPECT_EQ(par.entriesScanned, seq.entriesScanned);
        EXPECT_EQ(par.bytesScanned, seq.bytesScanned);
        // Shard byte counts are summed before the single tick
        // conversion, so timing is identical at any shard width.
        EXPECT_EQ(par.busyTime, seq.busyTime);
        EXPECT_EQ(par.shards, shards);
    }
}

// ---------------------------------------------------------------------
// Retrieval pipeline determinism.
// ---------------------------------------------------------------------

class PipelineTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::Program program;
    std::unique_ptr<crs::PredicateStore> store;
    std::vector<workload::GeneratedQuery> queries;

    void
    SetUp() override
    {
        workload::KbGenerator kbgen(sym);
        workload::KbSpec spec;
        spec.predicates = 3;
        spec.clausesPerPredicate = 300;
        spec.varProb = 0.1;
        spec.structProb = 0.25;
        spec.seed = 17;
        program = kbgen.generate(spec);

        store = std::make_unique<crs::PredicateStore>(
            sym, scw::CodewordGenerator{});
        store->addProgram(program);
        store->finalize();

        workload::QuerySpec qspec;
        qspec.boundArgProb = 0.6;
        qspec.sharedVarProb = 0.2;
        qspec.seed = 23;
        workload::QueryGenerator qgen(sym, qspec);
        for (int i = 0; i < 12; ++i) {
            const auto &pred =
                program.predicates()[i % program.predicates().size()];
            queries.push_back(qgen.generate(program, pred));
        }
    }

    std::unique_ptr<crs::ClauseRetrievalServer>
    makeServer(std::uint32_t workers)
    {
        crs::CrsConfig config;
        config.workers = workers;
        return std::make_unique<crs::ClauseRetrievalServer>(
            sym, *store, config);
    }
};

TEST_F(PipelineTest, ShardedRetrievalIsBitIdenticalAcrossWorkerCounts)
{
    auto baseline = makeServer(1);
    for (std::uint32_t workers : {2u, 8u}) {
        auto server = makeServer(workers);
        for (const workload::GeneratedQuery &q : queries) {
            for (crs::SearchMode mode : {crs::SearchMode::Fs1Only,
                                         crs::SearchMode::TwoStage}) {
                crs::RetrievalResponse seq =
                    serveOne(*baseline, q.arena, q.goal, mode);
                crs::RetrievalResponse par =
                    serveOne(*server, q.arena, q.goal, mode);
                EXPECT_EQ(par.candidates, seq.candidates)
                    << workers << " workers";
                EXPECT_EQ(par.answers, seq.answers)
                    << workers << " workers";
                EXPECT_EQ(par.indexEntriesScanned,
                          seq.indexEntriesScanned);
                // Shard byte counts are summed before the tick
                // conversion, so the timing matches to the tick.
                EXPECT_EQ(par.breakdown.indexTime,
                          seq.breakdown.indexTime);
                EXPECT_EQ(par.elapsed, seq.elapsed);
            }
        }
    }
}

TEST_F(PipelineTest, ServeBatchMatchesSequentialLoop)
{
    using Request = crs::RetrievalRequest;
    std::vector<Request> batch;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        Request r;
        r.arena = &queries[i].arena;
        r.goal = queries[i].goal;
        // Mix explicit modes with auto-selection.
        if (i % 3 == 0)
            r.mode = crs::SearchMode::TwoStage;
        else if (i % 3 == 1)
            r.mode = crs::SearchMode::Fs1Only;
        batch.push_back(r);
    }

    auto seq_server = makeServer(1);
    std::vector<crs::RetrievalResponse> expected;
    for (const Request &r : batch) {
        expected.push_back(seq_server->serve(r));
    }

    for (std::uint32_t workers : {1u, 2u, 8u}) {
        auto server = makeServer(workers);
        std::vector<crs::RetrievalResponse> got =
            server->serveBatch(batch);
        ASSERT_EQ(got.size(), expected.size()) << workers << " workers";
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].mode, expected[i].mode) << "query " << i;
            EXPECT_EQ(got[i].candidates, expected[i].candidates)
                << "query " << i << ", " << workers << " workers";
            EXPECT_EQ(got[i].answers, expected[i].answers)
                << "query " << i << ", " << workers << " workers";
            EXPECT_EQ(got[i].elapsed, expected[i].elapsed)
                << "query " << i << ", " << workers << " workers";
        }
    }
}

TEST_F(PipelineTest, SharedServerStatsAggregateAcrossWorkers)
{
    auto server = makeServer(4);
    std::uint64_t scanned = 0;
    for (const workload::GeneratedQuery &q : queries) {
        crs::RetrievalResponse r = serveOne(
            *server, q.arena, q.goal, crs::SearchMode::Fs1Only);
        scanned += r.indexEntriesScanned;
    }
    obs::MetricsRegistry &metrics = server->metrics();
    EXPECT_EQ(metrics.counter("fs1.entries_scanned").value(), scanned);
    EXPECT_EQ(metrics.counter("fs1.searches").value(), queries.size());
}

// ---------------------------------------------------------------------
// Transaction / lock-manager edge cases.  These pin the exact contract
// the live-update path depends on: held-lock bookkeeping must release
// exactly once, commit must invalidate exactly the predicates written,
// and neither abort path may invalidate anything.
// ---------------------------------------------------------------------

struct CountingSink : crs::CacheInvalidationSink
{
    std::map<term::PredicateId, int> counts;
    void
    invalidatePredicate(const term::PredicateId &pred) override
    {
        ++counts[pred];
    }
};

TEST(TransactionEdgeTest, ReacquiredLockReleasesExactlyOnce)
{
    crs::LockManager lm;
    const term::PredicateId p{3, 2};
    crs::Transaction tx(lm, 7);
    EXPECT_TRUE(tx.acquire(p, crs::LockKind::Shared));
    EXPECT_TRUE(tx.acquire(p, crs::LockKind::Shared));
    // A duplicate held-lock entry would double-release here and trip
    // the manager's unheld-lock assert.
    tx.commit();
    EXPECT_FALSE(lm.holds(7, p));
    EXPECT_EQ(lm.holders(p), 0u);
}

TEST(TransactionEdgeTest, SharedThenExclusiveInvalidatesOnceOnCommit)
{
    crs::LockManager lm;
    CountingSink sink;
    const term::PredicateId p{3, 2};
    crs::Transaction tx(lm, 7, &sink);
    EXPECT_TRUE(tx.acquire(p, crs::LockKind::Shared));
    // The sole sharer is granted the in-place strengthen; the held
    // record must follow it so commit treats the predicate as written.
    EXPECT_TRUE(tx.acquire(p, crs::LockKind::Exclusive));
    EXPECT_EQ(lm.holders(p), 1u);
    tx.commit();
    EXPECT_EQ(sink.counts[p], 1);
    EXPECT_FALSE(lm.holds(7, p));
}

TEST(TransactionEdgeTest, UpgradeMarksPredicateWritten)
{
    crs::LockManager lm;
    CountingSink sink;
    const term::PredicateId p{4, 1};
    crs::Transaction co(lm, 1);
    ASSERT_TRUE(co.acquire(p, crs::LockKind::Shared));
    crs::Transaction tx(lm, 2, &sink);
    ASSERT_TRUE(tx.acquire(p, crs::LockKind::Shared));
    // A co-sharer blocks the upgrade and must not corrupt the held
    // record: tx still reads as a plain sharer.
    EXPECT_FALSE(tx.upgrade(p));
    co.commit();
    // Now the sole sharer; the upgrade succeeds and is idempotent.
    EXPECT_TRUE(tx.upgrade(p));
    EXPECT_TRUE(tx.upgrade(p));
    tx.commit();
    EXPECT_EQ(sink.counts[p], 1);
    EXPECT_EQ(lm.holders(p), 0u);
}

TEST(TransactionEdgeTest, FailedAcquireAllKeepsPriorLocks)
{
    crs::LockManager lm;
    const term::PredicateId a{1, 1};
    const term::PredicateId b{2, 1};
    const term::PredicateId c{3, 1};
    crs::Transaction blocker(lm, 1);
    ASSERT_TRUE(blocker.acquire(b, crs::LockKind::Exclusive));
    crs::Transaction tx(lm, 2);
    ASSERT_TRUE(tx.acquire(a, crs::LockKind::Shared));
    // The batch sorts to {a, b, c} and fails at b.  Only locks the
    // call newly created may be rolled back — `a` predates it.
    EXPECT_FALSE(tx.acquireAll({c, b, a}, crs::LockKind::Shared));
    EXPECT_TRUE(lm.holds(2, a));
    EXPECT_FALSE(lm.holds(2, c));
    tx.commit();
    EXPECT_EQ(lm.holders(a), 0u);
    blocker.abort();
    EXPECT_EQ(lm.holders(b), 0u);
}

TEST(TransactionEdgeTest, FailedAcquireAllDowngradesInPlaceUpgrades)
{
    crs::LockManager lm;
    CountingSink sink;
    const term::PredicateId a{1, 1};
    const term::PredicateId b{2, 1};
    crs::Transaction blocker(lm, 1);
    ASSERT_TRUE(blocker.acquire(b, crs::LockKind::Exclusive));
    crs::Transaction tx(lm, 2, &sink);
    ASSERT_TRUE(tx.acquire(a, crs::LockKind::Shared));
    // The batch sorts to {a, b}: `a` is strengthened in place to
    // exclusive, then `b` conflicts.  Rollback must restore `a` to
    // Shared, not leave it escalated.
    EXPECT_FALSE(tx.acquireAll({a, b}, crs::LockKind::Exclusive));
    EXPECT_EQ(lm.heldKind(2, a), crs::LockKind::Shared);
    // The proof of the downgrade: a co-sharer can join again (an
    // escalated lock would refuse), and an exclusive grab cannot.
    crs::Transaction sharer(lm, 3);
    EXPECT_TRUE(sharer.acquire(a, crs::LockKind::Shared));
    EXPECT_FALSE(lm.acquire(4, a, crs::LockKind::Exclusive));
    sharer.abort();
    // And the held record kept its pre-call strength: commit must not
    // treat `a` as written.
    tx.commit();
    EXPECT_TRUE(sink.counts.empty());
    EXPECT_EQ(lm.holders(a), 0u);
    blocker.abort();
}

TEST(TransactionEdgeTest, DestructorAbortNeverInvalidates)
{
    crs::LockManager lm;
    CountingSink sink;
    const term::PredicateId p{5, 2};
    {
        crs::Transaction tx(lm, 9, &sink);
        ASSERT_TRUE(tx.acquire(p, crs::LockKind::Exclusive));
    }
    EXPECT_TRUE(sink.counts.empty());
    EXPECT_EQ(lm.holders(p), 0u);
}

// ---------------------------------------------------------------------
// Live-update interleaving: a writer thread streams single-clause
// assertz commits through a LiveStore while reader threads hammer
// serveBatch() on the same server.  Reads pinned at snapshot 0 must be
// bit-identical (answers AND modeled ticks) to the reference captured
// before the writer started, at any worker count; unpinned head reads
// may only grow (the stream is assertz-only) and must equal a quiesced
// from-scratch rebuild once the writer joins.
// ---------------------------------------------------------------------

TEST(LiveInterleavingTest, SnapshotReadsAreIsolatedFromAStreamingWriter)
{
    constexpr const char *kLiveBase =
        "edge(a, b). edge(b, c). edge(a, a). edge(c, d). edge(d, a).\n"
        "link(a, b, c). link(b, c, d).\n";
    const std::vector<std::string> goal_texts = {
        "edge(a, X)", "edge(X, Y)", "edge(X, d)", "link(a, X, Y)"};
    constexpr int kStream = 24;

    for (std::uint32_t workers : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        term::SymbolTable sym;
        term::TermReader reader(sym);

        auto build = [&](const std::string &text) {
            term::Program program;
            for (auto &c : reader.parseProgram(text))
                program.add(std::move(c));
            auto store = std::make_unique<crs::PredicateStore>(
                sym, scw::CodewordGenerator{});
            store->addProgram(program);
            store->finalize();
            return store;
        };
        auto store = build(kLiveBase);

        const std::string wal_path =
            ::testing::TempDir() + "live_interleave_" +
            std::to_string(workers) + ".wal";
        std::remove(wal_path.c_str());
        crs::LiveStore live(*store, sym, wal_path);

        crs::CrsConfig config;
        config.workers = workers;
        crs::ClauseRetrievalServer server(sym, *store, config);
        live.attachSink(&server);

        // Pre-parse every clause the writer will stream; the text also
        // feeds the from-scratch rebuild below.
        std::vector<term::Clause> stream;
        std::string streamed_text;
        for (int i = 0; i < kStream; ++i) {
            std::string text = "edge(w" + std::to_string(i) + ", w" +
                               std::to_string(i + 1) + ").";
            stream.push_back(reader.parseClause(text));
            streamed_text += text + "\n";
        }

        std::vector<term::ParsedTerm> goals;
        for (const std::string &text : goal_texts)
            goals.push_back(reader.parseTerm(text));
        std::vector<crs::RetrievalRequest> pinned;
        std::vector<crs::RetrievalRequest> head;
        for (std::size_t i = 0; i < goals.size(); ++i) {
            crs::RetrievalRequest r;
            r.arena = &goals[i].arena;
            r.goal = goals[i].root;
            r.mode = (i % 2 == 0) ? crs::SearchMode::TwoStage
                                  : crs::SearchMode::Fs1Only;
            head.push_back(r);
            r.snapshot = 0;
            pinned.push_back(r);
        }

        // Reference captured while quiesced, before the first commit.
        const std::vector<crs::RetrievalResponse> expected =
            server.serveBatch(pinned);
        ASSERT_EQ(expected.size(), pinned.size());

        std::atomic<bool> done{false};
        std::thread writer([&] {
            for (const term::Clause &clause : stream)
                live.assertz(clause);
            done.store(true, std::memory_order_release);
        });

        // Pinned reader: every batch must be bit-identical to the
        // pre-write reference no matter what the writer publishes.
        std::thread snap_reader([&] {
            do {
                std::vector<crs::RetrievalResponse> got =
                    server.serveBatch(pinned);
                ASSERT_EQ(got.size(), expected.size());
                for (std::size_t i = 0; i < got.size(); ++i) {
                    EXPECT_EQ(got[i].mode, expected[i].mode) << i;
                    EXPECT_EQ(got[i].candidates, expected[i].candidates)
                        << "goal " << i;
                    EXPECT_EQ(got[i].answers, expected[i].answers)
                        << "goal " << i;
                    EXPECT_EQ(got[i].indexEntriesScanned,
                              expected[i].indexEntriesScanned)
                        << "goal " << i;
                    EXPECT_EQ(got[i].elapsed, expected[i].elapsed)
                        << "goal " << i;
                }
            } while (!done.load(std::memory_order_acquire));
        });

        // Head reader: unpinned batches race the writer; with an
        // assertz-only stream the all-variables scan can only grow.
        std::thread head_reader([&] {
            do {
                std::vector<crs::RetrievalResponse> got =
                    server.serveBatch(head);
                ASSERT_EQ(got.size(), expected.size());
                for (std::size_t i = 0; i < got.size(); ++i) {
                    EXPECT_GE(got[i].answers, expected[i].answers)
                        << "goal " << i;
                }
            } while (!done.load(std::memory_order_acquire));
        });

        writer.join();
        snap_reader.join();
        head_reader.join();
        EXPECT_EQ(store->headGeneration(),
                  static_cast<std::uint64_t>(kStream));

        // Quiesced: the pinned view still reads pre-write...
        std::vector<crs::RetrievalResponse> still =
            server.serveBatch(pinned);
        for (std::size_t i = 0; i < still.size(); ++i) {
            EXPECT_EQ(still[i].answers, expected[i].answers) << i;
            EXPECT_EQ(still[i].elapsed, expected[i].elapsed) << i;
        }

        // ...and the head view is bit-identical to a from-scratch
        // rebuild of base + stream (shared symbol table, so signatures
        // and modeled ticks must match exactly).
        auto rebuilt = build(kLiveBase + streamed_text);
        crs::ClauseRetrievalServer ref_server(sym, *rebuilt, config);
        std::vector<crs::RetrievalResponse> live_head =
            server.serveBatch(head);
        std::vector<crs::RetrievalResponse> ref_head =
            ref_server.serveBatch(head);
        ASSERT_EQ(live_head.size(), ref_head.size());
        for (std::size_t i = 0; i < live_head.size(); ++i) {
            EXPECT_EQ(live_head[i].candidates, ref_head[i].candidates)
                << "goal " << i;
            EXPECT_EQ(live_head[i].answers, ref_head[i].answers)
                << "goal " << i;
            EXPECT_EQ(live_head[i].indexEntriesScanned,
                      ref_head[i].indexEntriesScanned)
                << "goal " << i;
            EXPECT_EQ(live_head[i].elapsed, ref_head[i].elapsed)
                << "goal " << i;
        }
        std::remove(wal_path.c_str());
    }
}

// ---------------------------------------------------------------------
// Symbol interning under concurrency.  Cold serving parses stored
// clause text through the shared SymbolTable while a live commit
// interns fresh atoms on the writer thread.
// ---------------------------------------------------------------------

TEST(SymbolTableConcurrencyTest, ConcurrentInternsAgreeAndNamesStayPut)
{
    term::SymbolTable sym;
    const std::string *nil = &sym.name(term::SymbolTable::kNil);
    constexpr int kThreads = 4;
    constexpr int kNames = 400;
    std::vector<std::vector<term::SymbolId>> ids(
        kThreads, std::vector<term::SymbolId>(kNames));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Each thread walks the names in its own order.
            for (int k = 0; k < kNames; ++k) {
                int i = (k * 7 + t * 101) % kNames;
                std::string name = "s" + std::to_string(i);
                ids[t][i] = sym.intern(name);
                EXPECT_EQ(sym.name(ids[t][i]), name);
                EXPECT_EQ(sym.lookup(name), ids[t][i]);
                sym.internFloat(static_cast<double>(i) / 4.0);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(ids[t], ids[0]) << "thread " << t;
    EXPECT_EQ(sym.atomCount(), 2u + kNames);
    EXPECT_EQ(sym.floatCount(), static_cast<std::size_t>(kNames));
    EXPECT_EQ(&sym.name(term::SymbolTable::kNil), nil)
        << "interned names never move";
}

TEST(LiveInterleavingTest, ColdServingRacesAWriterInterningFreshAtoms)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    workload::KbSpec spec;
    spec.predicates = 3;
    spec.clausesPerPredicate = 150;
    spec.arityMin = spec.arityMax = 2;
    spec.varProb = 0.1;
    spec.seed = 41;
    workload::KbGenerator kbgen(sym);
    term::Program program = kbgen.generate(spec);
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();

    const std::string wal_path =
        ::testing::TempDir() + "cold_serving_intern.wal";
    std::remove(wal_path.c_str());
    crs::LiveStore live(store, sym, wal_path);
    crs::CrsConfig config;
    config.workers = 4;
    crs::ClauseRetrievalServer server(sym, store, config);
    live.attachSink(&server);

    // All-variable goals make every stored head a candidate, so the
    // cold first batch parses the whole store.
    std::vector<std::string> pred_names;
    std::vector<term::ParsedTerm> goals;
    for (const term::PredicateId &pred : program.predicates()) {
        pred_names.push_back(sym.name(pred.functor));
        goals.push_back(reader.parseTerm(pred_names.back() + "(X, Y)"));
        goals.push_back(reader.parseTerm(pred_names.back() + "(X, X)"));
    }
    std::vector<crs::RetrievalRequest> batch;
    for (std::size_t i = 0; i < goals.size(); ++i) {
        crs::RetrievalRequest r;
        r.arena = &goals[i].arena;
        r.goal = goals[i].root;
        r.mode = (i % 2 == 0) ? crs::SearchMode::TwoStage
                              : crs::SearchMode::Fs1Only;
        batch.push_back(r);
    }

    constexpr int kCommits = 12;
    std::atomic<bool> done{false};
    std::thread writer([&] {
        // Parsing on this thread interns the fresh atoms; the commit
        // parses the text again before it publishes.
        for (int i = 0; i < kCommits; ++i)
            live.assertz(reader.parseClause(
                pred_names[i % pred_names.size()] + "(fresh_" +
                std::to_string(i) + ", also_" + std::to_string(i) + ")."));
        done.store(true, std::memory_order_release);
    });
    auto serve_until_done = [&] {
        do {
            std::vector<crs::RetrievalResponse> got =
                server.serveBatch(batch);
            ASSERT_EQ(got.size(), batch.size());
            for (std::size_t i = 0; i < got.size(); i += 2)
                EXPECT_EQ(got[i].answers.size(), got[i].candidates.size())
                    << "every head unifies with p(X, Y)";
        } while (!done.load(std::memory_order_acquire));
    };
    std::thread reader_a(serve_until_done);
    std::thread reader_b(serve_until_done);
    writer.join();
    reader_a.join();
    reader_b.join();

    // Quiesced: every answer set equals the parse-then-wouldUnify
    // oracle over the head version's clauses.
    std::vector<crs::RetrievalResponse> got = server.serveBatch(batch);
    for (std::size_t i = 0; i < goals.size(); ++i) {
        const crs::StoredPredicate &stored = store.predicate(
            term::PredicateId{goals[i].arena.functor(goals[i].root), 2});
        std::vector<std::uint32_t> expect;
        for (std::uint32_t c = 0; c < stored.clauses.clauseCount(); ++c)
            if (unify::wouldUnify(goals[i].arena, goals[i].root,
                                  reader.parseClause(
                                      stored.clauses.sourceText(c))))
                expect.push_back(c);
        EXPECT_EQ(got[i].answers, expect) << "goal " << i;
    }
    EXPECT_NE(sym.lookup("fresh_" + std::to_string(kCommits - 1)),
              term::kNoSymbol);
    std::remove(wal_path.c_str());
}

} // namespace
} // namespace clare
