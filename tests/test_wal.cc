/**
 * @file
 * WAL and live-update tests: the write-ahead log's framing and
 * torn-tail recovery (truncation and bit-flip fuzz), MVCC snapshot
 * visibility, the delta-plane-vs-full-rebuild exactness oracle
 * (answers AND modeled ticks), byte-granular crash kill-point fuzzers
 * through commit and checkpoint, and the CURRENT checkpoint
 * round-trip.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "crs/live_update.hh"
#include "crs/server.hh"
#include "crs/store.hh"
#include "crs/store_io.hh"
#include "storage/wal.hh"
#include "support/errors.hh"
#include "support/fault_injector.hh"
#include "term/term_reader.hh"

namespace clare::crs {
namespace {

namespace fs = std::filesystem;

/** Self-deleting scratch directory. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "clare-wal-XXXXXX").string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (::mkdtemp(buf.data()) == nullptr)
            throw IoError(tmpl, "mkdtemp failed");
        path = buf.data();
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

std::unique_ptr<PredicateStore>
makeStore(const term::SymbolTable &sym, term::TermReader &reader,
          const std::string &text)
{
    term::Program program;
    for (auto &c : reader.parseProgram(text))
        program.add(std::move(c));
    auto store = std::make_unique<PredicateStore>(
        sym, scw::CodewordGenerator{});
    store->addProgram(program);
    store->finalize();
    return store;
}

RetrievalResponse
serveOn(ClauseRetrievalServer &server, term::TermReader &reader,
        const std::string &goal_text, SearchMode mode,
        std::optional<std::uint64_t> snapshot = {})
{
    term::ParsedTerm goal = reader.parseTerm(goal_text);
    RetrievalRequest request;
    request.arena = &goal.arena;
    request.goal = goal.root;
    request.mode = mode;
    request.snapshot = snapshot;
    return server.serve(request);
}

/** Bit-identity across the whole response: answers AND modeled time. */
void
expectSameResponse(const RetrievalResponse &a, const RetrievalResponse &b,
                   const std::string &what)
{
    EXPECT_EQ(a.mode, b.mode) << what;
    EXPECT_EQ(a.candidates, b.candidates) << what;
    EXPECT_EQ(a.answers, b.answers) << what;
    EXPECT_EQ(a.indexEntriesScanned, b.indexEntriesScanned) << what;
    EXPECT_EQ(a.fs1Hits, b.fs1Hits) << what;
    EXPECT_EQ(a.clausesExamined, b.clausesExamined) << what;
    EXPECT_EQ(a.filterOps, b.filterOps) << what;
    EXPECT_EQ(a.breakdown.queueWait, b.breakdown.queueWait) << what;
    EXPECT_EQ(a.breakdown.cacheTime, b.breakdown.cacheTime) << what;
    EXPECT_EQ(a.breakdown.indexTime, b.breakdown.indexTime) << what;
    EXPECT_EQ(a.breakdown.filterTime, b.breakdown.filterTime) << what;
    EXPECT_EQ(a.breakdown.hostUnifyTime, b.breakdown.hostUnifyTime)
        << what;
    EXPECT_EQ(a.elapsed, b.elapsed) << what;
    EXPECT_EQ(a.degraded, b.degraded) << what;
}

constexpr SearchMode kAllModes[] = {
    SearchMode::SoftwareOnly, SearchMode::Fs1Only, SearchMode::Fs2Only,
    SearchMode::TwoStage};

const char *const kBaseProgram =
    "edge(a, b).\n"
    "edge(b, c).\n"
    "edge(a, a).\n"
    "edge(c, d).\n"
    "edge(d, a).\n"
    "link(a, b, c).\n"
    "link(b, c, d).\n";

const char *const kOracleQueries[] = {
    "edge(a, X)", "edge(X, Y)", "edge(X, d)", "edge(f, f)",
    "link(a, X, Y)"};

// ---------------------------------------------------------------------
// Wal framing and recovery
// ---------------------------------------------------------------------

TEST(Wal, RoundTripAndLsns)
{
    TempDir dir;
    const std::string path = dir.path + "/wal.log";
    {
        storage::Wal w(path);
        EXPECT_EQ(w.baseLsn(), 0u);
        EXPECT_EQ(w.tailLsn(), 0u);
        EXPECT_EQ(w.append(storage::Wal::RecordKind::Assert, {1, 2, 3}),
                  0u);
        w.commit();
        w.append(storage::Wal::RecordKind::Retract, {9});
        w.append(storage::Wal::RecordKind::Assert, {});
        w.commit();
    }
    storage::Wal r(path);
    EXPECT_EQ(r.truncatedBytes(), 0u);
    ASSERT_EQ(r.recovered().size(), 5u);
    using K = storage::Wal::RecordKind;
    const K kinds[] = {K::Assert, K::Commit, K::Retract, K::Assert,
                       K::Commit};
    std::uint64_t prev_lsn = 0;
    for (std::size_t i = 0; i < r.recovered().size(); ++i) {
        EXPECT_EQ(r.recovered()[i].kind, kinds[i]) << i;
        if (i > 0) {
            EXPECT_GT(r.recovered()[i].lsn, prev_lsn) << i;
        }
        prev_lsn = r.recovered()[i].lsn;
    }
    EXPECT_EQ(r.recovered()[0].payload,
              (std::vector<std::uint8_t>{1, 2, 3}));
    EXPECT_EQ(r.recovered()[2].payload, (std::vector<std::uint8_t>{9}));
    // The next LSN continues from the durable tail.
    EXPECT_EQ(r.tailLsn(), fs::file_size(path) - storage::kWalHeaderBytes);
}

TEST(Wal, BufferedRecordsDieWithTheProcess)
{
    TempDir dir;
    const std::string path = dir.path + "/wal.log";
    {
        storage::Wal w(path);
        w.append(storage::Wal::RecordKind::Assert, {1});
        w.commit();
        // Appended but never synced: must not survive.
        w.append(storage::Wal::RecordKind::Assert, {2});
    }
    storage::Wal r(path);
    EXPECT_EQ(r.recovered().size(), 2u);
    EXPECT_EQ(r.truncatedBytes(), 0u);
}

TEST(Wal, SyncedButUncommittedTailIsDiscarded)
{
    TempDir dir;
    const std::string path = dir.path + "/wal.log";
    {
        storage::Wal w(path);
        w.append(storage::Wal::RecordKind::Assert, {1});
        w.commit();
        w.append(storage::Wal::RecordKind::Assert, {2});
        w.sync(); // durable, but no commit boundary
    }
    storage::Wal r(path);
    EXPECT_EQ(r.recovered().size(), 2u);
    EXPECT_GT(r.truncatedBytes(), 0u);
    // Recovery truncated the file; a re-open is clean.
    storage::Wal r2(path);
    EXPECT_EQ(r2.recovered().size(), 2u);
    EXPECT_EQ(r2.truncatedBytes(), 0u);
}

TEST(Wal, PartialHeaderRecoversToEmptyLog)
{
    TempDir dir;
    const std::string path = dir.path + "/wal.log";
    writeFileBytes(path, {0x43, 0x4c, 0x57});
    storage::Wal w(path);
    EXPECT_TRUE(w.recovered().empty());
    EXPECT_EQ(w.truncatedBytes(), 3u);
    EXPECT_EQ(fs::file_size(path), storage::kWalHeaderBytes);
}

TEST(Wal, DamagedHeaderIsTypedCorruption)
{
    TempDir dir;
    const std::string path = dir.path + "/wal.log";
    {
        storage::Wal w(path);
        w.append(storage::Wal::RecordKind::Assert, {1});
        w.commit();
    }
    const std::vector<std::uint8_t> pristine = readFileBytes(path);
    for (std::size_t at : {std::size_t{0}, std::size_t{4},
                           std::size_t{8}, std::size_t{16},
                           std::size_t{19}}) {
        std::vector<std::uint8_t> bad = pristine;
        bad[at] ^= 0x40;
        writeFileBytes(path, bad);
        EXPECT_THROW(storage::Wal w(path), CorruptionError)
            << "header byte " << at;
    }
}

/**
 * Torn-tail truncation fuzz: cut the log at EVERY byte.  Recovery must
 * always succeed (never abort, never mis-answer) and must recover
 * exactly the commits wholly contained in the prefix.
 */
TEST(Wal, TruncationFuzzRecoversToLastCommit)
{
    TempDir dir;
    const std::string path = dir.path + "/wal.log";
    {
        storage::Wal w(path);
        w.append(storage::Wal::RecordKind::Assert, {1, 2, 3, 4});
        w.append(storage::Wal::RecordKind::Assert, {5});
        w.commit();
        w.append(storage::Wal::RecordKind::Retract, {6, 7});
        w.commit();
        w.append(storage::Wal::RecordKind::Assert, {8, 9, 10});
        w.commit();
    }
    const std::vector<std::uint8_t> pristine = readFileBytes(path);
    std::vector<storage::Wal::Record> full;
    {
        storage::Wal w(path);
        full = w.recovered();
    }
    ASSERT_EQ(full.size(), 7u);

    // End offset of record i in the file: the next record's start (its
    // LSN is its start offset past the header) or the file size.
    auto recordEnd = [&](std::size_t i) {
        return i + 1 < full.size()
            ? storage::kWalHeaderBytes + full[i + 1].lsn
            : pristine.size();
    };

    const std::string cutPath = dir.path + "/cut.log";
    for (std::size_t cut = 0; cut <= pristine.size(); ++cut) {
        writeFileBytes(cutPath,
                       std::vector<std::uint8_t>(
                           pristine.begin(),
                           pristine.begin() +
                               static_cast<std::ptrdiff_t>(cut)));
        if (cut < storage::kWalHeaderBytes) {
            storage::Wal w(cutPath);
            EXPECT_TRUE(w.recovered().empty()) << "cut " << cut;
            continue;
        }
        // Records surviving: the longest prefix ending at a Commit
        // record wholly inside the cut.
        std::size_t expect = 0;
        for (std::size_t i = 0; i < full.size(); ++i)
            if (full[i].kind == storage::Wal::RecordKind::Commit &&
                recordEnd(i) <= cut)
                expect = i + 1;
        storage::Wal w(cutPath);
        ASSERT_EQ(w.recovered().size(), expect) << "cut " << cut;
        for (std::size_t i = 0; i < expect; ++i) {
            EXPECT_EQ(w.recovered()[i].kind, full[i].kind);
            EXPECT_EQ(w.recovered()[i].lsn, full[i].lsn);
            EXPECT_EQ(w.recovered()[i].payload, full[i].payload);
        }
    }
}

/**
 * Bit-flip fuzz: flip one bit at every byte.  A header flip is typed
 * corruption; any body flip recovers a commit-bounded *prefix* of the
 * pristine records — never garbage, never an abort.
 */
TEST(Wal, BitFlipFuzzRecoversAPrefix)
{
    TempDir dir;
    const std::string path = dir.path + "/wal.log";
    {
        storage::Wal w(path);
        w.append(storage::Wal::RecordKind::Assert, {1, 2, 3, 4});
        w.commit();
        w.append(storage::Wal::RecordKind::Retract, {5, 6});
        w.append(storage::Wal::RecordKind::Assert, {7});
        w.commit();
    }
    const std::vector<std::uint8_t> pristine = readFileBytes(path);
    std::vector<storage::Wal::Record> full;
    {
        storage::Wal w(path);
        full = w.recovered();
    }

    const std::string flipPath = dir.path + "/flip.log";
    for (std::size_t at = 0; at < pristine.size(); ++at) {
        for (std::uint8_t bit : {0, 7}) {
            std::vector<std::uint8_t> bad = pristine;
            bad[at] ^= static_cast<std::uint8_t>(1u << bit);
            writeFileBytes(flipPath, bad);
            if (at < storage::kWalHeaderBytes) {
                EXPECT_THROW(storage::Wal w(flipPath), CorruptionError)
                    << "header byte " << at;
                continue;
            }
            storage::Wal w(flipPath);
            ASSERT_LE(w.recovered().size(), full.size())
                << "byte " << at;
            // Whatever survived is a prefix, ending at a boundary.
            for (std::size_t i = 0; i < w.recovered().size(); ++i) {
                EXPECT_EQ(w.recovered()[i].kind, full[i].kind)
                    << "byte " << at;
                EXPECT_EQ(w.recovered()[i].payload, full[i].payload)
                    << "byte " << at;
            }
            if (!w.recovered().empty()) {
                EXPECT_EQ(w.recovered().back().kind,
                          storage::Wal::RecordKind::Commit)
                    << "byte " << at;
            }
        }
    }
}

// ---------------------------------------------------------------------
// MVCC snapshot visibility
// ---------------------------------------------------------------------

TEST(LiveUpdate, SnapshotReadersPinOldGenerations)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    TempDir dir;
    auto store = makeStore(sym, reader, kBaseProgram);
    LiveStore live(*store, sym, dir.path + "/wal.log");
    ClauseRetrievalServer server(sym, *store);

    const term::PredicateId edge{sym.lookup("edge"), 2};
    RetrievalResponse pre =
        serveOn(server, reader, "edge(X, Y)", SearchMode::TwoStage);
    std::shared_ptr<const StoredPredicate> pinned =
        store->predicateVersion(edge);
    ASSERT_NE(pinned, nullptr);
    EXPECT_EQ(pinned->generation, 0u);

    std::uint64_t gen =
        live.assertz(reader.parseClause("edge(z, z)."));
    EXPECT_EQ(gen, 1u);
    EXPECT_EQ(store->headGeneration(), 1u);

    // The pinned version is untouched by the commit.
    EXPECT_EQ(pinned->clauses.clauseCount(), 5u);
    EXPECT_EQ(store->predicateVersion(edge)->clauses.clauseCount(), 6u);
    EXPECT_EQ(store->predicateVersion(edge)->generation, 1u);
    EXPECT_EQ(store->predicateVersion(edge, 0)->generation, 0u);
    // A future-generation snapshot resolves to the head.
    EXPECT_EQ(store->predicateVersion(edge, 99)->generation, 1u);

    // Snapshot reads are bit-identical to the quiesced pre-state.
    RetrievalResponse snap = serveOn(server, reader, "edge(X, Y)",
                                     SearchMode::TwoStage, 0);
    expectSameResponse(snap, pre, "snapshot@0 vs pre-commit");
    // The head sees the new clause.
    RetrievalResponse head =
        serveOn(server, reader, "edge(X, Y)", SearchMode::TwoStage);
    EXPECT_EQ(head.answers.size(), pre.answers.size() + 1);
}

TEST(LiveUpdate, BrandNewPredicateGetsAFullPlane)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    TempDir dir;
    auto store = makeStore(sym, reader, kBaseProgram);
    LiveStore live(*store, sym, dir.path + "/wal.log");
    live.assertz(reader.parseClause("fresh(a)."));
    const term::PredicateId p{sym.lookup("fresh"), 1};
    ASSERT_TRUE(store->has(p));
    auto v = store->predicateVersion(p);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->clauses.clauseCount(), 1u);
    // A predicate born after generation 0 has no gen-0 version.
    EXPECT_EQ(store->predicateVersion(p, 0), nullptr);
    ASSERT_NE(v->sliced, nullptr);
    EXPECT_EQ(v->sliced->entryCount(), 1u);
    EXPECT_EQ(v->deltaSliced, nullptr);

    ClauseRetrievalServer server(sym, *store);
    RetrievalResponse r = serveOn(server, reader, "fresh(X)",
                                  SearchMode::TwoStage);
    EXPECT_EQ(r.answers, (std::vector<std::uint32_t>{0}));
}

// ---------------------------------------------------------------------
// Delta plane vs full rebuild (the exactness oracle)
// ---------------------------------------------------------------------

TEST(LiveUpdate, AssertzDeltaIsBitIdenticalToRebuild)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    TempDir dir;
    auto live_store = makeStore(sym, reader, kBaseProgram);
    LiveStore live(*live_store, sym, dir.path + "/wal.log");
    ClauseRetrievalServer live_server(sym, *live_store);

    // Two commits: one single assertz, one multi-op transaction.
    live.assertz(reader.parseClause("edge(a, e)."));
    {
        LiveStore::Update txn = live.begin();
        txn.assertz(reader.parseClause("edge(e, b)."));
        txn.assertz(reader.parseClause("edge(f, f)."));
        txn.commit();
    }

    const std::string rebuilt_text = std::string(kBaseProgram) +
        "edge(a, e).\nedge(e, b).\nedge(f, f).\n";
    auto ref_store = makeStore(sym, reader, rebuilt_text);
    ClauseRetrievalServer ref_server(sym, *ref_store);

    const term::PredicateId edge{sym.lookup("edge"), 2};
    auto v = live_store->predicateVersion(edge);
    ASSERT_NE(v, nullptr);
    // Composite images are byte-identical to the from-scratch build.
    EXPECT_EQ(v->index.image(), ref_store->predicate(edge).index.image());
    ASSERT_EQ(v->clauses.clauseCount(), 8u);
    for (std::size_t i = 0; i < v->clauses.clauseCount(); ++i)
        EXPECT_EQ(v->clauses.sourceText(i),
                  ref_store->predicate(edge).clauses.sourceText(i));
    // The base plane is shared; only the tail got a delta.
    ASSERT_NE(v->deltaSliced, nullptr);
    EXPECT_EQ(v->baseEntries, 5u);
    EXPECT_EQ(v->sliced->entryCount(), 5u);
    EXPECT_EQ(v->deltaSliced->entryCount(), 3u);

    for (const char *goal : kOracleQueries)
        for (SearchMode mode : kAllModes) {
            RetrievalResponse a =
                serveOn(live_server, reader, goal, mode);
            RetrievalResponse b =
                serveOn(ref_server, reader, goal, mode);
            expectSameResponse(
                a, b,
                std::string(goal) + " " + searchModeName(mode));
        }

    // serveBatch over the delta-carrying store matches too.
    std::vector<term::ParsedTerm> goals;
    for (const char *goal : kOracleQueries)
        goals.push_back(reader.parseTerm(goal));
    std::vector<RetrievalRequest> batch;
    for (const term::ParsedTerm &g : goals) {
        RetrievalRequest request;
        request.arena = &g.arena;
        request.goal = g.root;
        request.mode = SearchMode::TwoStage;
        batch.push_back(request);
    }
    std::vector<RetrievalResponse> live_batch =
        live_server.serveBatch(batch);
    std::vector<RetrievalResponse> ref_batch =
        ref_server.serveBatch(batch);
    ASSERT_EQ(live_batch.size(), ref_batch.size());
    for (std::size_t i = 0; i < live_batch.size(); ++i)
        expectSameResponse(live_batch[i], ref_batch[i],
                           "batch " + std::string(kOracleQueries[i]));
}

TEST(LiveUpdate, CompactionIsBitIdenticalToRebuild)
{
    const char *const base =
        "item(a, 1).\n"
        "item(b, 2).\n"
        "item(c, 3).\n"
        "item(d, 4).\n";
    term::SymbolTable sym;
    term::TermReader reader(sym);
    TempDir dir;
    auto live_store = makeStore(sym, reader, base);
    LiveStore live(*live_store, sym, dir.path + "/wal.log");
    ClauseRetrievalServer live_server(sym, *live_store);

    // First grow a delta, then force a compaction that folds it.
    live.assertz(reader.parseClause("item(e, 5)."));
    {
        LiveStore::Update txn = live.begin();
        txn.asserta(reader.parseClause("item(z, 0)."));
        term::ParsedTerm pat = reader.parseTerm("item(b, 2)");
        EXPECT_TRUE(txn.retract(pat.arena, pat.root));
        txn.commit();
    }

    const char *const rebuilt_text =
        "item(z, 0).\n"
        "item(a, 1).\n"
        "item(c, 3).\n"
        "item(d, 4).\n"
        "item(e, 5).\n";
    auto ref_store = makeStore(sym, reader, rebuilt_text);
    ClauseRetrievalServer ref_server(sym, *ref_store);

    const term::PredicateId item{sym.lookup("item"), 2};
    auto v = live_store->predicateVersion(item);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->index.image(),
              ref_store->predicate(item).index.image());
    // Compaction folds the delta back into one full plane.
    EXPECT_EQ(v->deltaSliced, nullptr);
    EXPECT_EQ(v->baseEntries, 0u);
    ASSERT_NE(v->sliced, nullptr);
    EXPECT_EQ(v->sliced->entryCount(), v->index.entryCount());

    for (const char *goal : {"item(X, Y)", "item(z, X)",
                             "item(b, X)", "item(X, 5)"})
        for (SearchMode mode : kAllModes)
            expectSameResponse(
                serveOn(live_server, reader, goal, mode),
                serveOn(ref_server, reader, goal, mode),
                std::string(goal) + " " + searchModeName(mode));
}

TEST(LiveUpdate, RetractConvenienceReportsMatch)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    TempDir dir;
    auto store = makeStore(sym, reader, kBaseProgram);
    LiveStore live(*store, sym, dir.path + "/wal.log");

    term::ParsedTerm hit = reader.parseTerm("edge(c, d)");
    std::optional<std::uint64_t> gen = live.retract(hit.arena, hit.root);
    ASSERT_TRUE(gen.has_value());
    EXPECT_EQ(*gen, 1u);

    term::ParsedTerm miss = reader.parseTerm("edge(q, q)");
    EXPECT_FALSE(live.retract(miss.arena, miss.root).has_value());
    // The failed retract published nothing and logged nothing.
    EXPECT_EQ(store->headGeneration(), 1u);

    const term::PredicateId edge{sym.lookup("edge"), 2};
    EXPECT_EQ(store->predicateVersion(edge)->clauses.clauseCount(), 4u);
}

// ---------------------------------------------------------------------
// Update transaction semantics
// ---------------------------------------------------------------------

struct CountingSink : CacheInvalidationSink
{
    std::map<term::PredicateId, int> counts;

    void
    invalidatePredicate(const term::PredicateId &pred) override
    {
        ++counts[pred];
    }
};

TEST(LiveUpdate, AbortAndEmptyCommitPublishNothing)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    TempDir dir;
    auto store = makeStore(sym, reader, kBaseProgram);
    LiveStore live(*store, sym, dir.path + "/wal.log");
    CountingSink sink;
    live.attachSink(&sink);

    const std::uint64_t tail_before = live.wal().tailLsn();
    {
        LiveStore::Update txn = live.begin();
        txn.assertz(reader.parseClause("edge(x, y)."));
        txn.abort();
    }
    {
        // Destruction of an un-committed transaction aborts it.
        LiveStore::Update txn = live.begin();
        txn.assertz(reader.parseClause("edge(x, y)."));
    }
    EXPECT_EQ(store->headGeneration(), 0u);
    EXPECT_EQ(live.wal().tailLsn(), tail_before);
    EXPECT_TRUE(sink.counts.empty());

    // An empty commit is a no-op returning the current generation.
    LiveStore::Update txn = live.begin();
    EXPECT_EQ(txn.commit(), 0u);
    EXPECT_EQ(live.wal().tailLsn(), tail_before);
}

TEST(LiveUpdate, MultiPredicateTransactionIsOneGeneration)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    TempDir dir;
    auto store = makeStore(sym, reader, kBaseProgram);
    LiveStore live(*store, sym, dir.path + "/wal.log");
    CountingSink sink;
    live.attachSink(&sink);

    LiveStore::Update txn = live.begin();
    txn.assertz(reader.parseClause("edge(p, q)."));
    txn.assertz(reader.parseClause("link(p, q, r)."));
    EXPECT_EQ(txn.commit(), 1u);
    EXPECT_EQ(store->headGeneration(), 1u);

    const term::PredicateId edge{sym.lookup("edge"), 2};
    const term::PredicateId link{sym.lookup("link"), 3};
    EXPECT_EQ(store->predicateVersion(edge)->generation, 1u);
    EXPECT_EQ(store->predicateVersion(link)->generation, 1u);
    // Exactly one invalidation per touched predicate, after publish.
    EXPECT_EQ(sink.counts[edge], 1);
    EXPECT_EQ(sink.counts[link], 1);
    EXPECT_EQ(sink.counts.size(), 2u);
}

// ---------------------------------------------------------------------
// Crash kill-point fuzzers
// ---------------------------------------------------------------------

/**
 * Kill the process (CrashError) at every byte of the commit's durable
 * write, then recover onto a fresh store.  The recovered state must be
 * exactly the pre-commit or the post-commit state — answers and ticks.
 */
TEST(WalKillPoints, CommitSweepRecoversPreOrPostState)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);

    auto pre_store = makeStore(sym, reader, kBaseProgram);
    ClauseRetrievalServer pre_server(sym, *pre_store);
    const std::string post_text = std::string(kBaseProgram) +
        "edge(a, e).\nedge(e, b).\n";
    auto post_store = makeStore(sym, reader, post_text);
    ClauseRetrievalServer post_server(sym, *post_store);

    RetrievalResponse pre_all =
        serveOn(pre_server, reader, "edge(X, Y)", SearchMode::TwoStage);
    RetrievalResponse pre_fs1 =
        serveOn(pre_server, reader, "edge(a, X)", SearchMode::Fs1Only);
    RetrievalResponse post_all =
        serveOn(post_server, reader, "edge(X, Y)", SearchMode::TwoStage);
    RetrievalResponse post_fs1 =
        serveOn(post_server, reader, "edge(a, X)", SearchMode::Fs1Only);

    std::size_t killed = 0;
    bool survived = false;
    for (std::uint64_t k = 0; !survived; ++k) {
        ASSERT_LT(k, 5000u) << "commit stream implausibly large";
        TempDir dir;
        const std::string wal_path = dir.path + "/wal.log";
        auto store = makeStore(sym, reader, kBaseProgram);
        support::FaultConfig config;
        config.killSite = "wal.commit";
        config.killAtByte = k;
        support::FaultInjector injector(config);
        bool crashed = false;
        {
            LiveStore live(*store, sym, wal_path, 0, &injector);
            try {
                LiveStore::Update txn = live.begin();
                txn.assertz(reader.parseClause("edge(a, e)."));
                txn.assertz(reader.parseClause("edge(e, b)."));
                txn.commit();
            } catch (const CrashError &) {
                crashed = true;
                ++killed;
            }
        }
        if (crashed) {
            // Nothing may have been published past the crash.
            EXPECT_EQ(store->headGeneration(), 0u) << "k=" << k;
            // The armed site reports its trigger (coverage contract).
            bool found = false;
            for (const support::SiteReport &s : injector.sites())
                if (s.site == "wal.commit") {
                    found = true;
                    EXPECT_GE(s.consulted, 1u);
                    EXPECT_EQ(s.triggered, 1u);
                }
            EXPECT_TRUE(found) << "k=" << k;
        }

        // Recover onto a fresh pre-commit store, no faults.
        auto rec_store = makeStore(sym, reader, kBaseProgram);
        LiveStore rec(*rec_store, sym, wal_path);
        ClauseRetrievalServer rec_server(sym, *rec_store);
        RetrievalResponse r_all = serveOn(rec_server, reader,
                                          "edge(X, Y)",
                                          SearchMode::TwoStage);
        RetrievalResponse r_fs1 = serveOn(rec_server, reader,
                                          "edge(a, X)",
                                          SearchMode::Fs1Only);
        if (crashed) {
            // A torn commit record can never replay.
            EXPECT_EQ(rec.recoveredCommits(), 0u) << "k=" << k;
            expectSameResponse(r_all, pre_all, "pre k=" +
                               std::to_string(k));
            expectSameResponse(r_fs1, pre_fs1, "pre k=" +
                               std::to_string(k));
        } else {
            survived = true;
            EXPECT_EQ(rec.recoveredCommits(), 1u) << "k=" << k;
            expectSameResponse(r_all, post_all, "post k=" +
                               std::to_string(k));
            expectSameResponse(r_fs1, post_fs1, "post k=" +
                               std::to_string(k));
        }
    }
    // The sweep must actually have exercised the kill point.
    EXPECT_GT(killed, 20u);
}

/**
 * Kill checkpoint at injector-chosen byte offsets through the store
 * files and the CURRENT flip ("checkpoint" site), and through the WAL
 * reset ("wal.checkpoint" site).  Recovery via openStore + replay must
 * always reconstruct the committed (post-commit) state: checkpoints
 * move bytes, never logical state.
 */
TEST(WalKillPoints, CheckpointSweepAlwaysRecoversCommittedState)
{
    term::SymbolTable ref_sym;
    term::TermReader ref_reader(ref_sym);
    const std::string post_text =
        std::string(kBaseProgram) + "edge(a, e).\n";
    auto post_store = makeStore(ref_sym, ref_reader, post_text);
    ClauseRetrievalServer post_server(ref_sym, *post_store);
    RetrievalResponse post_ref = serveOn(post_server, ref_reader,
                                         "edge(X, Y)",
                                         SearchMode::TwoStage);
    // Reference for the post-recovery commit made inside runOne.
    const std::string post2_text = post_text + "edge(e, b).\n";
    auto post2_store = makeStore(ref_sym, ref_reader, post2_text);
    ClauseRetrievalServer post2_server(ref_sym, *post2_store);
    RetrievalResponse post2_ref = serveOn(post2_server, ref_reader,
                                          "edge(X, Y)",
                                          SearchMode::TwoStage);

    auto runOne = [&](const std::string &site, std::uint64_t kill_at,
                      bool &crashed) {
        TempDir root;
        {
            term::SymbolTable s0;
            term::TermReader r0(s0);
            auto st = makeStore(s0, r0, kBaseProgram);
            saveStore(root.path, *st, s0);
        }
        term::SymbolTable sym;
        term::TermReader reader(sym);
        StoreWalInfo info;
        PredicateStore store = openStore(root.path, sym, &info);
        support::FaultConfig config;
        config.killSite = site;
        config.killAtByte = kill_at;
        support::FaultInjector injector(config);
        crashed = false;
        {
            LiveStore live(store, sym, root.path + "/wal.log",
                           info.appliedLsn, &injector);
            live.assertz(reader.parseClause("edge(a, e)."));
            try {
                live.checkpoint(root.path);
            } catch (const CrashError &) {
                crashed = true;
            }
        }

        // Recover: CURRENT-aware open + WAL replay from the watermark.
        term::SymbolTable rec_sym;
        term::TermReader rec_reader(rec_sym);
        StoreWalInfo rec_info;
        PredicateStore rec_store = openStore(root.path, rec_sym,
                                             &rec_info);
        LiveStore rec(rec_store, rec_sym, root.path + "/wal.log",
                      rec_info.appliedLsn);
        ClauseRetrievalServer rec_server(rec_sym, rec_store);
        RetrievalResponse r = serveOn(rec_server, rec_reader,
                                      "edge(X, Y)",
                                      SearchMode::TwoStage);
        expectSameResponse(r, post_ref,
                           site + " k=" + std::to_string(kill_at));
        EXPECT_LE(rec.recoveredCommits(), 1u);
        if (!crashed) {
            // A completed checkpoint replays nothing.
            EXPECT_TRUE(rec_info.present);
            EXPECT_EQ(rec.recoveredCommits(), 0u);
        }

        // Regression: a commit made *after* the first recovery must
        // survive the next recovery too.  A crash tearing the WAL
        // header during reset() used to leave baseLsn = 0 under a
        // manifest watermark of N, so this commit's LSNs fell below
        // the watermark and the second replay silently skipped it —
        // committed data lost with no error.
        rec.assertz(rec_reader.parseClause("edge(e, b)."));
        term::SymbolTable sym2;
        term::TermReader reader2(sym2);
        StoreWalInfo info2;
        PredicateStore store2 = openStore(root.path, sym2, &info2);
        LiveStore rec2(store2, sym2, root.path + "/wal.log",
                       info2.appliedLsn);
        EXPECT_GE(rec2.recoveredCommits(), 1u)
            << site << " k=" << kill_at;
        ClauseRetrievalServer server2(sym2, store2);
        expectSameResponse(
            serveOn(server2, reader2, "edge(X, Y)",
                    SearchMode::TwoStage),
            post2_ref,
            site + " post-recovery commit k=" + std::to_string(kill_at));
    };

    // Sweep the checkpoint file stream at a byte stride (the stream is
    // kilobytes; every single byte would cost nothing in coverage but
    // minutes in store rebuilds), always including the first bytes of
    // the stream and, implicitly, the CURRENT flip at its end.
    std::size_t killed = 0;
    bool survived = false;
    std::uint64_t k = 0;
    std::size_t iterations = 0;
    while (!survived) {
        ASSERT_LT(++iterations, 500u) << "checkpoint stream runaway";
        bool crashed = false;
        runOne("checkpoint", k, crashed);
        if (crashed)
            ++killed;
        else
            survived = true;
        k = k < 8 ? k + 1 : k + 127;
    }
    EXPECT_GT(killed, 10u);

    // The WAL reset is its own stream; its header is 20 bytes.  The
    // commit before it already wrote `commit_bytes`, so probe the
    // whole reset window beyond that.
    std::uint64_t commit_bytes = 0;
    {
        TempDir dir;
        term::SymbolTable sym;
        term::TermReader reader(sym);
        auto store = makeStore(sym, reader, kBaseProgram);
        LiveStore live(*store, sym, dir.path + "/wal.log");
        live.assertz(reader.parseClause("edge(a, e)."));
        commit_bytes = live.wal().tailLsn();
    }
    std::size_t reset_killed = 0;
    for (std::uint64_t off = 0; off < storage::kWalHeaderBytes; ++off) {
        bool crashed = false;
        runOne("wal.checkpoint", commit_bytes + off, crashed);
        EXPECT_TRUE(crashed) << "reset offset " << off;
        if (crashed)
            ++reset_killed;
    }
    EXPECT_EQ(reset_killed, storage::kWalHeaderBytes);
}

// ---------------------------------------------------------------------
// Checkpoint round-trip (no faults)
// ---------------------------------------------------------------------

TEST(LiveUpdate, CheckpointRoundTrip)
{
    TempDir root;
    {
        term::SymbolTable s0;
        term::TermReader r0(s0);
        auto st = makeStore(s0, r0, kBaseProgram);
        saveStore(root.path, *st, s0);
    }

    std::uint64_t applied = 0;
    {
        term::SymbolTable sym;
        term::TermReader reader(sym);
        StoreWalInfo info;
        PredicateStore store = openStore(root.path, sym, &info);
        EXPECT_FALSE(info.present);
        LiveStore live(store, sym, root.path + "/wal.log",
                       info.appliedLsn);
        live.assertz(reader.parseClause("edge(a, e)."));
        live.assertz(reader.parseClause("edge(e, b)."));
        live.checkpoint(root.path);
        applied = live.appliedLsn();
        EXPECT_GT(applied, 0u);
        EXPECT_TRUE(fs::exists(root.path + "/CURRENT"));
    }

    // Reopen: the checkpoint carries the state; the WAL is empty.
    term::SymbolTable sym;
    term::TermReader reader(sym);
    StoreWalInfo info;
    PredicateStore store = openStore(root.path, sym, &info);
    EXPECT_TRUE(info.present);
    EXPECT_EQ(info.appliedLsn, applied);
    LiveStore live(store, sym, root.path + "/wal.log", info.appliedLsn);
    EXPECT_EQ(live.recoveredCommits(), 0u);

    const term::PredicateId edge{sym.lookup("edge"), 2};
    const StoredPredicate &stored = store.predicate(edge);
    EXPECT_EQ(stored.clauses.clauseCount(), 7u);
    // The checkpoint folded the delta into one full plane.
    ASSERT_NE(stored.sliced, nullptr);
    EXPECT_EQ(stored.sliced->entryCount(), stored.index.entryCount());
    EXPECT_EQ(stored.deltaSliced, nullptr);

    // And the reopened store answers like a from-scratch build.
    term::SymbolTable ref_sym;
    term::TermReader ref_reader(ref_sym);
    const std::string post_text = std::string(kBaseProgram) +
        "edge(a, e).\nedge(e, b).\n";
    auto ref_store = makeStore(ref_sym, ref_reader, post_text);
    ClauseRetrievalServer ref_server(ref_sym, *ref_store);
    ClauseRetrievalServer server(sym, store);
    for (const char *goal : kOracleQueries)
        for (SearchMode mode : kAllModes)
            expectSameResponse(
                serveOn(server, reader, goal, mode),
                serveOn(ref_server, ref_reader, goal, mode),
                std::string(goal) + " " + searchModeName(mode));

    // Post-checkpoint commits replay on the next open.
    live.assertz(reader.parseClause("edge(g, g)."));
    term::SymbolTable sym2;
    StoreWalInfo info2;
    PredicateStore store2 = openStore(root.path, sym2, &info2);
    LiveStore live2(store2, sym2, root.path + "/wal.log",
                    info2.appliedLsn);
    EXPECT_EQ(live2.recoveredCommits(), 1u);
    EXPECT_EQ(store2.predicateVersion(
                  term::PredicateId{sym2.lookup("edge"), 2})
                  ->clauses.clauseCount(),
              8u);
}

} // namespace
} // namespace clare::crs
