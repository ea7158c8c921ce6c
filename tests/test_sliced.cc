/**
 * @file
 * The bit-sliced FS1 index plane (ctest label: sliced).
 *
 * The contract under test is exactness: the word-parallel plane scan
 * is the FS1 engine's only path, and every observable — survivor sets
 * (order included), entriesScanned, bytesScanned, busyTime, the full
 * server response — must be bit-identical to the row-major reference
 * scan (clare_oracle) at any shard count and across a live base +
 * delta split.  The suite property-tests the
 * SlicedMatcher on every supported kernel against the structural
 * PlaMatcher across generator configurations, mask densities, and
 * entry counts straddling 64-entry word boundaries; checks that every
 * store source (compiled, loaded v4 and v2, live-updated, checkpointed)
 * carries planes covering its index; round-trips the persisted v3
 * plane section; and checks that a corrupted plane is a typed load
 * error, never wrong survivors.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "crs/live_update.hh"
#include "crs/server.hh"
#include "crs/store.hh"
#include "crs/store_io.hh"
#include "fs1/fs1_engine.hh"
#include "fs1/sliced_matcher.hh"
#include "oracle/pla_matcher.hh"
#include "oracle/row_major_scan.hh"
#include "scw/bit_sliced_index.hh"
#include "storage/file_io.hh"
#include "support/errors.hh"
#include "support/thread_pool.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

namespace clare {
namespace {

/** One generated predicate compiled to all three index forms. */
struct BuiltIndex
{
    scw::CodewordGenerator generator;
    storage::ClauseFile file;
    scw::SecondaryFile index;
    scw::BitSlicedIndex plane;
    std::vector<scw::Signature> queries;
};

BuiltIndex
buildIndex(term::SymbolTable &sym, scw::ScwConfig scw_config,
           const workload::KbSpec &spec, std::size_t query_count,
           double bound_arg_prob)
{
    BuiltIndex out{scw::CodewordGenerator(scw_config), {}, {}, {}, {}};
    workload::KbGenerator kbgen(sym);
    term::Program program = kbgen.generate(spec);
    const auto &pred = program.predicates()[0];

    term::TermWriter writer(sym);
    storage::ClauseFileBuilder builder(writer);
    std::vector<scw::Signature> sigs;
    for (std::size_t i : program.clausesOf(pred)) {
        const term::Clause &c = program.clause(i);
        builder.add(c);
        sigs.push_back(out.generator.encode(c.arena(), c.head()));
    }
    out.file = builder.finish();
    out.index = scw::SecondaryFile::build(out.generator, sigs, out.file);
    out.plane = scw::BitSlicedIndex::build(out.generator, out.index);

    workload::QuerySpec qspec;
    qspec.boundArgProb = bound_arg_prob;
    qspec.seed = spec.seed + 1000;
    workload::QueryGenerator qgen(sym, qspec);
    for (std::size_t q = 0; q < query_count; ++q) {
        workload::GeneratedQuery gq = qgen.generate(program, pred);
        out.queries.push_back(out.generator.encode(gq.arena, gq.goal));
    }
    return out;
}

/** PlaMatcher survivors of @p query over @p range, in entry order. */
std::vector<scw::IndexEntry>
plaSurvivors(const BuiltIndex &built, const scw::Signature &query,
             const scw::EntryRange &range)
{
    fs1::PlaMatcher pla(built.generator);
    pla.setQuery(query);
    std::vector<scw::IndexEntry> hits;
    for (std::size_t i = range.begin; i < range.end; ++i) {
        scw::IndexEntry entry = built.index.entry(built.generator, i);
        if (pla.present(entry.signature))
            hits.push_back(std::move(entry));
    }
    return hits;
}

void
expectSameHits(const std::vector<scw::IndexEntry> &expected,
               const fs1::SlicedMatcher::Hits &got,
               const std::string &label)
{
    ASSERT_EQ(got.clauseOffsets.size(), expected.size()) << label;
    ASSERT_EQ(got.ordinals.size(), expected.size()) << label;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got.clauseOffsets[i], expected[i].clauseOffset)
            << label << " hit " << i;
        EXPECT_EQ(got.ordinals[i], expected[i].ordinal)
            << label << " hit " << i;
    }
}

// ---------------------------------------------------------------------
// SlicedMatcher vs PlaMatcher: the exactness property.
// ---------------------------------------------------------------------

TEST(SlicedMatcherTest, AgreesWithPlaAcrossConfigsAndMaskDensities)
{
    struct Case
    {
        std::uint32_t fieldBits;
        std::uint32_t bitsPerTerm;
        std::uint32_t arityMin, arityMax;
        std::uint32_t clauses;      // straddle 64-entry word boundaries
        double varProb;             // mask-plane density
    };
    const Case cases[] = {
        {16, 2, 1, 3, 63, 0.0},     // ground, just under one word
        {16, 2, 1, 3, 64, 0.15},    // exactly one word
        {16, 2, 2, 4, 65, 0.35},    // one word + 1 entry
        {8, 1, 1, 2, 130, 0.6},     // narrow fields, mask-heavy
        {32, 3, 2, 5, 200, 0.1},    // wide fields
        {16, 2, 10, 14, 90, 0.2},   // arity past the encoding limit
    };
    for (const Case &c : cases) {
        term::SymbolTable sym;
        scw::ScwConfig scw_config;
        scw_config.fieldBits = c.fieldBits;
        scw_config.bitsPerTerm = c.bitsPerTerm;
        workload::KbSpec spec;
        spec.predicates = 1;
        spec.clausesPerPredicate = c.clauses;
        spec.arityMin = c.arityMin;
        spec.arityMax = c.arityMax;
        spec.varProb = c.varProb;
        spec.structProb = 0.2;
        spec.seed = 7 + c.clauses;
        BuiltIndex built = buildIndex(sym, scw_config, spec, 6, 0.7);
        ASSERT_EQ(built.plane.entryCount(), built.index.entryCount());

        scw::EntryRange all{0, built.index.entryCount()};
        fs1::SlicedMatcher matcher;
        for (std::size_t q = 0; q < built.queries.size(); ++q) {
            std::string label = std::to_string(c.clauses) + " clauses, "
                + std::to_string(c.fieldBits) + " bits, query "
                + std::to_string(q);
            expectSameHits(
                plaSurvivors(built, built.queries[q], all),
                matcher.scanRange(built.plane, built.queries[q], all),
                label);
        }
    }
}

TEST(SlicedMatcherTest, PartialRangesAreEdgeMaskedExactly)
{
    term::SymbolTable sym;
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 150;
    spec.varProb = 0.25;
    spec.seed = 21;
    BuiltIndex built = buildIndex(sym, {}, spec, 3, 0.6);

    // Ranges deliberately misaligned with the 64-entry word grid,
    // including within-one-word and empty ranges.
    const scw::EntryRange ranges[] = {
        {0, 1},   {0, 63},  {1, 64},   {63, 65}, {64, 128},
        {65, 67}, {17, 93}, {100, 150}, {149, 150}, {70, 70},
    };
    fs1::SlicedMatcher matcher;
    for (const scw::EntryRange &range : ranges) {
        for (std::size_t q = 0; q < built.queries.size(); ++q) {
            std::string label = "range [" + std::to_string(range.begin) +
                ", " + std::to_string(range.end) + ") query " +
                std::to_string(q);
            expectSameHits(
                plaSurvivors(built, built.queries[q], range),
                matcher.scanRange(built.plane, built.queries[q], range),
                label);
        }
    }
}

// ---------------------------------------------------------------------
// Fs1Engine vs the row-major reference scan: shards and split.
// ---------------------------------------------------------------------

void
expectSameResult(const fs1::Fs1Result &a, const fs1::Fs1Result &b,
                 const std::string &label)
{
    EXPECT_EQ(a.clauseOffsets, b.clauseOffsets) << label;
    EXPECT_EQ(a.ordinals, b.ordinals) << label;
    EXPECT_EQ(a.entriesScanned, b.entriesScanned) << label;
    EXPECT_EQ(a.bytesScanned, b.bytesScanned) << label;
    EXPECT_EQ(a.busyTime, b.busyTime) << label;
}

/**
 * The plane of entries [begin, end) of @p built's index, built the way
 * a live commit builds its delta mini-plane: from the entry image, so
 * the entries keep their composite ordinals and clause offsets.
 */
scw::BitSlicedIndex
planeOf(const BuiltIndex &built, std::size_t begin, std::size_t end)
{
    const std::size_t entry_bytes = built.index.entryBytes();
    const auto &image = built.index.image();
    std::vector<std::uint8_t> part(
        image.begin() + static_cast<std::ptrdiff_t>(begin * entry_bytes),
        image.begin() + static_cast<std::ptrdiff_t>(end * entry_bytes));
    return scw::BitSlicedIndex::build(
        built.generator, scw::SecondaryFile::fromImage(
                             std::move(part), end - begin, entry_bytes));
}

TEST(Fs1EngineOracleTest, SearchMatchesRowMajorAtAnyShardCount)
{
    term::SymbolTable sym;
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 321;
    spec.varProb = 0.15;
    spec.seed = 44;
    BuiltIndex built = buildIndex(sym, {}, spec, 5, 0.7);

    fs1::Fs1Engine engine(built.generator);
    support::ThreadPool pool(4);
    for (const scw::Signature &query : built.queries) {
        fs1::Fs1Result expected =
            fs1::rowMajorScan(built.generator, built.index, query);
        for (std::uint32_t shards : {1u, 2u, 4u, 7u}) {
            fs1::Fs1Result got = engine.search(
                built.index, &built.plane, query,
                shards > 1 ? &pool : nullptr, shards);
            expectSameResult(expected, got,
                             std::to_string(shards) + " shards");
            EXPECT_EQ(got.shards, shards);
        }
    }
}

TEST(Fs1EngineOracleTest, BaseDeltaSplitMatchesRowMajor)
{
    term::SymbolTable sym;
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 200;
    spec.varProb = 0.2;
    spec.seed = 45;
    BuiltIndex built = buildIndex(sym, {}, spec, 5, 0.7);
    const std::size_t n = built.index.entryCount();

    fs1::Fs1Engine engine(built.generator);
    // Base sizes on and off the 64-entry word grid, including an
    // empty base (a predicate whose every entry sits in the delta).
    for (std::size_t base : {std::size_t{0}, std::size_t{1},
                             std::size_t{63}, std::size_t{64},
                             std::size_t{65}, std::size_t{130}, n - 1}) {
        scw::BitSlicedIndex base_plane = planeOf(built, 0, base);
        scw::BitSlicedIndex delta = planeOf(built, base, n);
        for (std::size_t q = 0; q < built.queries.size(); ++q) {
            expectSameResult(
                fs1::rowMajorScan(built.generator, built.index,
                                  built.queries[q]),
                engine.search(built.index,
                              base > 0 ? &base_plane : nullptr, &delta,
                              base, built.queries[q], nullptr, 1),
                "base " + std::to_string(base) + " query " +
                    std::to_string(q));
        }
    }
}

TEST(Fs1EngineOracleTest, MissingOrShortPlaneIsABrokenInvariant)
{
    term::SymbolTable sym;
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 80;
    spec.seed = 66;
    BuiltIndex built = buildIndex(sym, {}, spec, 1, 0.7);

    fs1::Fs1Engine engine(built.generator);
    const scw::Signature &query = built.queries[0];
    EXPECT_DEATH(engine.search(built.index, nullptr, query, nullptr, 1),
                 "plane covers");
    scw::BitSlicedIndex short_plane =
        planeOf(built, 0, built.index.entryCount() - 1);
    EXPECT_DEATH(engine.search(built.index, &short_plane, query,
                               nullptr, 1),
                 "plane covers");
}

// ---------------------------------------------------------------------
// The plane invariant: every store source carries covering planes.
// ---------------------------------------------------------------------

/**
 * Every predicate version reachable through predicateVersion() has a
 * plane: either one over its whole index (equal to a fresh transpose),
 * or a base plane over [0, baseEntries) plus a delta plane over the
 * tail.
 */
void
expectPlanesCoverIndexes(const crs::PredicateStore &store,
                         const std::string &source)
{
    ASSERT_FALSE(store.predicates().empty()) << source;
    for (const term::PredicateId &pred : store.predicates()) {
        std::shared_ptr<const crs::StoredPredicate> v =
            store.predicateVersion(pred);
        ASSERT_NE(v, nullptr) << source;
        ASSERT_NE(v->sliced, nullptr) << source;
        const std::size_t entries = v->index.entryCount();
        if (v->deltaSliced == nullptr) {
            EXPECT_TRUE(*v->sliced == scw::BitSlicedIndex::build(
                                          store.generator(), v->index))
                << source;
        } else {
            EXPECT_EQ(v->sliced->entryCount(), v->baseEntries) << source;
            EXPECT_EQ(v->baseEntries + v->deltaSliced->entryCount(),
                      entries)
                << source;
        }
    }
}

/** A scratch directory removed on scope exit. */
struct ScratchDir
{
    std::string path;

    explicit ScratchDir(const std::string &name)
        : path(::testing::TempDir() + name)
    {
        std::filesystem::remove_all(path);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

/**
 * Rewrite a saved store in place into the index-format v2 layout: a
 * manifest without the index-format line or file sizes, and raw
 * secondary files that are the bare entry image (no plane section).
 */
void
downgradeToV2(const std::string &dir, const crs::PredicateStore &store)
{
    std::string scw_line;
    std::vector<std::string> pred_lines;
    {
        std::ifstream in(dir + "/manifest.txt");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("scw ", 0) == 0)
                scw_line = line;
            if (line.rfind("pred ", 0) != 0)
                continue;
            std::istringstream fields(line);
            std::string word, stem;
            std::uint32_t functor = 0, arity = 0;
            fields >> word >> functor >> arity >> stem;
            pred_lines.push_back("pred " + std::to_string(functor) + " " +
                                 std::to_string(arity) + " " + stem);
            const std::string idx = dir + "/" + stem + ".idx";
            std::vector<std::uint8_t> raw = storage::readFramedBytes(idx);
            raw.resize(store.predicate(term::PredicateId{functor, arity})
                           .index.image()
                           .size());
            storage::writeBytes(idx, raw);
        }
    }
    std::ofstream out(dir + "/manifest.txt");
    out << "clare-store 2\n" << scw_line << '\n';
    for (const std::string &line : pred_lines)
        out << line << '\n';
}

TEST(PlaneInvariantTest, EveryStoreSourceCarriesCoveringPlanes)
{
    const char *const program_text =
        "p(a, 1).\np(b, 2).\np(a, 3).\np(c, 4).\n"
        "q(a).\nq(b).\nq(c).\n";
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::Program program;
    for (auto &c : reader.parseProgram(program_text))
        program.add(std::move(c));

    // In-memory compiled store.
    crs::PredicateStore compiled(sym, scw::CodewordGenerator{});
    compiled.addProgram(program);
    compiled.finalize();
    expectPlanesCoverIndexes(compiled, "compiled");

    // Loaded from the current (v4) format.
    ScratchDir saved("clare_plane_invariant_v4");
    crs::saveStore(saved.path, compiled, sym);
    {
        term::SymbolTable fresh;
        expectPlanesCoverIndexes(crs::loadStore(saved.path, fresh),
                                 "loaded v4");
    }

    // Loaded from an index-format v2 store (no plane section on disk).
    ScratchDir v2("clare_plane_invariant_v2");
    crs::saveStore(v2.path, compiled, sym);
    downgradeToV2(v2.path, compiled);
    {
        term::SymbolTable fresh;
        expectPlanesCoverIndexes(crs::loadStore(v2.path, fresh),
                                 "loaded v2");
    }

    // Live assertz (delta plane), retract (compaction), a brand-new
    // predicate, then a checkpoint reopened from disk.
    ScratchDir root("clare_plane_invariant_live");
    crs::saveStore(root.path, compiled, sym);
    std::uint64_t applied = 0;
    {
        term::SymbolTable live_sym;
        term::TermReader live_reader(live_sym);
        crs::StoreWalInfo info;
        crs::PredicateStore store =
            crs::openStore(root.path, live_sym, &info);
        crs::LiveStore live(store, live_sym, root.path + "/wal.log",
                            info.appliedLsn);
        live.assertz(live_reader.parseClause("p(d, 5)."));
        live.assertz(live_reader.parseClause("p(e, 6)."));
        expectPlanesCoverIndexes(store, "after assertz");
        const term::PredicateId p{live_sym.lookup("p"), 2};
        ASSERT_NE(store.predicateVersion(p)->deltaSliced, nullptr);

        term::ParsedTerm gone = live_reader.parseTerm("q(b)");
        ASSERT_TRUE(live.retract(gone.arena, gone.root).has_value());
        live.assertz(live_reader.parseClause("r(x)."));
        expectPlanesCoverIndexes(store, "after retract + new predicate");

        live.checkpoint(root.path);
        applied = live.appliedLsn();
    }
    term::SymbolTable reopened_sym;
    crs::StoreWalInfo info;
    crs::PredicateStore reopened =
        crs::openStore(root.path, reopened_sym, &info);
    EXPECT_EQ(info.appliedLsn, applied);
    expectPlanesCoverIndexes(reopened, "reopened checkpoint");
}

// ---------------------------------------------------------------------
// Persistence: the v3 CLSX section round-trips, corruption is typed.
// ---------------------------------------------------------------------

class SlicedStoreTest : public ::testing::Test
{
  protected:
    std::string dir_ = ::testing::TempDir() + "clare_sliced_store";
    term::SymbolTable sym_;
    std::unique_ptr<crs::PredicateStore> store_;

    void
    SetUp() override
    {
        term::TermReader reader(sym_);
        term::Program program;
        for (auto &c : reader.parseProgram(
                 "p(a, 1).\np(b, 2).\np(a, 3).\np(c, 4).\n"
                 "q(a).\nq(b).\nq(c).\n"))
            program.add(std::move(c));
        store_ = std::make_unique<crs::PredicateStore>(
            sym_, scw::CodewordGenerator{});
        store_->addProgram(program);
        store_->finalize();
        crs::saveStore(dir_, *store_, sym_);
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string
    idxPathOf(std::uint32_t arity) const
    {
        for (const term::PredicateId &pred : store_->predicates()) {
            if (pred.arity == arity)
                return dir_ + "/pred_" + std::to_string(pred.functor) +
                    "_" + std::to_string(pred.arity) + ".idx";
        }
        ADD_FAILURE() << "no predicate of arity " << arity;
        return "";
    }
};

TEST_F(SlicedStoreTest, V3RoundTripCarriesIdenticalPlanes)
{
    term::SymbolTable fresh;
    crs::PredicateStore loaded = crs::loadStore(dir_, fresh);
    ASSERT_EQ(loaded.predicates().size(), store_->predicates().size());
    for (const term::PredicateId &pred : loaded.predicates()) {
        const crs::StoredPredicate &got = loaded.predicate(pred);
        ASSERT_NE(got.sliced, nullptr);
        EXPECT_TRUE(*got.sliced ==
                    scw::BitSlicedIndex::build(loaded.generator(),
                                               got.index));
        EXPECT_TRUE(*got.sliced ==
                    *store_->predicate(pred).sliced);
    }
}

TEST_F(SlicedStoreTest, CorruptPlaneSectionIsTypedLoadError)
{
    // Flip a plane word *inside* the page frame (re-framing keeps the
    // page CRC valid), so only the CLSX section CRC can catch it.
    std::string idx = idxPathOf(2);
    std::vector<std::uint8_t> payload = storage::readFramedBytes(idx);
    std::size_t entry_bytes = 0;
    for (const term::PredicateId &pred : store_->predicates())
        if (pred.arity == 2)
            entry_bytes = store_->predicate(pred).index.image().size();
    ASSERT_GT(payload.size(), entry_bytes + 40);
    payload[entry_bytes + 40] ^= 0x04;
    storage::writeFramedBytes(idx, payload);

    term::SymbolTable fresh;
    try {
        crs::loadStore(dir_, fresh);
        FAIL() << "corrupt plane section loaded";
    } catch (const CorruptionError &e) {
        EXPECT_NE(std::string(e.what()).find("sliced plane section"),
                  std::string::npos) << e.what();
    }
}

TEST_F(SlicedStoreTest, TrailingBytesAfterPlaneSectionRejected)
{
    std::string idx = idxPathOf(1);
    std::vector<std::uint8_t> payload = storage::readFramedBytes(idx);
    payload.push_back(0);
    storage::writeFramedBytes(idx, payload);
    // The framed size change is caught by the store audit; what must
    // never happen is a silent load.
    term::SymbolTable fresh;
    EXPECT_THROW(crs::loadStore(dir_, fresh), CorruptionError);
}

// ---------------------------------------------------------------------
// Server: serveBatch() is bit-identical to serve() in a loop.
// ---------------------------------------------------------------------

class SlicedServerTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    std::unique_ptr<crs::PredicateStore> store;
    std::unique_ptr<term::TermReader> reader;
    std::vector<term::ParsedTerm> goals;

    void
    SetUp() override
    {
        workload::KbGenerator kbgen(sym);
        workload::KbSpec spec;
        spec.predicates = 3;
        spec.clausesPerPredicate = 150;
        spec.arityMin = 2;
        spec.arityMax = 2;
        spec.varProb = 0.1;
        spec.seed = 47;
        term::Program program = kbgen.generate(spec);
        store = std::make_unique<crs::PredicateStore>(
            sym, scw::CodewordGenerator{});
        store->addProgram(program);
        store->finalize();
        reader = std::make_unique<term::TermReader>(sym);
        for (const char *text :
             {"p0(a1, X)", "p0(a2, X)", "p0(a3, X)", "p0(a1, b)",
              "p1(a4, X)", "p1(a5, X)", "p2(a6, X)", "p2(a7, X)"}) {
            goals.push_back(reader->parseTerm(text));
        }
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

    /** A batch mixing FS1 modes with non-FS1 ones, repeated goals. */
    std::vector<crs::RetrievalRequest>
    mixedBatch() const
    {
        std::vector<crs::RetrievalRequest> batch;
        for (int round = 0; round < 2; ++round) {
            for (std::size_t g = 0; g < goals.size(); ++g) {
                batch.push_back(request(goals[g]));
                if (g % 3 == 0)
                    batch.push_back(request(
                        goals[g], crs::SearchMode::SoftwareOnly));
                if (g % 4 == 1)
                    batch.push_back(request(
                        goals[g], crs::SearchMode::Fs1Only));
            }
        }
        return batch;
    }

    static void
    expectIdentical(const crs::RetrievalResponse &a,
                    const crs::RetrievalResponse &b,
                    const std::string &label)
    {
        EXPECT_EQ(a.mode, b.mode) << label;
        EXPECT_EQ(a.candidates, b.candidates) << label;
        EXPECT_EQ(a.answers, b.answers) << label;
        EXPECT_EQ(a.indexEntriesScanned, b.indexEntriesScanned) << label;
        EXPECT_EQ(a.fs1Hits, b.fs1Hits) << label;
        EXPECT_EQ(a.clausesExamined, b.clausesExamined) << label;
        EXPECT_EQ(a.filterOps, b.filterOps) << label;
        EXPECT_EQ(a.breakdown.indexTime, b.breakdown.indexTime) << label;
        EXPECT_EQ(a.breakdown.filterTime, b.breakdown.filterTime)
            << label;
        EXPECT_EQ(a.breakdown.hostUnifyTime, b.breakdown.hostUnifyTime)
            << label;
        EXPECT_EQ(a.elapsed, b.elapsed) << label;
        EXPECT_EQ(a.elapsed, a.breakdown.serviceTime()) << label;
    }
};

TEST_F(SlicedServerTest, ServeBatchIdenticalToServeLoopAcrossWorkers)
{
    std::vector<crs::RetrievalRequest> batch = mixedBatch();
    for (std::uint32_t workers : {1u, 2u, 4u}) {
        crs::CrsConfig config;
        config.workers = workers;
        auto loop_server = makeServer(config);
        std::vector<crs::RetrievalResponse> expected;
        for (const crs::RetrievalRequest &r : batch)
            expected.push_back(loop_server->serve(r));

        auto server = makeServer(config);
        std::vector<crs::RetrievalResponse> got =
            server->serveBatch(batch);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            const std::string label = "workers " +
                std::to_string(workers) + " request " +
                std::to_string(i);
            expectIdentical(expected[i], got[i], label);
            // Only a batch queues, and only behind a worker pool (the
            // modeled queue itself is pinned in test_cache).
            EXPECT_EQ(expected[i].breakdown.queueWait, 0u) << label;
            if (workers == 1) {
                EXPECT_EQ(got[i].breakdown.queueWait, 0u) << label;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Kernel registry: detection and dispatch.
// ---------------------------------------------------------------------

/** Concrete kernels the host can run, scalar oracle first. */
std::vector<fs1::Fs1Kernel>
supportedKernels()
{
    std::vector<fs1::Fs1Kernel> out;
    for (fs1::Fs1Kernel k : {fs1::Fs1Kernel::Scalar64,
                             fs1::Fs1Kernel::Avx2,
                             fs1::Fs1Kernel::Avx512})
        if (fs1::kernelSupported(k))
            out.push_back(k);
    return out;
}

TEST(KernelRegistryTest, ScalarAlwaysAvailableAndAutoResolves)
{
    EXPECT_TRUE(fs1::kernelSupported(fs1::Fs1Kernel::Scalar64));
    EXPECT_TRUE(fs1::kernelSupported(fs1::Fs1Kernel::Auto));
    fs1::Fs1Kernel resolved = fs1::resolveKernel(fs1::Fs1Kernel::Auto);
    EXPECT_NE(resolved, fs1::Fs1Kernel::Auto);
    EXPECT_TRUE(fs1::kernelSupported(resolved));
    // Explicit choices pass through unresolved.
    EXPECT_EQ(fs1::resolveKernel(fs1::Fs1Kernel::Scalar64),
              fs1::Fs1Kernel::Scalar64);
    EXPECT_NE(fs1::kernelFn(fs1::Fs1Kernel::Scalar64), nullptr);
}

// ---------------------------------------------------------------------
// Edge-mask derivation: the shared helper, all partial-word cases.
// ---------------------------------------------------------------------

TEST(EdgeMasksTest, CoversEveryPartialWordCase)
{
    constexpr std::uint64_t kOnes = ~std::uint64_t{0};

    // Full single word.
    fs1::EdgeMasks m = fs1::edgeMasks(0, 64);
    EXPECT_EQ(m.firstWord, 0u);
    EXPECT_EQ(m.wordEnd, 1u);
    EXPECT_EQ(m.lastWord, 0u);
    EXPECT_EQ(m.firstMask, kOnes);
    EXPECT_EQ(m.lastMask, kOnes);       // word-aligned end: no shift

    // Single entry.
    m = fs1::edgeMasks(0, 1);
    EXPECT_EQ(m.wordCount(), 1u);
    EXPECT_EQ(m.firstMask, kOnes);
    EXPECT_EQ(m.lastMask, std::uint64_t{1});

    // Just under a word.
    m = fs1::edgeMasks(0, 63);
    EXPECT_EQ(m.wordCount(), 1u);
    EXPECT_EQ(m.lastMask, kOnes >> 1);

    // One word plus one entry.
    m = fs1::edgeMasks(0, 65);
    EXPECT_EQ(m.wordCount(), 2u);
    EXPECT_EQ(m.lastWord, 1u);
    EXPECT_EQ(m.lastMask, std::uint64_t{1});

    // Same-word range: both masks land on word 1, and their AND keeps
    // exactly bits [1, 3).
    m = fs1::edgeMasks(65, 67);
    EXPECT_EQ(m.firstWord, 1u);
    EXPECT_EQ(m.lastWord, 1u);
    EXPECT_EQ(m.wordCount(), 1u);
    EXPECT_EQ(m.firstMask & m.lastMask, std::uint64_t{0x6});

    // Mid-word begin, word-aligned end.
    m = fs1::edgeMasks(70, 128);
    EXPECT_EQ(m.firstWord, 1u);
    EXPECT_EQ(m.wordEnd, 2u);
    EXPECT_EQ(m.firstMask, kOnes << 6);
    EXPECT_EQ(m.lastMask, kOnes);

    // Word-aligned begin, mid-word end, multi-word.
    m = fs1::edgeMasks(64, 200);
    EXPECT_EQ(m.firstWord, 1u);
    EXPECT_EQ(m.wordEnd, 4u);
    EXPECT_EQ(m.lastWord, 3u);
    EXPECT_EQ(m.firstMask, kOnes);
    EXPECT_EQ(m.lastMask, (std::uint64_t{1} << 8) - 1);
}

// ---------------------------------------------------------------------
// Boundary geometries vs the PLA oracle, on every supported kernel.
// ---------------------------------------------------------------------

TEST(SlicedKernelTest, BoundaryRangesAgreeWithPlaOnEveryKernel)
{
    term::SymbolTable sym;
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 193;     // three words + one entry
    spec.varProb = 0.25;
    spec.seed = 91;
    BuiltIndex built = buildIndex(sym, {}, spec, 4, 0.6);

    // Every length the issue calls out (0, 1, 63, 64, 65), plus
    // same-word and word-aligned-end ranges, at offsets that exercise
    // both aligned and misaligned begins.
    const scw::EntryRange ranges[] = {
        {0, 0},     {64, 64},   {100, 100},         // empty
        {0, 1},     {63, 64},   {64, 65}, {192, 193},
        {0, 63},    {1, 64},    {65, 128},          // length 63
        {0, 64},    {64, 128},  {128, 192},         // length 64
        {0, 65},    {63, 128},  {128, 193},         // length 65
        {65, 67},   {190, 193},                     // same-word
        {7, 64},    {70, 192},                      // word-aligned end
        {0, 193},                                   // whole plane
    };
    for (fs1::Fs1Kernel kernel : supportedKernels()) {
        fs1::SlicedMatcher matcher(kernel);
        EXPECT_EQ(matcher.kernel(), kernel);
        for (const scw::EntryRange &range : ranges) {
            for (std::size_t q = 0; q < built.queries.size(); ++q) {
                std::string label = std::string(fs1::kernelName(kernel))
                    + " range [" + std::to_string(range.begin) + ", "
                    + std::to_string(range.end) + ") query "
                    + std::to_string(q);
                expectSameHits(
                    plaSurvivors(built, built.queries[q], range),
                    matcher.scanRange(built.plane, built.queries[q],
                                      range),
                    label);
            }
        }
    }
}

TEST(SlicedKernelTest, BoundaryPlaneSizesAgreeAcrossKernels)
{
    // Whole planes of the boundary entry counts: the slack bits past
    // the last entry are the hazard here, not range edges.
    for (std::uint32_t clauses : {1u, 63u, 64u, 65u}) {
        term::SymbolTable sym;
        workload::KbSpec spec;
        spec.predicates = 1;
        spec.clausesPerPredicate = clauses;
        spec.varProb = 0.2;
        spec.seed = 120 + clauses;
        BuiltIndex built = buildIndex(sym, {}, spec, 3, 0.5);
        scw::EntryRange all{0, built.index.entryCount()};
        for (fs1::Fs1Kernel kernel : supportedKernels()) {
            fs1::SlicedMatcher matcher(kernel);
            for (std::size_t q = 0; q < built.queries.size(); ++q) {
                expectSameHits(
                    plaSurvivors(built, built.queries[q], all),
                    matcher.scanRange(built.plane, built.queries[q],
                                      all),
                    std::string(fs1::kernelName(kernel)) + " " +
                        std::to_string(clauses) + " clauses, query " +
                        std::to_string(q));
            }
        }
    }
}

} // namespace
} // namespace clare
