/**
 * @file
 * Tests for the extension modules: the structural FS1 PLA matcher
 * (exact agreement with the behavioural match rule), clause-file
 * persistence, and the multi-client CRS simulation.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include <filesystem>

#include "crs/client_sim.hh"
#include "crs/store_io.hh"
#include "oracle/pla_matcher.hh"
#include "storage/file_io.hh"
#include "support/logging.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

namespace clare {
namespace {

// ---------------------------------------------------------------------
// PLA matcher.
// ---------------------------------------------------------------------

TEST(PlaMatcherTest, RequiresQueryLoad)
{
    fs1::PlaMatcher pla{scw::CodewordGenerator{}};
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::ParsedTerm t = reader.parseTerm("p(a)");
    scw::CodewordGenerator gen;
    scw::Signature sig = gen.encode(t.arena, t.root);
    EXPECT_DEATH(pla.present(sig), "Set Query");
}

TEST(PlaMatcherTest, FieldCellSemantics)
{
    fs1::FieldMatchCell cell;
    BitVec query(16);
    query.set(3);
    query.set(7);
    cell.loadComparand(query);

    BitVec superset(16);
    superset.set(3);
    superset.set(7);
    superset.set(11);
    EXPECT_TRUE(cell.evaluate(superset, false));

    BitVec missing(16);
    missing.set(3);
    EXPECT_FALSE(cell.evaluate(missing, false));
    // The mask line overrides the AND plane.
    EXPECT_TRUE(cell.evaluate(missing, true));
}

TEST(PlaMatcherTest, ActivityCountersReflectFullEvaluation)
{
    scw::CodewordGenerator gen;
    fs1::PlaMatcher pla{gen};
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::ParsedTerm q = reader.parseTerm("p(a, b)");
    pla.setQuery(gen.encode(q.arena, q.root));

    term::ParsedTerm c = reader.parseTerm("p(x, y)");
    pla.present(gen.encode(c.arena, c.root));
    // Every field cell evaluates every entry — no short circuit.
    EXPECT_EQ(pla.cellEvaluations(), gen.config().encodedArgs);
    EXPECT_EQ(pla.addressLatches(), 0u);
}

TEST(PlaMatcherTest, AgreesWithBehaviouralRule)
{
    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 300;
    spec.varProb = 0.2;
    spec.structProb = 0.3;
    spec.seed = 44;
    term::Program program = kbgen.generate(spec);
    const auto &pred = program.predicates()[0];

    scw::CodewordGenerator gen;
    workload::QuerySpec qspec;
    qspec.boundArgProb = 0.5;
    workload::QueryGenerator qgen(sym, qspec);

    for (int qi = 0; qi < 6; ++qi) {
        workload::GeneratedQuery q = qgen.generate(program, pred);
        scw::Signature qsig = gen.encode(q.arena, q.goal);
        fs1::PlaMatcher pla{gen};
        pla.setQuery(qsig);
        for (std::size_t i : program.clausesOf(pred)) {
            const term::Clause &clause = program.clause(i);
            scw::Signature csig = gen.encode(clause.arena(),
                                             clause.head());
            EXPECT_EQ(pla.present(csig), gen.matches(qsig, csig))
                << "clause " << i;
        }
    }
}

TEST(PlaMatcherTest, ScanMatchesEngineSearch)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermWriter writer(sym);
    scw::CodewordGenerator gen;

    storage::ClauseFileBuilder builder(writer);
    std::vector<scw::Signature> sigs;
    for (const auto &c : reader.parseProgram(
             "p(a).\np(b).\np(X).\np(a).\n")) {
        sigs.push_back(gen.encode(c.arena(), c.head()));
        builder.add(c);
    }
    storage::ClauseFile file = builder.finish();
    scw::SecondaryFile index = scw::SecondaryFile::build(gen, sigs,
                                                         file);

    term::ParsedTerm q = reader.parseTerm("p(a)");
    scw::Signature qsig = gen.encode(q.arena, q.root);

    fs1::PlaMatcher pla{gen};
    pla.setQuery(qsig);
    auto structural = pla.scan(index);

    fs1::Fs1Engine engine(gen);
    scw::BitSlicedIndex plane = scw::BitSlicedIndex::build(gen, index);
    fs1::Fs1Result behavioural =
        engine.search(index, &plane, qsig, nullptr, 1);

    ASSERT_EQ(structural.size(), behavioural.ordinals.size());
    for (std::size_t i = 0; i < structural.size(); ++i)
        EXPECT_EQ(structural[i].ordinal, behavioural.ordinals[i]);
}

// ---------------------------------------------------------------------
// Clause-file persistence.
// ---------------------------------------------------------------------

class FileIoTest : public ::testing::Test
{
  protected:
    std::string path_ = ::testing::TempDir() + "clare_test.kbc";

    void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(FileIoTest, BytesRoundTrip)
{
    std::vector<std::uint8_t> data{1, 2, 3, 250, 0, 99};
    storage::writeBytes(path_, data);
    EXPECT_EQ(storage::readBytes(path_), data);
}

TEST_F(FileIoTest, MissingFileIsTypedIoError)
{
    EXPECT_THROW(storage::readBytes("/nonexistent/nope"), IoError);
    EXPECT_THROW(storage::loadClauseFile("/nonexistent/nope"),
                 IoError);
}

TEST_F(FileIoTest, ClauseFileRoundTrip)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermWriter writer(sym);
    storage::ClauseFileBuilder builder(writer);
    for (const auto &c : reader.parseProgram(
             "p(a, [1, 2]).\np(f(X), Y) :- p(Y, [1, 2]).\np(_, _).\n"))
        builder.add(c);
    storage::ClauseFile original = builder.finish();

    storage::saveClauseFile(path_, original);
    storage::ClauseFile loaded = storage::loadClauseFile(path_);

    EXPECT_EQ(loaded.predicate(), original.predicate());
    ASSERT_EQ(loaded.clauseCount(), original.clauseCount());
    EXPECT_EQ(loaded.image(), original.image());
    for (std::size_t i = 0; i < loaded.clauseCount(); ++i) {
        EXPECT_EQ(loaded.sourceText(i), original.sourceText(i));
        EXPECT_EQ(loaded.decodeArgs(i).items,
                  original.decodeArgs(i).items);
    }
}

TEST_F(FileIoTest, CorruptMagicRejected)
{
    std::vector<std::uint8_t> junk(64, 0xab);
    storage::writeBytes(path_, junk);
    EXPECT_THROW(storage::loadClauseFile(path_), CorruptionError);
}

TEST_F(FileIoTest, TruncatedImageRejected)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermWriter writer(sym);
    storage::ClauseFileBuilder builder(writer);
    builder.add(reader.parseClause("p(a)."));
    storage::saveClauseFile(path_, builder.finish());

    std::vector<std::uint8_t> bytes = storage::readBytes(path_);
    bytes.resize(bytes.size() - 4);
    storage::writeBytes(path_, bytes);
    EXPECT_THROW(storage::loadClauseFile(path_), CorruptionError);
}

// ---------------------------------------------------------------------
// Whole-store persistence.
// ---------------------------------------------------------------------

class StoreIoTest : public ::testing::Test
{
  protected:
    std::string dir_ = ::testing::TempDir() + "clare_store_test";

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
};

TEST_F(StoreIoTest, SymbolTableRoundTrip)
{
    term::SymbolTable sym;
    sym.intern("alpha");
    sym.intern("beta with spaces");
    sym.internFloat(3.25);
    sym.internFloat(-0.5);
    std::filesystem::create_directories(dir_);
    storage::saveSymbolTable(dir_ + "/sym.tbl", sym);

    term::SymbolTable fresh;
    storage::loadSymbolTable(dir_ + "/sym.tbl", fresh);
    EXPECT_EQ(fresh.atomCount(), sym.atomCount());
    EXPECT_EQ(fresh.lookup("alpha"), sym.lookup("alpha"));
    EXPECT_EQ(fresh.lookup("beta with spaces"),
              sym.lookup("beta with spaces"));
    EXPECT_DOUBLE_EQ(fresh.floatValue(0), 3.25);
    EXPECT_DOUBLE_EQ(fresh.floatValue(1), -0.5);
}

TEST_F(StoreIoTest, LoadRequiresFreshTable)
{
    term::SymbolTable sym;
    sym.intern("x");
    std::filesystem::create_directories(dir_);
    storage::saveSymbolTable(dir_ + "/sym.tbl", sym);
    term::SymbolTable dirty;
    dirty.intern("pollutant");
    EXPECT_THROW(storage::loadSymbolTable(dir_ + "/sym.tbl", dirty),
                 FatalError);
}

TEST_F(StoreIoTest, StoreRoundTripPreservesRetrieval)
{
    // Build, save, load in a fresh process-like context, and compare
    // retrieval results for every mode.
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::Program program;
    for (auto &c : reader.parseProgram(
             "route(a, b, 3).\nroute(b, c, 2).\nroute(X, X, 0).\n"
             "route(c, d, 7).\n"
             "fare(economy, 10.5).\nfare(business, 99.5).\n"))
        program.add(std::move(c));

    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();
    crs::saveStore(dir_, store, sym);

    term::SymbolTable fresh;
    crs::PredicateStore loaded = crs::loadStore(dir_, fresh);
    EXPECT_EQ(loaded.predicates().size(), store.predicates().size());
    EXPECT_EQ(loaded.dataBytes(), store.dataBytes());
    EXPECT_EQ(loaded.indexBytes(), store.indexBytes());

    crs::ClauseRetrievalServer original_server(sym, store);
    crs::ClauseRetrievalServer loaded_server(fresh, loaded);
    term::TermReader fresh_reader(fresh);

    for (const char *query : {"route(S, S, W)", "route(a, Y, C)",
                              "fare(K, P)"}) {
        term::ParsedTerm q1 = reader.parseTerm(query);
        term::ParsedTerm q2 = fresh_reader.parseTerm(query);
        for (crs::SearchMode mode : {crs::SearchMode::SoftwareOnly,
                                     crs::SearchMode::Fs1Only,
                                     crs::SearchMode::Fs2Only,
                                     crs::SearchMode::TwoStage}) {
            crs::RetrievalRequest ra;
            ra.arena = &q1.arena;
            ra.goal = q1.root;
            ra.mode = mode;
            crs::RetrievalRequest rb;
            rb.arena = &q2.arena;
            rb.goal = q2.root;
            rb.mode = mode;
            crs::RetrievalResponse a = original_server.serve(ra);
            crs::RetrievalResponse b = loaded_server.serve(rb);
            EXPECT_EQ(a.candidates, b.candidates)
                << query << " " << crs::searchModeName(mode);
            EXPECT_EQ(a.answers, b.answers)
                << query << " " << crs::searchModeName(mode);
        }
    }
}

TEST_F(StoreIoTest, MissingDirectoryIsFatal)
{
    term::SymbolTable sym;
    EXPECT_THROW(crs::loadStore(dir_ + "/nope", sym), IoError);
}

// ---------------------------------------------------------------------
// Multi-client simulation.
// ---------------------------------------------------------------------

class ClientSimTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    std::unique_ptr<crs::PredicateStore> store;

    void
    SetUp() override
    {
        term::TermReader reader(sym);
        term::Program program;
        for (auto &c : reader.parseProgram(
                 "stock(widget, 10).\nstock(gadget, 3).\n"
                 "price(widget, 5).\nprice(gadget, 9).\n"))
            program.add(std::move(c));
        store = std::make_unique<crs::PredicateStore>(
            sym, scw::CodewordGenerator{});
        store->addProgram(program);
        store->finalize();
    }
};

TEST_F(ClientSimTest, ReadersShareOneRound)
{
    crs::ClientSimulation sim(sym, *store);
    for (int i = 0; i < 4; ++i) {
        crs::ClientId c = sim.addClient();
        sim.addJob(c, "stock(widget, N)");
    }
    crs::SimulationResult r = sim.run();
    EXPECT_EQ(r.totalJobs, 4u);
    EXPECT_EQ(r.totalWaits, 0u);
    EXPECT_EQ(r.rounds, 2u);    // one working round + the empty check
}

TEST_F(ClientSimTest, WriterSerializesReaders)
{
    crs::ClientSimulation sim(sym, *store);
    crs::ClientId writer = sim.addClient();
    sim.addJob(writer, "stock(widget, 7)", /*exclusive=*/true);
    crs::ClientId reader1 = sim.addClient();
    sim.addJob(reader1, "stock(widget, N)");
    crs::ClientId reader2 = sim.addClient();
    sim.addJob(reader2, "stock(gadget, N)");

    crs::SimulationResult r = sim.run();
    EXPECT_EQ(r.totalJobs, 3u);
    // reader1 conflicts with the writer on stock/2; reader2 hits a
    // different... no: same predicate stock/2 — both readers wait one
    // round behind the exclusive holder.
    EXPECT_GE(r.totalWaits, 2u);
    ASSERT_EQ(r.clients.size(), 3u);
    EXPECT_EQ(r.clients[0].lockWaits, 0u);      // writer went first
    EXPECT_GE(r.clients[1].lockWaits, 1u);
}

TEST_F(ClientSimTest, DisjointPredicatesRunConcurrently)
{
    crs::ClientSimulation sim(sym, *store);
    crs::ClientId a = sim.addClient();
    sim.addJob(a, "stock(widget, N)", /*exclusive=*/true);
    crs::ClientId b = sim.addClient();
    sim.addJob(b, "price(widget, P)", /*exclusive=*/true);
    crs::SimulationResult r = sim.run();
    EXPECT_EQ(r.totalWaits, 0u);
    EXPECT_EQ(r.rounds, 2u);
}

TEST_F(ClientSimTest, QueuesDrainInOrder)
{
    crs::ClientSimulation sim(sym, *store);
    crs::ClientId c = sim.addClient();
    for (int i = 0; i < 5; ++i)
        sim.addJob(c, "price(gadget, P)");
    crs::SimulationResult r = sim.run();
    EXPECT_EQ(r.totalJobs, 5u);
    ASSERT_EQ(r.clients.size(), 1u);
    EXPECT_EQ(r.clients[0].completed, 5u);
    EXPECT_GT(r.clients[0].busyTime, 0u);
    EXPECT_GT(r.makespan, 0u);
}

TEST_F(ClientSimTest, UnknownClientIsFatal)
{
    crs::ClientSimulation sim(sym, *store);
    EXPECT_THROW(sim.addJob(42, "stock(widget, N)"), FatalError);
}

} // namespace
} // namespace clare
