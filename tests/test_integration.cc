/**
 * @file
 * End-to-end integration tests reproducing the paper's headline
 * behaviours: the two-stage filter pipeline, the rate hierarchy (FS2
 * faster than the disk), false-drop reduction between stages, result
 * memory sizing, and the full KB -> CLARE -> resolution stack.
 */

#include <gtest/gtest.h>

#include "clare/board.hh"
#include "crs/server.hh"
#include "fs2/datapath.hh"
#include "kb/knowledge_base.hh"
#include "kb/resolution.hh"
#include "term/term_writer.hh"
#include "unify/oracle.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

namespace clare {
namespace {

TEST(Integration, RateHierarchyHoldsAsInSection4)
{
    // FS1 at 4.5 MB/s and FS2's worst case at ~4.25 MB/s both exceed
    // the ~2 MB/s peak SMD transfer rate: the filters keep up with the
    // disk.
    fs1::Fs1Config fs1;
    double fs2_rate = fs2::worstCaseFilterRate();
    double disk_rate =
        storage::DiskGeometry::fujitsuM2351A().transferRate;
    EXPECT_GT(fs1.scanRate, disk_rate);
    EXPECT_GT(fs2_rate, disk_rate);
    EXPECT_GT(fs1.scanRate, fs2_rate);      // 4.5 > 4.25
}

TEST(Integration, Fs2NeverOverrunsPaperDisk)
{
    // Stream a realistic clause mix through FS2 fed by the modeled
    // SMD disk: no overruns must occur (the paper's design argument).
    term::SymbolTable sym;
    term::TermWriter writer(sym);
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 500;
    spec.varProb = 0.25;
    spec.sharedVarProb = 0.5;   // maximize cross-binding operations
    spec.structProb = 0.3;
    spec.seed = 17;
    term::Program program = kbgen.generate(spec);

    const auto &pred = program.predicates()[0];
    storage::ClauseFileBuilder builder(writer);
    for (std::size_t i : program.clausesOf(pred))
        builder.add(program.clause(i));
    storage::ClauseFile file = builder.finish();
    storage::DiskModel disk(storage::DiskGeometry::fujitsuM2351A());

    workload::QuerySpec qspec;
    qspec.boundArgProb = 0.3;
    qspec.sharedVarProb = 0.6;
    workload::QueryGenerator qgen(sym, qspec);
    workload::GeneratedQuery q = qgen.generate(program, pred);

    fs2::Fs2Engine engine;
    engine.setQuery(q.arena, q.goal);
    fs2::Fs2SearchResult r = engine.search(file, &disk);
    EXPECT_EQ(r.overruns, 0u);
    // Disk-bound, as designed: the filter adds at most the final
    // clause's examination beyond the stream time.
    EXPECT_GE(r.elapsed, r.diskTime);
    EXPECT_LT(r.elapsed - r.diskTime, 10 * kMicrosecond);
}

TEST(Integration, TwoStageFalseDropReduction)
{
    // Section 2.2: "After the second stage, the percentage of false
    // drops will be reduced significantly."
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::Program program;
    workload::KbGenerator kbgen(sym);
    program = kbgen.generateFamily(400, /*seed=*/3);

    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();
    crs::ClauseRetrievalServer server(sym, store);

    term::ParsedTerm goal = reader.parseTerm("married_couple(S, S)");
    crs::RetrievalRequest request;
    request.arena = &goal.arena;
    request.goal = goal.root;
    request.mode = crs::SearchMode::Fs1Only;
    crs::RetrievalResponse fs1 = server.serve(request);
    request.mode = crs::SearchMode::TwoStage;
    crs::RetrievalResponse two = server.serve(request);
    ASSERT_EQ(fs1.answers, two.answers);
    EXPECT_GT(fs1.falseDropRate(), 0.9);    // index passes everything
    EXPECT_EQ(two.falseDropRate(), 0.0);    // FS2 removes the ghosts
}

TEST(Integration, ResultMemoryWorstCaseIsOneTrack)
{
    // 32 KB Result Memory == one disk track (the paper's sizing).
    fs2::ResultMemory rm;
    storage::DiskGeometry geometry =
        storage::DiskGeometry::fujitsuM2351A();
    EXPECT_EQ(rm.slotCount() * rm.slotBytes(), geometry.trackBytes());
}

TEST(Integration, DriverRoundTripThroughBoard)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermWriter writer(sym);
    storage::ClauseFileBuilder builder(writer);
    for (const auto &c : reader.parseProgram(
             "connect(a, b).\nconnect(b, b).\nconnect(c, d).\n"))
        builder.add(c);
    storage::ClauseFile file = builder.finish();

    engine::ClareBoard board{scw::CodewordGenerator{}};
    engine::ClareDriver driver(board);
    term::ParsedQuery q = reader.parseQuery("connect(N, N)");
    fs2::Fs2SearchResult r = driver.fs2Search(q.arena, q.goals[0], file);
    EXPECT_EQ(r.acceptedOrdinals, (std::vector<std::uint32_t>{1}));

    // Read-result mode: the captured record reparses to the clause.
    std::vector<std::uint8_t> slot;
    {
        // The board still has FS2 selected after the driver sequence.
        board.write8(engine::kVmeWindowBase,
                     engine::ControlRegister::compose(
                         engine::OperationalMode::ReadResult,
                         engine::FilterSelect::Fs2));
        slot = board.fs2().results().slot(0);
    }
    storage::ClauseRecord rec = storage::ClauseFile::parseHeader(slot, 0);
    EXPECT_EQ(rec.ordinal, 1u);
}

TEST(Integration, FullStackFamilyQueries)
{
    kb::KbConfig config;
    config.largeThreshold = 64;
    kb::KnowledgeBase base(config);

    {
        workload::KbGenerator kbgen(base.symbols());
        term::Program family = kbgen.generateFamily(120, /*seed=*/21);
        term::TermWriter writer(base.symbols());
        for (std::size_t i = 0; i < family.size(); ++i)
            base.consult(writer.writeClause(family.clause(i)) + "\n");
    }
    base.compile();
    EXPECT_TRUE(base.isLarge(term::PredicateId{
        base.symbols().lookup("married_couple"), 2}));
    EXPECT_FALSE(base.isLarge(term::PredicateId{
        base.symbols().lookup("ancestor"), 2}));

    kb::Solver solver(base);
    auto couples = solver.solve("married_couple(S, S)");
    EXPECT_FALSE(couples.empty());
    for (const auto &s : couples)
        EXPECT_EQ(s.bindings.at("S").substr(0, 1), "s");
    EXPECT_GT(solver.stats().retrievals, 0u);

    // Mixed small/large resolution: ancestor rules (small, in-memory)
    // over parent facts (large, via CLARE).
    auto ancestors = solver.solve("ancestor(h0, A)");
    auto parents = solver.solve("parent(h0, A)");
    EXPECT_GE(ancestors.size(), parents.size());
}

TEST(Integration, ClareRetrievalNeverChangesAnswers)
{
    // The bottom line: for randomized queries, every retrieval mode
    // returns exactly the clauses full unification accepts, and the
    // candidate ordering preserves clause order.
    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 150;
    spec.varProb = 0.2;
    spec.sharedVarProb = 0.4;
    spec.structProb = 0.3;
    spec.seed = 23;
    term::Program program = kbgen.generate(spec);

    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();
    crs::ClauseRetrievalServer server(sym, store);

    workload::QuerySpec qspec;
    qspec.boundArgProb = 0.5;
    qspec.sharedVarProb = 0.3;
    workload::QueryGenerator qgen(sym, qspec);
    const auto &pred = program.predicates()[0];

    for (int qi = 0; qi < 6; ++qi) {
        workload::GeneratedQuery q = qgen.generate(program, pred);
        std::vector<std::uint32_t> truth;
        for (std::size_t i : program.clausesOf(pred)) {
            if (unify::wouldUnify(q.arena, q.goal, program.clause(i)))
                truth.push_back(static_cast<std::uint32_t>(i));
        }
        for (crs::SearchMode mode : {crs::SearchMode::SoftwareOnly,
                                     crs::SearchMode::Fs1Only,
                                     crs::SearchMode::Fs2Only,
                                     crs::SearchMode::TwoStage}) {
            crs::RetrievalRequest request;
            request.arena = &q.arena;
            request.goal = q.goal;
            request.mode = mode;
            crs::RetrievalResponse r = server.serve(request);
            EXPECT_EQ(r.answers, truth)
                << crs::searchModeName(mode) << " query " << qi;
            EXPECT_TRUE(std::is_sorted(r.candidates.begin(),
                                       r.candidates.end()));
        }
    }
}

} // namespace
} // namespace clare
