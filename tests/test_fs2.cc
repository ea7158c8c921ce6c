/**
 * @file
 * FS2 tests: the datapath timing model against Table 1 and the figure
 * 6-12 route arithmetic, the microinstruction format and assembler,
 * the map ROM, the Double Buffer and Result Memory, the engine's
 * exact agreement with the functional matcher (hit/miss, operation
 * counts, and accepted clause sets) over randomized workloads, the
 * compiled match routines' clause-by-clause agreement with the
 * reference WCS interpreter (clare_oracle), and the record walker the
 * engine reads clause files through: it decodes exactly what the
 * encoder wrote and lets a search run without per-clause allocation.
 */

#include <gtest/gtest.h>

#include <set>

#include "fs2/datapath.hh"
#include "fs2/double_buffer.hh"
#include "fs2/fs2_engine.hh"
#include "fs2/result_memory.hh"
#include "oracle/map_rom.hh"
#include "oracle/microcode.hh"
#include "oracle/wcs.hh"
#include "storage/clause_file.hh"
#include "support/alloc_counter.hh"
#include "support/logging.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"
#include "unify/pif_matcher.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

namespace clare::fs2 {
namespace {

using unify::TueOp;

// ---------------------------------------------------------------------
// Datapath timing: Table 1 and the figure route calculations.
// ---------------------------------------------------------------------

struct Table1Row
{
    TueOp op;
    int figure;
    std::uint64_t ns;
};

class Table1 : public ::testing::TestWithParam<Table1Row>
{
};

TEST_P(Table1, ExecutionTimeMatchesPaper)
{
    const Table1Row &row = GetParam();
    EXPECT_EQ(operationTimeNs(row.op), row.ns);
    EXPECT_EQ(operationSpec(row.op).figure, row.figure);
    EXPECT_EQ(operationTime(row.op), nanoseconds(row.ns));
}

INSTANTIATE_TEST_SUITE_P(
    PaperValues, Table1,
    ::testing::Values(
        Table1Row{TueOp::Match, 6, 105},
        Table1Row{TueOp::DbStore, 7, 95},
        Table1Row{TueOp::QueryStore, 8, 115},
        Table1Row{TueOp::DbFetch, 9, 105},
        Table1Row{TueOp::QueryFetch, 10, 170},
        Table1Row{TueOp::DbCrossBoundFetch, 11, 170},
        Table1Row{TueOp::QueryCrossBoundFetch, 12, 235}),
    [](const auto &info) { return tueOpName(info.param.op); });

TEST(Datapath, MatchRouteBreakdown)
{
    // Figure 6: db 40 ns, query 75 ns, comparison 30 ns.
    const OperationSpec &spec = operationSpec(TueOp::Match);
    ASSERT_EQ(spec.cycles.size(), 1u);
    EXPECT_EQ(spec.cycles[0].dbRoute.delayNs(), 40u);
    EXPECT_EQ(spec.cycles[0].queryRoute.delayNs(), 75u);
    EXPECT_EQ(spec.cycles[0].delayNs(), 75u);
}

TEST(Datapath, QueryFetchFirstCycleIs120)
{
    // Figure 10's printed calculation: 120 + 20 + 30 = 170.
    const OperationSpec &spec = operationSpec(TueOp::QueryFetch);
    ASSERT_EQ(spec.cycles.size(), 2u);
    EXPECT_EQ(spec.cycles[0].queryRoute.delayNs(), 120u);
    EXPECT_EQ(spec.cycles[1].queryRoute.delayNs(), 20u);
}

TEST(Datapath, QueryCrossBoundCycles)
{
    // Figure 12: 95 + 65 + 45 + 30 = 235.
    const OperationSpec &spec = operationSpec(
        TueOp::QueryCrossBoundFetch);
    ASSERT_EQ(spec.cycles.size(), 3u);
    EXPECT_EQ(spec.cycles[0].delayNs(), 95u);
    EXPECT_EQ(spec.cycles[1].delayNs(), 65u);
    EXPECT_EQ(spec.cycles[2].delayNs(), 45u);
}

TEST(Datapath, ComponentDelaysMatchFigures)
{
    EXPECT_EQ(componentDelayNs(Component::DoubleBufferOut), 20u);
    EXPECT_EQ(componentDelayNs(Component::Sel3), 20u);
    EXPECT_EQ(componentDelayNs(Component::QueryMemoryRead), 35u);
    EXPECT_EQ(componentDelayNs(Component::DbMemoryRead), 25u);
    EXPECT_EQ(componentDelayNs(Component::DbMemoryWrite), 20u);
    EXPECT_EQ(componentDelayNs(Component::Comparator), 30u);
}

TEST(Datapath, WorstCaseRateIsAbout4Point25MBps)
{
    // Section 4: "approximately 4.25 Mbytes/second".
    double rate = worstCaseFilterRate();
    EXPECT_NEAR(rate / 1e6, 4.25, 0.02);
    // Faster than the ~2 MB/s peak disk rate.
    EXPECT_GT(rate, 2.0e6);
}

TEST(Datapath, SkipHasNoDatapathTime)
{
    EXPECT_EQ(operationTimeNs(TueOp::Skip), 0u);
}

TEST(Datapath, RouteDescribe)
{
    const OperationSpec &spec = operationSpec(TueOp::Match);
    std::string db = spec.cycles[0].dbRoute.describe();
    EXPECT_NE(db.find("Double Buffer"), std::string::npos);
    EXPECT_NE(db.find("Sel1"), std::string::npos);
}

// ---------------------------------------------------------------------
// Microcode format and assembler.
// ---------------------------------------------------------------------

TEST(Microcode, EncodeDecodeRoundTrip)
{
    MicroInstruction insn;
    insn.seqOp = SeqOp::JumpIfNotCond;
    insn.cond = Cond::QCtrZero;
    insn.addr = 0x5a5;
    insn.tueOp = MicroTueOp::QueryFetchMatch;
    insn.advanceDb = true;
    insn.decQCtr = true;
    insn.loadArgCtr = true;
    MicroInstruction back = MicroInstruction::decode(insn.encode());
    EXPECT_EQ(back.seqOp, insn.seqOp);
    EXPECT_EQ(back.cond, insn.cond);
    EXPECT_EQ(back.addr, insn.addr);
    EXPECT_EQ(back.tueOp, insn.tueOp);
    EXPECT_EQ(back.advanceDb, insn.advanceDb);
    EXPECT_FALSE(back.advanceQuery);
    EXPECT_TRUE(back.decQCtr);
    EXPECT_TRUE(back.loadArgCtr);
}

TEST(Microcode, DisassembleMentionsFields)
{
    MicroInstruction insn;
    insn.seqOp = SeqOp::JumpIfCond;
    insn.cond = Cond::ArgCtrZero;
    insn.addr = 0x12;
    insn.tueOp = MicroTueOp::Match;
    std::string text = insn.disassemble();
    EXPECT_NE(text.find("JCC"), std::string::npos);
    EXPECT_NE(text.find("ARGCTR=0"), std::string::npos);
    EXPECT_NE(text.find("MATCH"), std::string::npos);
}

TEST(Microcode, AssemblerResolvesForwardReferences)
{
    MicroAssembler as;
    MicroInstruction i{};
    i.seqOp = SeqOp::Jump;
    as.label("start");
    as.emit(i, "end");
    as.label("end");
    i = {};
    i.seqOp = SeqOp::Accept;
    as.emit(i);
    Microprogram prog = as.finish("start");
    EXPECT_EQ(prog.entry, 0u);
    MicroInstruction first = MicroInstruction::decode(prog.words[0]);
    EXPECT_EQ(first.addr, as.address("end"));
}

TEST(Microcode, DuplicateLabelPanics)
{
    MicroAssembler as;
    as.label("x");
    EXPECT_DEATH(as.label("x"), "duplicate");
}

TEST(Microcode, MatchProgramFitsControlStore)
{
    RoutineAddresses routines;
    Microprogram prog = assembleMatchProgram(3, routines);
    EXPECT_LE(prog.size(), kControlStoreWords);
    EXPECT_GT(prog.size(), 20u);
    EXPECT_NE(routines.matchSimple, routines.matchComplex);
}

TEST(Microcode, Level1ProgramAliasesComplexToSimple)
{
    RoutineAddresses routines;
    assembleMatchProgram(1, routines);
    EXPECT_EQ(routines.matchSimple, routines.matchComplex);
}

// ---------------------------------------------------------------------
// The WCS interpreter driven directly with hand-written microcode.
// ---------------------------------------------------------------------

TEST(WcsTest, RunsHandWrittenProgram)
{
    // A degenerate program: accept any clause after one MATCH.
    MicroAssembler as;
    MicroInstruction i{};
    as.label("entry");
    i.loadArgCtr = true;
    as.emit(i);
    i = {};
    i.tueOp = MicroTueOp::Match;
    as.emit(i);
    i = {};
    i.seqOp = SeqOp::JumpIfNotCond;
    i.cond = Cond::Hit;
    as.emit(i, "bad");
    i = {};
    i.seqOp = SeqOp::Accept;
    as.emit(i);
    as.label("bad");
    i = {};
    i.seqOp = SeqOp::Reject;
    as.emit(i);
    Microprogram prog = as.finish("entry");

    Wcs wcs;
    wcs.loadProgram(prog);
    RoutineAddresses routines;  // unused: no CALLMAP in this program
    wcs.loadMapRom(MapRom::program(3, true, routines));

    TestUnificationEngine tue;
    tue.resetForClause(0, 0);
    pif::PifItem atom_a{pif::kAtomPointer, 7, 0};
    pif::PifItem atom_b{pif::kAtomPointer, 9, 0};
    pif::EncodedArgs query;
    query.items = {atom_a};
    query.argIndex = {0};

    std::vector<pif::PifItem> same{atom_a};
    EXPECT_EQ(wcs.runClause(tue, same, 1, query),
              ClauseVerdict::Accepted);
    std::vector<pif::PifItem> other{atom_b};
    EXPECT_EQ(wcs.runClause(tue, other, 1, query),
              ClauseVerdict::Rejected);
    EXPECT_GT(wcs.instructionsExecuted(), 0u);
}

TEST(WcsTest, SearchWithoutProgramPanics)
{
    Wcs wcs;
    TestUnificationEngine tue;
    pif::EncodedArgs query;
    std::vector<pif::PifItem> items;
    EXPECT_DEATH(wcs.runClause(tue, items, 0, query),
                 "microprogramming");
}

TEST(WcsTest, RunawayProgramIsCaught)
{
    MicroAssembler as;
    MicroInstruction i{};
    as.label("entry");
    i.seqOp = SeqOp::Jump;
    as.emit(i, "entry");    // infinite self-loop
    Microprogram prog = as.finish("entry");

    WcsConfig config;
    config.maxStepsPerClause = 1000;
    Wcs wcs(config);
    wcs.loadProgram(prog);
    TestUnificationEngine tue;
    pif::EncodedArgs query;
    std::vector<pif::PifItem> items;
    EXPECT_DEATH(wcs.runClause(tue, items, 0, query), "exceeded");
}

TEST(WcsTest, SequencerOverheadAccumulates)
{
    MicroAssembler as;
    MicroInstruction i{};
    as.label("entry");
    i.seqOp = SeqOp::Accept;
    as.emit(i);
    Microprogram prog = as.finish("entry");

    WcsConfig config;
    config.sequencerOverhead = nanoseconds(125);
    Wcs wcs(config);
    wcs.loadProgram(prog);
    TestUnificationEngine tue;
    pif::EncodedArgs query;
    std::vector<pif::PifItem> items;
    wcs.runClause(tue, items, 0, query);
    EXPECT_EQ(wcs.instructionsExecuted(), 1u);
    EXPECT_EQ(wcs.sequencerTime(), nanoseconds(125));
    wcs.resetStats();
    EXPECT_EQ(wcs.sequencerTime(), 0u);
}

// ---------------------------------------------------------------------
// Map ROM.
// ---------------------------------------------------------------------

TEST(MapRomTest, DispatchRules)
{
    RoutineAddresses routines;
    routines.skip = 1;
    routines.dbStore = 2;
    routines.dbFetch = 3;
    routines.queryStore = 4;
    routines.queryFetch = 5;
    routines.matchSimple = 6;
    routines.matchComplex = 7;
    MapRom rom = MapRom::program(3, true, routines);

    using TC = pif::TagClass;
    EXPECT_EQ(rom.lookup(TC::AnonymousVar, TC::Atom), 1u);
    EXPECT_EQ(rom.lookup(TC::Atom, TC::AnonymousVar), 1u);
    EXPECT_EQ(rom.lookup(TC::FirstDbVar, TC::Atom), 2u);
    EXPECT_EQ(rom.lookup(TC::SubDbVar, TC::FirstQueryVar), 3u);
    EXPECT_EQ(rom.lookup(TC::Atom, TC::FirstQueryVar), 4u);
    EXPECT_EQ(rom.lookup(TC::Integer, TC::SubQueryVar), 5u);
    EXPECT_EQ(rom.lookup(TC::Atom, TC::Atom), 6u);
    EXPECT_EQ(rom.lookup(TC::StructInline, TC::StructInline), 7u);
    EXPECT_EQ(rom.lookup(TC::StructInline, TC::TermListInline), 7u);
    EXPECT_EQ(rom.lookup(TC::StructPointer, TC::StructInline), 6u);
    // Impossible pairs trap.
    EXPECT_EQ(rom.lookup(TC::FirstQueryVar, TC::Atom), kMapTrap);
    EXPECT_EQ(rom.lookup(TC::Atom, TC::FirstDbVar), kMapTrap);
}

TEST(MapRomTest, CrossBindingOffSendsVariablesToSkip)
{
    RoutineAddresses routines;
    routines.skip = 9;
    routines.dbStore = 2;
    routines.queryFetch = 5;
    routines.matchSimple = 6;
    routines.matchComplex = 7;
    MapRom rom = MapRom::program(3, false, routines);
    using TC = pif::TagClass;
    EXPECT_EQ(rom.lookup(TC::FirstDbVar, TC::Atom), 9u);
    EXPECT_EQ(rom.lookup(TC::Atom, TC::SubQueryVar), 9u);
}

// ---------------------------------------------------------------------
// Double Buffer and Result Memory.
// ---------------------------------------------------------------------

TEST(DoubleBufferTest, PipelinesDeliveryAndProcessing)
{
    DoubleBuffer buffer(1024);
    // Clause 1 delivered at t=100, takes 50 to process.
    EXPECT_EQ(buffer.admit(100, 50, 100), 150u);
    EXPECT_EQ(buffer.stallTime(), 100u);
    // Clause 2 delivered at t=120 (while clause 1 processes): starts
    // at 150.
    EXPECT_EQ(buffer.admit(120, 30, 100), 180u);
    EXPECT_EQ(buffer.stallTime(), 100u);
    // Clause 3 delivered at 500: engine stalls 320.
    EXPECT_EQ(buffer.admit(500, 10, 100), 510u);
    EXPECT_EQ(buffer.stallTime(), 420u);
    EXPECT_EQ(buffer.clauses(), 3u);
}

TEST(DoubleBufferTest, OverrunDetection)
{
    DoubleBuffer buffer(1024);
    buffer.admit(100, 1000, 100);       // slow processing
    buffer.admit(200, 1000, 100);       // delivered while busy
    EXPECT_GE(buffer.overruns(), 1u);
}

TEST(DoubleBufferTest, EqualTimestampDeliveryCountsOverrun)
{
    // Regression: a clause delivered at exactly the same instant as
    // its predecessor (zero-length record, coalesced DMA completion)
    // still finds the bank busy; the old `prevDelivered_ < delivered`
    // comparison silently skipped the overrun check for it.
    DoubleBuffer buffer(1024);
    buffer.admit(100, 1000, 100);       // busy until 1100
    buffer.admit(100, 10, 100);         // same timestamp, bank busy
    EXPECT_EQ(buffer.overruns(), 1u);
    // Reordered history (later clause delivered earlier) still stays
    // exempt: the guard only fires for monotone delivery times.
    buffer.reset();
    buffer.admit(100, 1000, 100);
    buffer.admit(50, 10, 100);
    EXPECT_EQ(buffer.overruns(), 0u);
}

TEST(DoubleBufferTest, OversizedClauseIsFatal)
{
    DoubleBuffer buffer(64);
    EXPECT_THROW(buffer.admit(0, 0, 65), FatalError);
}

TEST(ResultMemoryTest, CapturesCommittedClauses)
{
    ResultMemory rm(32 * 1024, 512);
    EXPECT_EQ(rm.slotCount(), 64u);
    std::vector<std::uint8_t> a{1, 2, 3};
    std::vector<std::uint8_t> b{4, 5};
    rm.beginClause(a.data(), static_cast<std::uint32_t>(a.size()));
    rm.commit();
    rm.beginClause(b.data(), static_cast<std::uint32_t>(b.size()));
    rm.discard();
    std::vector<std::uint8_t> c{6};
    rm.beginClause(c.data(), 1);
    rm.commit();
    EXPECT_EQ(rm.satisfierCount(), 2u);
    EXPECT_EQ(rm.slot(0), a);
    EXPECT_EQ(rm.slot(1), c);
}

TEST(ResultMemoryTest, SixBitCounterOverflow)
{
    ResultMemory rm(2 * 512, 512);      // two slots only
    std::vector<std::uint8_t> data{9};
    for (int i = 0; i < 3; ++i) {
        rm.beginClause(data.data(), 1);
        rm.commit();
    }
    EXPECT_EQ(rm.satisfierCount(), 2u);
    EXPECT_TRUE(rm.overflowed());
}

TEST(ResultMemoryTest, SlotTruncation)
{
    ResultMemory rm(1024, 512);
    std::vector<std::uint8_t> big(600, 7);
    rm.beginClause(big.data(), 600);
    rm.commit();
    EXPECT_TRUE(rm.clauseTruncated());
    EXPECT_EQ(rm.slot(0).size(), 512u);
}

TEST(ResultMemoryTest, ResetClearsAllStickyStateForReplay)
{
    // Regression: a replayed query must not inherit the previous
    // query's overflow / truncation / dropped-satisfier state.
    ResultMemory rm(2 * 512, 512);      // two slots only
    std::vector<std::uint8_t> big(600, 7);
    for (int i = 0; i < 3; ++i) {       // overflows the 6-bit counter
        rm.beginClause(big.data(), 600);
        rm.commit();                    // and truncates every clause
    }
    ASSERT_TRUE(rm.overflowed());
    ASSERT_TRUE(rm.clauseTruncated());
    ASSERT_GT(rm.droppedSatisfiers(), 0u);

    rm.reset();
    EXPECT_EQ(rm.satisfierCount(), 0u);
    EXPECT_FALSE(rm.overflowed());
    EXPECT_FALSE(rm.clauseTruncated());
    EXPECT_EQ(rm.droppedSatisfiers(), 0u);

    // A replay is indistinguishable from the same query on a fresh
    // memory.
    ResultMemory fresh(2 * 512, 512);
    std::vector<std::uint8_t> small{1, 2, 3};
    for (ResultMemory *m : {&rm, &fresh}) {
        m->beginClause(small.data(), 3);
        m->commit();
    }
    EXPECT_EQ(rm.satisfierCount(), fresh.satisfierCount());
    EXPECT_EQ(rm.slot(0), fresh.slot(0));
    EXPECT_EQ(rm.overflowed(), fresh.overflowed());
    EXPECT_EQ(rm.clauseTruncated(), fresh.clauseTruncated());
}

TEST(ResultMemoryTest, WorstCaseSizingMatchesOneTrack)
{
    // 32 KB / 512-byte sectors = 64 clauses: one disk track.
    ResultMemory rm;
    storage::DiskGeometry g = storage::DiskGeometry::fujitsuM2351A();
    EXPECT_EQ(rm.slotCount() * rm.slotBytes(), g.trackBytes());
}

// ---------------------------------------------------------------------
// The full engine.
// ---------------------------------------------------------------------

class Fs2EngineTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::TermReader reader{sym};
    term::TermWriter writer{sym};

    storage::ClauseFile
    build(const std::string &text)
    {
        storage::ClauseFileBuilder builder(writer);
        for (const auto &c : reader.parseProgram(text))
            builder.add(c);
        return builder.finish();
    }
};

TEST_F(Fs2EngineTest, MarriedCoupleScenario)
{
    storage::ClauseFile file = build(
        "married_couple(john, mary).\n"
        "married_couple(pat, pat).\n"
        "married_couple(X, X).\n");
    term::ParsedQuery q = reader.parseQuery("married_couple(S, S)");
    Fs2Engine engine;
    engine.setQuery(q.arena, q.goals[0]);
    Fs2SearchResult r = engine.search(file);
    EXPECT_EQ(r.acceptedOrdinals, (std::vector<std::uint32_t>{1, 2}));
    EXPECT_EQ(r.clausesExamined, 3u);
    EXPECT_EQ(r.satisfiers, 2u);
}

TEST_F(Fs2EngineTest, BusyTimeIsTable1Weighted)
{
    storage::ClauseFile file = build("p(a, b).\n");
    term::ParsedQuery q = reader.parseQuery("p(a, b)");
    Fs2Engine engine;
    engine.setQuery(q.arena, q.goals[0]);
    Fs2SearchResult r = engine.search(file);
    // Two MATCH operations at 105 ns each.
    EXPECT_EQ(r.ops[static_cast<std::size_t>(TueOp::Match)], 2u);
    EXPECT_EQ(r.tueBusyTime, nanoseconds(210));
    EXPECT_EQ(r.sequencerTime, 0u);
}

TEST_F(Fs2EngineTest, SequencerOverheadConfigurable)
{
    storage::ClauseFile file = build("p(a).\n");
    term::ParsedQuery q = reader.parseQuery("p(a)");
    Fs2Config config;
    config.sequencerOverhead = nanoseconds(125);    // the 8 MHz clock
    Fs2Engine engine(config);
    engine.setQuery(q.arena, q.goals[0]);
    Fs2SearchResult r = engine.search(file);
    EXPECT_GT(r.sequencerTime, 0u);
    EXPECT_EQ(r.sequencerTime,
              nanoseconds(125) * r.microInstructions);
}

TEST_F(Fs2EngineTest, WithDiskElapsedIsDiskBound)
{
    std::string text;
    for (int i = 0; i < 50; ++i)
        text += "p(a" + std::to_string(i) + ", b).\n";
    storage::ClauseFile file = build(text);
    term::ParsedQuery q = reader.parseQuery("p(X, b)");
    storage::DiskModel disk(storage::DiskGeometry::fujitsuM2351A());

    Fs2Engine engine;
    engine.setQuery(q.arena, q.goals[0]);
    Fs2SearchResult r = engine.search(file, &disk);
    // The filter is far faster than the disk: elapsed is the disk
    // stream time plus at most the final clause's examination, the
    // engine never overruns, and it mostly stalls.
    EXPECT_GE(r.elapsed, r.diskTime);
    EXPECT_LT(r.elapsed - r.diskTime, 10 * kMicrosecond);
    EXPECT_EQ(r.overruns, 0u);
    EXPECT_GT(r.stallTime, 0u);
    EXPECT_GT(r.filterRate(), disk.geometry().transferRate);
}

TEST_F(Fs2EngineTest, SearchSelectedExaminesOnlyCandidates)
{
    storage::ClauseFile file = build(
        "p(a).\np(b).\np(a).\np(c).\np(a).\n");
    term::ParsedQuery q = reader.parseQuery("p(a)");
    Fs2Engine engine;
    engine.setQuery(q.arena, q.goals[0]);
    Fs2SearchResult r = engine.searchSelected(file, {0, 2, 3});
    EXPECT_EQ(r.clausesExamined, 3u);
    EXPECT_EQ(r.acceptedOrdinals, (std::vector<std::uint32_t>{0, 2}));
}

TEST_F(Fs2EngineTest, PredicateMismatchIsFatal)
{
    storage::ClauseFile file = build("p(a).\n");
    term::ParsedQuery q = reader.parseQuery("q(a)");
    Fs2Engine engine;
    engine.setQuery(q.arena, q.goals[0]);
    EXPECT_THROW(engine.search(file), FatalError);
}

TEST_F(Fs2EngineTest, SearchBeforeSetQueryPanics)
{
    storage::ClauseFile file = build("p(a).\n");
    Fs2Engine engine;
    EXPECT_DEATH(engine.search(file), "Set Query");
}

TEST_F(Fs2EngineTest, ZeroArityPredicate)
{
    storage::ClauseFile file = build("go.\ngo.\n");
    term::ParsedQuery q = reader.parseQuery("go");
    Fs2Engine engine;
    engine.setQuery(q.arena, q.goals[0]);
    Fs2SearchResult r = engine.search(file);
    EXPECT_EQ(r.acceptedOrdinals.size(), 2u);
}

TEST_F(Fs2EngineTest, ResultMemoryHoldsAcceptedRecords)
{
    storage::ClauseFile file = build("p(a).\np(b).\np(a).\n");
    term::ParsedQuery q = reader.parseQuery("p(a)");
    Fs2Engine engine;
    engine.setQuery(q.arena, q.goals[0]);
    Fs2SearchResult r = engine.search(file);
    ASSERT_EQ(r.satisfiers, 2u);
    // Read Result mode: slot 0 holds clause 0's record bytes.
    std::vector<std::uint8_t> slot0 = engine.results().slot(0);
    const storage::ClauseRecord &rec = file.record(0);
    std::vector<std::uint8_t> expected(
        file.image().begin() + rec.offset,
        file.image().begin() + rec.offset + rec.length);
    EXPECT_EQ(slot0, expected);
}

TEST_F(Fs2EngineTest, TracingRecordsRoutes)
{
    storage::ClauseFile file = build("p(a).\n");
    term::ParsedQuery q = reader.parseQuery("p(X)");
    Fs2Engine engine;
    engine.tue().setTracing(true);
    engine.setQuery(q.arena, q.goals[0]);
    engine.search(file);
    ASSERT_FALSE(engine.tue().trace().empty());
    EXPECT_EQ(engine.tue().trace()[0].op, TueOp::QueryStore);
    EXPECT_NE(engine.tue().trace()[0].route.find("Sel6"),
              std::string::npos);
}

/**
 * The central equivalence property: the microcoded engine and the
 * functional stream matcher agree exactly — verdicts, accepted sets
 * and operation counts — across randomized clause sets and queries,
 * at every level and cross-binding setting.
 */
class EngineEquivalence : public ::testing::TestWithParam<
                              std::tuple<int, bool>>
{
};

TEST_P(EngineEquivalence, MatchesFunctionalModel)
{
    auto [level, cross_binding] = GetParam();

    term::SymbolTable sym;
    term::TermWriter writer(sym);
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 2;
    spec.clausesPerPredicate = 120;
    spec.varProb = 0.25;
    spec.sharedVarProb = 0.35;
    spec.structProb = 0.3;
    spec.listProb = 0.1;
    spec.seed = 31 + static_cast<std::uint64_t>(level);
    term::Program program = kbgen.generate(spec);

    workload::QuerySpec qspec;
    qspec.boundArgProb = 0.45;
    qspec.sharedVarProb = 0.4;
    qspec.seed = 3;
    workload::QueryGenerator qgen(sym, qspec);

    pif::Encoder encoder;
    unify::PifMatcher matcher(
        unify::PifMatchConfig{level, cross_binding});

    for (const auto &pred : program.predicates()) {
        storage::ClauseFileBuilder builder(writer);
        for (std::size_t i : program.clausesOf(pred))
            builder.add(program.clause(i));
        storage::ClauseFile file = builder.finish();

        for (int qi = 0; qi < 5; ++qi) {
            workload::GeneratedQuery q = qgen.generate(program, pred);
            pif::EncodedArgs qargs = encoder.encodeArgs(
                q.arena, q.goal, pif::Side::Query);

            Fs2Config config;
            config.level = level;
            config.crossBinding = cross_binding;
            Fs2Engine engine(config);
            engine.setQuery(qargs, pred);
            Fs2SearchResult hw = engine.search(file);

            unify::TueOpCounts sw_ops{};
            std::vector<std::uint32_t> sw_accepted;
            for (std::size_t i = 0; i < file.clauseCount(); ++i) {
                unify::PifMatchResult m = matcher.match(
                    file.decodeArgs(i), qargs);
                if (m.hit)
                    sw_accepted.push_back(
                        static_cast<std::uint32_t>(i));
                for (std::size_t o = 0; o < unify::kTueOpCount; ++o)
                    sw_ops[o] += m.opCounts[o];
            }

            EXPECT_EQ(hw.acceptedOrdinals, sw_accepted)
                << "accepted sets diverge at level " << level;
            EXPECT_EQ(hw.ops, sw_ops)
                << "op counts diverge at level " << level;
        }
    }
}

/**
 * The compiled routines against their oracle, clause by clause: the
 * matcher the engine runs and the microcoded WCS, each driving its own
 * identically reset TUE over the same clause and query streams, must
 * agree in verdict, Table-1 op counts, TUE busy time, instruction
 * count and sequencer time — everything Fs2Engine's stream accounting
 * reads — at every level and cross-binding setting.  Nonzero sequencer
 * overhead so the tick streams diverge if an instruction is
 * mis-counted.
 */
TEST_P(EngineEquivalence, CompiledRoutinesMatchWcsPerClause)
{
    auto [level, cross_binding] = GetParam();

    term::SymbolTable sym;
    term::TermWriter writer(sym);
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 2;
    spec.clausesPerPredicate = 120;
    spec.varProb = 0.25;
    spec.sharedVarProb = 0.35;
    spec.structProb = 0.3;
    spec.listProb = 0.1;
    spec.seed = 97 + static_cast<std::uint64_t>(level);
    term::Program program = kbgen.generate(spec);

    workload::QuerySpec qspec;
    qspec.boundArgProb = 0.45;
    qspec.sharedVarProb = 0.4;
    qspec.seed = 11;
    workload::QueryGenerator qgen(sym, qspec);
    pif::Encoder encoder;
    const WcsConfig config{125 * kNanosecond, 1u << 20};

    for (const auto &pred : program.predicates()) {
        storage::ClauseFileBuilder builder(writer);
        for (std::size_t i : program.clausesOf(pred))
            builder.add(program.clause(i));
        storage::ClauseFile file = builder.finish();

        for (int qi = 0; qi < 5; ++qi) {
            workload::GeneratedQuery q = qgen.generate(program, pred);
            pif::EncodedArgs qargs = encoder.encodeArgs(
                q.arena, q.goal, pif::Side::Query);

            Wcs wcs = Wcs::programmed(level, cross_binding, config);
            CompiledMatcher compiled(level, cross_binding, config);
            for (std::size_t c = 0; c < file.clauseCount(); ++c) {
                const std::string label = "level " +
                    std::to_string(level) +
                    (cross_binding ? " cb" : " nocb") + " query " +
                    std::to_string(qi) + " clause " + std::to_string(c);
                pif::EncodedArgs db = file.decodeArgs(c);
                const std::uint32_t arity = file.record(c).arity;
                TestUnificationEngine wcs_tue(level, cross_binding);
                TestUnificationEngine compiled_tue(level, cross_binding);
                wcs_tue.resetForClause(db.varSlots, qargs.varSlots);
                compiled_tue.resetForClause(db.varSlots, qargs.varSlots);
                wcs.resetStats();
                compiled.resetStats();

                EXPECT_EQ(compiled.runClause(compiled_tue, db.items, arity,
                                             qargs),
                          wcs.runClause(wcs_tue, db.items, arity, qargs))
                    << label;
                EXPECT_EQ(compiled_tue.opCounts(), wcs_tue.opCounts())
                    << label;
                EXPECT_EQ(compiled_tue.busyTime(), wcs_tue.busyTime())
                    << label;
                EXPECT_EQ(compiled.instructionsExecuted(),
                          wcs.instructionsExecuted())
                    << label;
                EXPECT_EQ(compiled.sequencerTime(), wcs.sequencerTime())
                    << label;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EngineEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Bool()),
    [](const auto &info) {
        return "L" + std::to_string(std::get<0>(info.param)) +
            (std::get<1>(info.param) ? "_cb" : "_nocb");
    });

// ---------------------------------------------------------------------
// WCS accounting: the sequencer clock is instructions x overhead.
// ---------------------------------------------------------------------

TEST(WcsAccountingTest, SequencerTimeIsInstructionsTimesOverhead)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermWriter writer(sym);
    storage::ClauseFileBuilder builder(writer);
    for (auto &c : reader.parseProgram(
             "p(a, f(b, c)).\np(X, g(X)).\np(b, [1, 2, 3]).\n"))
        builder.add(c);
    storage::ClauseFile file = builder.finish();
    term::ParsedQuery q = reader.parseQuery("p(X, Y)");

    for (Tick overhead : {Tick{0}, 125 * kNanosecond, 7 * kNanosecond}) {
        Fs2Config config;
        config.sequencerOverhead = overhead;
        Fs2Engine engine(config);
        engine.setQuery(q.arena, q.goals[0]);
        Fs2SearchResult r = engine.search(file);
        EXPECT_GT(r.microInstructions, 0u);
        EXPECT_EQ(r.sequencerTime,
                  static_cast<Tick>(r.microInstructions) * overhead)
            << "overhead " << overhead;
    }
}

// ---------------------------------------------------------------------
// The record walker: exact decode, and searches that do not allocate
// per examined clause.
// ---------------------------------------------------------------------

/** Clause files built from @p program, one per predicate. */
std::vector<std::pair<storage::ClauseFile, std::vector<std::size_t>>>
clauseFiles(const term::Program &program, const term::TermWriter &writer)
{
    std::vector<std::pair<storage::ClauseFile, std::vector<std::size_t>>>
        files;
    for (const auto &pred : program.predicates()) {
        storage::ClauseFileBuilder builder(writer);
        for (std::size_t i : program.clausesOf(pred))
            builder.add(program.clause(i));
        files.emplace_back(builder.finish(), program.clausesOf(pred));
    }
    return files;
}

/**
 * Every record the walker decodes equals what the builder encoded —
 * items, argument index and variable slots — with one scratch reused
 * across records of every width, and equals the fresh decodeArgs().
 * The files cover every item shape a stored record carries: 9-byte
 * structure pointers (nested and arity > 31), arity-31 in-line
 * complex items, lists, floats, and anonymous, first and subsequent
 * database variables.
 */
TEST(RecordWalkerTest, DecodesExactlyWhatTheEncoderWrote)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermWriter writer(sym);

    std::string wide = "w(a0";
    for (int i = 1; i < 31; ++i)
        wide += ", a" + std::to_string(i);
    wide += ")";
    std::string huge = "h(X";
    for (int i = 1; i < 40; ++i)
        huge += ", " + std::to_string(i);
    huge += ")";
    term::Program handmade;
    for (term::Clause &c : reader.parseProgram(
             "p(f(g(a), X), [1, 2 | T], _, X, T).\n"
             "p(" + wide + ", " + huge + ", 4.25, _, Y) :- q(Y).\n"
             "p(a, b, c, d, e).\n"
             "p(k(Y, Y, _), [Z, [Z]], " + wide + ", Y, Z).\n"))
        handmade.add(std::move(c));

    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 3;
    spec.clausesPerPredicate = 150;
    spec.arityMax = 6;
    spec.varProb = 0.3;
    spec.sharedVarProb = 0.4;
    spec.structProb = 0.35;
    spec.listProb = 0.15;
    spec.floatProb = 0.05;
    spec.seed = 71;
    term::Program generated = kbgen.generate(spec);

    pif::Encoder encoder;
    std::set<pif::TagClass> classes;
    bool arity31_inline = false;
    pif::EncodedArgs scratch;
    for (const term::Program *program : {&handmade, &generated}) {
        for (const auto &[file, clauses] : clauseFiles(*program, writer)) {
            for (std::size_t c = 0; c < file.clauseCount(); ++c) {
                const term::Clause &clause = program->clause(clauses[c]);
                pif::EncodedArgs want = encoder.encodeArgs(
                    clause.arena(), clause.head(), pif::Side::Db);
                file.decodeArgsInto(c, scratch);
                EXPECT_EQ(scratch.items, want.items) << "clause " << c;
                EXPECT_EQ(scratch.argIndex, want.argIndex)
                    << "clause " << c;
                EXPECT_EQ(scratch.varSlots, want.varSlots)
                    << "clause " << c;
                pif::EncodedArgs fresh = file.decodeArgs(c);
                EXPECT_EQ(fresh.items, want.items) << "clause " << c;
                EXPECT_EQ(fresh.argIndex, want.argIndex) << "clause " << c;
                EXPECT_EQ(fresh.varSlots, want.varSlots) << "clause " << c;
                for (const pif::PifItem &item : want.items) {
                    classes.insert(pif::tagClass(item.tag));
                    arity31_inline |= pif::isInlineComplexTag(item.tag) &&
                        pif::tagArity(item.tag) == pif::kMaxInlineArity;
                }
            }
        }
    }
    EXPECT_TRUE(arity31_inline);
    for (pif::TagClass cls :
         {pif::TagClass::StructPointer, pif::TagClass::StructInline,
          pif::TagClass::UntermListInline, pif::TagClass::Float,
          pif::TagClass::AnonymousVar, pif::TagClass::FirstDbVar,
          pif::TagClass::SubDbVar})
        EXPECT_EQ(classes.count(cls), 1u) << pif::tagClassName(cls);
}

/**
 * An FS2 search allocates the same whether it examines N clauses or
 * 4N: decoding, matching and the TUE operations allocate nothing per
 * clause.  The query accepts only clause 0 in either file, so the
 * accepted-ordinal list grows alike.
 */
TEST_F(Fs2EngineTest, SearchAllocationsDoNotGrowWithClauseCount)
{
    if (!support::allocCountingEnabled())
        GTEST_SKIP() << "build with -DCLARE_COUNT_ALLOCS=ON";

    auto file_of = [&](int n) {
        std::string text;
        for (int k = 0; k < n; ++k)
            text += "p(f(g(a), X, [1, 2 | T]), X, k(Y, Y, _), T, " +
                std::to_string(k) + ").\n";
        return build(text);
    };
    const storage::ClauseFile small = file_of(100);
    const storage::ClauseFile large = file_of(400);
    term::ParsedQuery q = reader.parseQuery(
        "p(f(A, B, C), B, k(D, E, _), F, 0)");
    storage::DiskModel disk(storage::DiskGeometry::fujitsuM2351A());

    auto search_allocs = [&](const storage::ClauseFile &file,
                             bool selected) {
        std::vector<std::uint32_t> ordinals;
        for (std::size_t i = 0; i < file.clauseCount(); ++i)
            ordinals.push_back(static_cast<std::uint32_t>(i));
        Fs2Engine engine;
        engine.setQuery(q.arena, q.goals[0]);
        const std::uint64_t before = support::allocationCount();
        Fs2SearchResult r = selected
            ? engine.searchSelected(file, ordinals, &disk)
            : engine.search(file, &disk);
        const std::uint64_t allocs = support::allocationCount() - before;
        EXPECT_EQ(r.clausesExamined, file.clauseCount());
        EXPECT_EQ(r.acceptedOrdinals, std::vector<std::uint32_t>{0});
        return allocs;
    };
    // The first search of the process also builds one-time tables
    // (the datapath operation specs); keep it out of the comparison.
    search_allocs(small, false);
    for (bool selected : {false, true}) {
        const std::uint64_t n_allocs = search_allocs(small, selected);
        const std::uint64_t four_n_allocs = search_allocs(large, selected);
        EXPECT_EQ(n_allocs, four_n_allocs)
            << (selected ? "searchSelected" : "search");
    }
}

} // namespace
} // namespace clare::fs2
