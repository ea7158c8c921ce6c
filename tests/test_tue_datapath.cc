/**
 * @file
 * Tests for the selector-level TUE structural model: memory reset
 * semantics, observable store effects (the data really lands at the
 * addressed cell), cross-bound reference walking, and exact
 * equivalence — verdicts and per-pair operation sequences — with the
 * shared functional core over randomized variable-heavy streams.
 */

#include <gtest/gtest.h>

#include "oracle/tue_datapath.hh"
#include "pif/encoder.hh"
#include "term/term_reader.hh"
#include "unify/pair_engine.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

namespace clare::fs2 {
namespace {

using pif::PifItem;
using unify::TueOp;

class TueDatapathTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::TermReader reader{sym};
    pif::Encoder encoder;
    TueDatapath dp;

    pif::EncodedArgs
    encode(const std::string &text, pif::Side side)
    {
        term::ParsedTerm t = reader.parseTerm(text);
        return encoder.encodeArgs(t.arena, t.root, side);
    }
};

TEST_F(TueDatapathTest, QueryMemoryLayout)
{
    pif::EncodedArgs q = encode("p(X, a, X)", pif::Side::Query);
    dp.loadQuery(q);
    dp.resetForClause(0);
    EXPECT_EQ(dp.queryItem(1).content, sym.lookup("a"));
    EXPECT_FALSE(dp.queryCell(0).bound);    // X starts unbound
}

TEST_F(TueDatapathTest, DbStoreDepositsQueryArgument)
{
    pif::EncodedArgs q = encode("p(foo)", pif::Side::Query);
    pif::EncodedArgs c = encode("p(V)", pif::Side::Db);
    dp.loadQuery(q);
    dp.resetForClause(c.varSlots);

    TueExecResult r = dp.execute(c.items[0], 0);
    EXPECT_TRUE(r.hit);
    ASSERT_EQ(r.performed, (std::vector<TueOp>{TueOp::DbStore}));
    // Figure 7's effect: the query item now sits in DB Memory at the
    // variable's offset.
    ASSERT_TRUE(dp.dbCell(0).bound);
    EXPECT_EQ(dp.dbCell(0).item, q.items[0]);
}

TEST_F(TueDatapathTest, QueryStoreDepositsDbArgument)
{
    pif::EncodedArgs q = encode("p(X)", pif::Side::Query);
    pif::EncodedArgs c = encode("p(bar)", pif::Side::Db);
    dp.loadQuery(q);
    dp.resetForClause(0);

    TueExecResult r = dp.execute(c.items[0], 0);
    EXPECT_TRUE(r.hit);
    ASSERT_EQ(r.performed, (std::vector<TueOp>{TueOp::QueryStore}));
    ASSERT_TRUE(dp.queryCell(0).bound);
    EXPECT_EQ(dp.queryCell(0).item, c.items[0]);
}

TEST_F(TueDatapathTest, SubsequentFetchComparesBinding)
{
    pif::EncodedArgs q = encode("p(S, S)", pif::Side::Query);
    dp.loadQuery(q);

    // married_couple(john, mary): mismatch caught on the fetch.
    pif::EncodedArgs miss = encode("p(john, mary)", pif::Side::Db);
    dp.resetForClause(0);
    EXPECT_TRUE(dp.execute(miss.items[0], 0).hit);
    TueExecResult r = dp.execute(miss.items[1], 1);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.performed, (std::vector<TueOp>{TueOp::QueryFetch}));

    // (pat, pat) passes.
    pif::EncodedArgs hit = encode("p(pat, pat)", pif::Side::Db);
    dp.resetForClause(0);
    EXPECT_TRUE(dp.execute(hit.items[0], 0).hit);
    EXPECT_TRUE(dp.execute(hit.items[1], 1).hit);
}

TEST_F(TueDatapathTest, ResetClearsBothMemories)
{
    pif::EncodedArgs q = encode("p(X)", pif::Side::Query);
    pif::EncodedArgs c = encode("p(bar)", pif::Side::Db);
    dp.loadQuery(q);
    dp.resetForClause(1);
    dp.execute(c.items[0], 0);
    EXPECT_TRUE(dp.queryCell(0).bound);
    dp.resetForClause(1);
    EXPECT_FALSE(dp.queryCell(0).bound);
    EXPECT_FALSE(dp.dbCell(0).bound);
}

TEST_F(TueDatapathTest, PaperCrossBindingWalk)
{
    // Section 3.3.6: f(X,a,b) against f(A,a,A).
    pif::EncodedArgs q = encode("f(X, a, b)", pif::Side::Query);
    pif::EncodedArgs c = encode("f(A, a, A)", pif::Side::Db);
    dp.loadQuery(q);
    dp.resetForClause(c.varSlots);

    TueExecResult r0 = dp.execute(c.items[0], 0);
    EXPECT_TRUE(r0.hit);    // mutual var-var store
    EXPECT_EQ(r0.performed,
              (std::vector<TueOp>{TueOp::DbStore, TueOp::QueryStore}));
    // DB Memory holds the reference to the query variable.
    EXPECT_TRUE(pif::isQueryVarItem(dp.dbCell(0).item));

    EXPECT_TRUE(dp.execute(c.items[1], 1).hit);     // a vs a

    TueExecResult r2 = dp.execute(c.items[2], 2);   // Sub-DV A vs b
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.performed,
              (std::vector<TueOp>{TueOp::DbCrossBoundFetch}));
}

TEST_F(TueDatapathTest, QueryCrossBoundFetchFires)
{
    pif::EncodedArgs q = encode("f(X, X)", pif::Side::Query);
    pif::EncodedArgs c = encode("f(A, b)", pif::Side::Db);
    dp.loadQuery(q);
    dp.resetForClause(c.varSlots);
    dp.execute(c.items[0], 0);
    TueExecResult r = dp.execute(c.items[1], 1);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.performed,
              (std::vector<TueOp>{TueOp::QueryCrossBoundFetch}));
}

TEST_F(TueDatapathTest, ComplexHeaderMatch)
{
    pif::EncodedArgs q = encode("p(f(a, b))", pif::Side::Query);
    dp.loadQuery(q);
    dp.resetForClause(0);
    pif::EncodedArgs same = encode("p(f(x, y))", pif::Side::Db);
    // Header-level compare of f/2 vs f/2 passes; elements are the
    // sequencer's business.
    EXPECT_TRUE(dp.execute(same.items[0], 0).hit);
    pif::EncodedArgs other = encode("p(g(x, y))", pif::Side::Db);
    EXPECT_FALSE(dp.execute(other.items[0], 0).hit);
}

/**
 * Equivalence property: over randomized variable-heavy argument
 * streams (simple arguments, so pairs align one to one), the
 * structural machine and the functional PairEngine produce identical
 * verdicts and identical per-pair operation sequences.
 */
TEST(TueDatapathEquivalence, MatchesPairEngine)
{
    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 400;
    spec.arityMin = 4;
    spec.arityMax = 6;
    spec.varProb = 0.45;
    spec.sharedVarProb = 0.5;
    spec.structProb = 0.0;      // simple args: pairs align 1:1
    spec.listProb = 0.0;
    spec.atomVocabulary = 6;    // plenty of accidental matches
    spec.seed = 77;
    term::Program program = kbgen.generate(spec);
    const auto &pred = program.predicates()[0];

    workload::QuerySpec qspec;
    qspec.boundArgProb = 0.35;
    qspec.sharedVarProb = 0.6;
    qspec.seed = 5;
    workload::QueryGenerator qgen(sym, qspec);

    pif::Encoder encoder;
    for (int qi = 0; qi < 8; ++qi) {
        workload::GeneratedQuery q = qgen.generate(program, pred);
        pif::EncodedArgs qargs = encoder.encodeArgs(q.arena, q.goal,
                                                    pif::Side::Query);
        TueDatapath dp;
        dp.loadQuery(qargs);
        unify::PairEngine engine(3, true);

        for (std::size_t ci : program.clausesOf(pred)) {
            const term::Clause &clause = program.clause(ci);
            pif::EncodedArgs cargs = encoder.encodeArgs(
                clause.arena(), clause.head(), pif::Side::Db);

            dp.resetForClause(cargs.varSlots);
            engine.reset(cargs.varSlots, qargs.varSlots);

            for (std::size_t a = 0; a < cargs.items.size(); ++a) {
                std::vector<TueOp> functional_ops;
                bool functional_hit = engine.matchPair(
                    cargs.items[a], qargs.items[a],
                    [&functional_ops](TueOp op) {
                        functional_ops.push_back(op);
                    });
                TueExecResult structural = dp.execute(cargs.items[a], a);
                ASSERT_EQ(structural.hit, functional_hit)
                    << "verdict divergence, clause " << ci
                    << " arg " << a;
                ASSERT_EQ(structural.performed, functional_ops)
                    << "op divergence, clause " << ci << " arg " << a;
                if (!functional_hit)
                    break;  // both reject: next clause
            }
        }
    }
}

} // namespace
} // namespace clare::fs2
