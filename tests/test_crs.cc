/**
 * @file
 * CRS tests: predicate store layout, the four retrieval modes (answer
 * equality, candidate-set quality ordering), mode selection, host
 * unification against decoded heads (parse-then-wouldUnify oracle,
 * decode-once accounting), the SoftwareOnly scan's allocation bound,
 * and the lock manager / transactions.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "crs/live_update.hh"
#include "crs/server.hh"
#include "crs/store.hh"
#include "crs/transaction.hh"
#include "support/alloc_counter.hh"
#include "support/logging.hh"
#include "term/term_reader.hh"
#include "unify/oracle.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

namespace clare::crs {
namespace {

class CrsTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::TermReader reader{sym};
    std::unique_ptr<PredicateStore> store;
    std::unique_ptr<ClauseRetrievalServer> server;

    void
    buildStore(const std::string &text)
    {
        term::Program program;
        for (auto &c : reader.parseProgram(text))
            program.add(std::move(c));
        store = std::make_unique<PredicateStore>(
            sym, scw::CodewordGenerator{});
        store->addProgram(program);
        store->finalize();
        server = std::make_unique<ClauseRetrievalServer>(sym, *store);
    }

    RetrievalResponse
    retrieve(const std::string &goal_text, SearchMode mode)
    {
        term::ParsedTerm goal = reader.parseTerm(goal_text);
        RetrievalRequest request;
        request.arena = &goal.arena;
        request.goal = goal.root;
        request.mode = mode;
        return server->serve(request);
    }
};

TEST_F(CrsTest, StoreLayout)
{
    buildStore("p(a).\np(b).\nq(c, d).\n");
    term::PredicateId p{sym.lookup("p"), 1};
    term::PredicateId q{sym.lookup("q"), 2};
    EXPECT_TRUE(store->has(p));
    EXPECT_TRUE(store->has(q));
    EXPECT_FALSE(store->has(term::PredicateId{sym.lookup("p"), 2}));
    EXPECT_EQ(store->predicate(p).clauses.clauseCount(), 2u);
    // finalize() lays the images end to end in predicate order: the
    // offsets tile [0, dataBytes()) and [0, indexBytes()) exactly.
    std::uint64_t data_at = 0;
    std::uint64_t index_at = 0;
    for (const term::PredicateId &pred : store->predicates()) {
        const StoredPredicate &stored = store->predicate(pred);
        EXPECT_EQ(stored.clauseFileOffset, data_at);
        EXPECT_EQ(stored.indexFileOffset, index_at);
        data_at += stored.clauses.image().size();
        index_at += stored.index.image().size();
    }
    EXPECT_EQ(data_at, store->dataBytes());
    EXPECT_EQ(index_at, store->indexBytes());
    // q's clause file sits after p's on the data disk.
    EXPECT_GT(store->predicate(q).clauseFileOffset, 0u);
}

TEST_F(CrsTest, RuleFractionTracked)
{
    buildStore("r(a).\nr(X) :- r(a).\nr(b).\nr(Y) :- r(b).\n");
    term::PredicateId r{sym.lookup("r"), 1};
    EXPECT_DOUBLE_EQ(store->predicate(r).ruleFraction, 0.5);
}

TEST_F(CrsTest, UnknownPredicateIsFatal)
{
    buildStore("p(a).\n");
    EXPECT_THROW(retrieve("nosuch(a)", SearchMode::SoftwareOnly),
                 FatalError);
}

TEST_F(CrsTest, AllModesAgreeOnAnswers)
{
    buildStore(
        "edge(a, b).\n"
        "edge(b, c).\n"
        "edge(a, a).\n"
        "edge(X, X).\n"
        "edge(c, d).\n");
    for (SearchMode mode : {SearchMode::SoftwareOnly,
                            SearchMode::Fs1Only, SearchMode::Fs2Only,
                            SearchMode::TwoStage}) {
        RetrievalResponse r = retrieve("edge(a, Y)", mode);
        EXPECT_EQ(r.answers, (std::vector<std::uint32_t>{0, 2, 3}))
            << searchModeName(mode);
        // Candidates are always a superset of answers, in order.
        EXPECT_GE(r.candidates.size(), r.answers.size());
    }
}

TEST_F(CrsTest, SharedVariableAnswersAcrossModes)
{
    buildStore(
        "married_couple(john, mary).\n"
        "married_couple(pat, pat).\n"
        "married_couple(X, X).\n"
        "married_couple(ann, bob).\n");
    for (SearchMode mode : {SearchMode::SoftwareOnly,
                            SearchMode::Fs1Only, SearchMode::Fs2Only,
                            SearchMode::TwoStage}) {
        RetrievalResponse r = retrieve("married_couple(S, S)", mode);
        EXPECT_EQ(r.answers, (std::vector<std::uint32_t>{1, 2}))
            << searchModeName(mode);
    }
}

TEST_F(CrsTest, Fs2ReducesFalseDropsVersusFs1)
{
    buildStore(
        "married_couple(john, mary).\n"
        "married_couple(pat, pat).\n"
        "married_couple(ann, bob).\n"
        "married_couple(eve, adam).\n");
    RetrievalResponse fs1 = retrieve("married_couple(S, S)",
                                   SearchMode::Fs1Only);
    RetrievalResponse two = retrieve("married_couple(S, S)",
                                   SearchMode::TwoStage);
    // FS1 passes the whole predicate; FS2 keeps only the true answer.
    EXPECT_EQ(fs1.candidates.size(), 4u);
    EXPECT_EQ(two.candidates.size(), 1u);
    EXPECT_LT(two.falseDrops(), fs1.falseDrops());
}

TEST_F(CrsTest, TwoStageCandidatesSubsetOfFs1)
{
    buildStore(
        "p(a, b).\np(a, c).\np(b, b).\np(X, Y).\np(a, a).\n");
    RetrievalResponse fs1 = retrieve("p(a, Z)", SearchMode::Fs1Only);
    RetrievalResponse two = retrieve("p(a, Z)", SearchMode::TwoStage);
    for (std::uint32_t c : two.candidates) {
        EXPECT_NE(std::find(fs1.candidates.begin(), fs1.candidates.end(),
                            c), fs1.candidates.end());
    }
}

// Regression: falseDrops() computed candidates - answers on unsigned
// sizes, so a false *negative* (an answer the filter missed, i.e. a
// filter-correctness bug) underflowed to ~2^64 instead of reporting
// anything usable.  Release builds clamp at zero and expose the
// violation through falseNegatives(); debug builds assert.
TEST_F(CrsTest, FalseDropsClampInsteadOfUnderflowing)
{
    RetrievalResponse r;
    r.candidates = {3};
    r.answers = {3, 7};     // one answer the filter never produced
#ifdef NDEBUG
    EXPECT_EQ(r.falseDrops(), 0u);
    EXPECT_EQ(r.falseDropRate(), 0.0);
#else
    EXPECT_DEATH(r.falseDrops(), "false negative");
#endif
    EXPECT_EQ(r.falseNegatives(), 1u);

    RetrievalResponse ok;
    ok.candidates = {1, 2, 3};
    ok.answers = {2};
    EXPECT_EQ(ok.falseDrops(), 2u);
    EXPECT_EQ(ok.falseNegatives(), 0u);
}

TEST_F(CrsTest, TimingFieldsPopulated)
{
    buildStore("p(a).\np(b).\np(c).\n");
    RetrievalResponse sw = retrieve("p(a)", SearchMode::SoftwareOnly);
    EXPECT_GT(sw.breakdown.filterTime, 0u);
    EXPECT_GT(sw.elapsed, 0u);
    RetrievalResponse fs1 = retrieve("p(a)", SearchMode::Fs1Only);
    EXPECT_GT(fs1.breakdown.indexTime, 0u);
    RetrievalResponse two = retrieve("p(a)", SearchMode::TwoStage);
    EXPECT_GT(two.breakdown.indexTime, 0u);
    EXPECT_GT(two.elapsed, two.breakdown.indexTime);
    // The breakdown is the authoritative accounting: its service time
    // (queue wait excluded) is exactly the reported latency.
    EXPECT_EQ(two.breakdown.serviceTime(), two.elapsed);
    EXPECT_EQ(two.breakdown.queueWait, 0u);
    EXPECT_EQ(two.breakdown.total(), two.elapsed);
}

TEST_F(CrsTest, ProfileQuery)
{
    buildStore("p(a).\n");      // store content irrelevant here
    term::ParsedTerm t = reader.parseTerm("q(a, X, f(Y), X, g(b))");
    QueryProfile prof = ClauseRetrievalServer::profileQuery(t.arena,
                                                            t.root);
    EXPECT_EQ(prof.arity, 5u);
    EXPECT_EQ(prof.groundArgs, 2u);         // a, g(b)
    EXPECT_EQ(prof.variableArgs, 2u);       // X, X
    EXPECT_TRUE(prof.hasSharedVars);        // X twice
    EXPECT_TRUE(prof.hasVarBearingStructures);  // f(Y)
}

TEST_F(CrsTest, ModeSelectionHeuristics)
{
    buildStore(
        "fact_pred(a, b).\nfact_pred(c, d).\n"
        "rule_pred(a) :- fact_pred(a, b).\n"
        "rule_pred(b) :- fact_pred(c, d).\n"
        "rule_pred(c).\n");
    auto mode_for = [&](const std::string &text) {
        term::ParsedTerm t = reader.parseTerm(text);
        return server->selectMode(t.arena, t.root);
    };
    // Shared variables need FS2; with ground args the index helps too.
    EXPECT_EQ(mode_for("fact_pred(S, S)"), SearchMode::Fs2Only);
    EXPECT_EQ(mode_for("fact_pred(a, f(X, X))"), SearchMode::TwoStage);
    // All-variable queries cannot be filtered.
    EXPECT_EQ(mode_for("fact_pred(X, Y)"), SearchMode::SoftwareOnly);
    // Ground query on a fact-intensive predicate: the index suffices.
    EXPECT_EQ(mode_for("fact_pred(a, b)"), SearchMode::Fs1Only);
    // Ground query on a rule-intensive predicate: two stages.
    EXPECT_EQ(mode_for("rule_pred(a)"), SearchMode::TwoStage);
}

TEST_F(CrsTest, ServeDefaultsToSelectedMode)
{
    buildStore("p(a, b).\np(c, d).\n");
    term::ParsedTerm t = reader.parseTerm("p(a, X)");
    RetrievalRequest request;
    request.arena = &t.arena;
    request.goal = t.root;
    RetrievalResponse r = server->serve(request);
    EXPECT_EQ(r.mode, server->selectMode(t.arena, t.root));
}

/**
 * A SoftwareOnly serve() allocates the same whether its scan examines
 * N clauses or 4N: the record walker and the stream matcher's binding
 * cells are reused clause to clause.  Both heads and goal carry
 * variables, so a matcher that built fresh cells per clause would
 * allocate per clause; the goal accepts only clause 0 in either file,
 * so the candidate and answer lists grow alike.
 */
TEST_F(CrsTest, SoftwareOnlyServeAllocationsDoNotGrowWithClauseCount)
{
    if (!support::allocCountingEnabled())
        GTEST_SKIP() << "build with -DCLARE_COUNT_ALLOCS=ON";

    auto serve_allocs = [&](int n) {
        std::string text;
        for (int k = 0; k < n; ++k)
            text += "p(a" + std::to_string(k) + ", X, g(X, Y, Y)).\n";
        buildStore(text);
        term::ParsedTerm goal = reader.parseTerm("p(a0, B, g(C, D, E))");
        RetrievalRequest request;
        request.arena = &goal.arena;
        request.goal = goal.root;
        request.mode = SearchMode::SoftwareOnly;
        // The first serve also decodes the candidate's head and
        // resolves the server's instruments; keep it out of the count.
        server->serve(request);
        const std::uint64_t before = support::allocationCount();
        RetrievalResponse r = server->serve(request);
        const std::uint64_t allocs = support::allocationCount() - before;
        EXPECT_EQ(r.clausesExamined, static_cast<std::uint64_t>(n));
        EXPECT_EQ(r.answers, std::vector<std::uint32_t>{0});
        return allocs;
    };
    const std::uint64_t n_allocs = serve_allocs(100);
    const std::uint64_t four_n_allocs = serve_allocs(400);
    EXPECT_EQ(n_allocs, four_n_allocs);
}

// ---------------------------------------------------------------------
// Locks and transactions.
// ---------------------------------------------------------------------

term::PredicateId
pred(std::uint32_t functor, std::uint32_t arity = 1)
{
    return term::PredicateId{functor, arity};
}

// ---------------------------------------------------------------------
// Host unification against decoded heads.  The oracle re-reads each
// clause's source text, parses it, and asks unify::wouldUnify().
// ---------------------------------------------------------------------

/**
 * For every clause of the goal's predicate, HeadUnifier must agree
 * with the oracle — once cold (each head parsed on first touch) and
 * once warm (every head already decoded, nothing parsed again).
 */
void
expectHeadsMatchOracle(term::SymbolTable &sym, const PredicateStore &store,
                       const term::TermArena &q_arena, term::TermRef goal)
{
    term::TermReader reader(sym);
    term::PredicateId pred =
        q_arena.kind(goal) == term::TermKind::Atom
            ? term::PredicateId{q_arena.atomSymbol(goal), 0}
            : term::PredicateId{q_arena.functor(goal), q_arena.arity(goal)};
    const StoredPredicate &stored = store.predicate(pred);
    const std::uint32_t n =
        static_cast<std::uint32_t>(stored.clauses.clauseCount());
    std::vector<bool> expect(n);
    for (std::uint32_t i = 0; i < n; ++i)
        expect[i] = unify::wouldUnify(
            q_arena, goal,
            reader.parseClause(stored.clauses.sourceText(i)));
    for (int pass = 0; pass < 2; ++pass) {
        HeadUnifier unifier(stored, sym, q_arena, goal);
        for (std::uint32_t i = 0; i < n; ++i)
            EXPECT_EQ(unifier.unifies(i), expect[i])
                << "clause " << stored.clauses.sourceText(i)
                << " pass " << pass;
        if (pass == 1) {
            EXPECT_EQ(unifier.decoded(), 0u);
        }
    }
}

TEST(HeadUnifierTest, SeededKbsMatchParseThenWouldUnify)
{
    for (std::uint64_t seed : {3u, 11u, 29u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        term::SymbolTable sym;
        workload::KbSpec spec;
        spec.predicates = 3;
        spec.clausesPerPredicate = 120;
        spec.arityMin = 1;
        spec.structProb = 0.3;
        spec.listProb = 0.15;
        spec.floatProb = 0.05;
        spec.varProb = 0.2;
        spec.sharedVarProb = 0.3;
        spec.seed = seed;
        workload::KbGenerator kbgen(sym);
        term::Program program = kbgen.generate(spec);
        PredicateStore store(sym, scw::CodewordGenerator{});
        store.addProgram(program);
        store.finalize();

        workload::QuerySpec qspec;
        qspec.boundArgProb = 0.5;
        qspec.sharedVarProb = 0.3;
        qspec.seed = seed + 1;
        workload::QueryGenerator qgen(sym, qspec);
        for (int i = 0; i < 12; ++i) {
            const term::PredicateId &pred =
                program.predicates()[i % program.predicates().size()];
            workload::GeneratedQuery q = qgen.generate(program, pred);
            expectHeadsMatchOracle(sym, store, q.arena, q.goal);
        }
    }
}

TEST_F(CrsTest, BoundaryHeadsMatchParseThenWouldUnify)
{
    // Integers just inside and outside the 29-bit inline cell range,
    // at the edge of the 36-bit PIF range, floats, anonymous and
    // repeated variables, partial lists, nesting, and arity > 31.
    std::string wide_args;
    std::string wide_vars;
    for (int i = 0; i < 40; ++i) {
        wide_args += (i ? ", " : "") + std::string(i % 3 ? "k" : "V") +
                     std::to_string(i);
        wide_vars += (i ? ", " : "") + std::string("_");
    }
    buildStore("b(268435455, 268435456).\n"
               "b(-268435456, -268435457).\n"
               "b(34359738367, -34359738368).\n"
               "b(1.5, -0.25).\n"
               "b(_, _).\n"
               "b(X, X).\n"
               "b([a, b | T], T).\n"
               "b([a, b], [c]).\n"
               "b(f(g(h(X)), [X | Y]), Y).\n"
               "b(f(g(h(1)), [2]), z).\n"
               "w(" + wide_args + ").\n"
               "w(" + wide_vars + ").\n");
    const std::vector<std::string> goals = {
        "b(268435455, X)", "b(X, 268435456)", "b(-268435457, X)",
        "b(X, -268435456)", "b(34359738367, Y)", "b(Y, -34359738368)",
        "b(1.5, X)", "b(X, -0.25)", "b(X, Y)", "b(X, X)", "b(_, _)",
        "b([a | R], S)", "b([a, b, c], Z)", "b([A, B | C], C)",
        "b(f(g(h(1)), L), M)", "b(f(g(h(Q)), [2]), Q)", "b(z, z)",
        "w(" + wide_vars + ")", "w(V0" + wide_vars.substr(1) + ")",
        "w(k0" + wide_vars.substr(1) + ")",
    };
    for (const std::string &text : goals) {
        SCOPED_TRACE(text);
        term::ParsedTerm goal = reader.parseTerm(text);
        expectHeadsMatchOracle(sym, *store, goal.arena, goal.root);

        // End to end: every mode's answers are exactly the oracle's.
        term::PredicateId pred{goal.arena.functor(goal.root),
                               goal.arena.arity(goal.root)};
        const StoredPredicate &stored = store->predicate(pred);
        std::vector<std::uint32_t> expect;
        for (std::uint32_t i = 0; i < stored.clauses.clauseCount(); ++i)
            if (unify::wouldUnify(goal.arena, goal.root,
                                  reader.parseClause(
                                      stored.clauses.sourceText(i))))
                expect.push_back(i);
        for (SearchMode mode : {SearchMode::SoftwareOnly,
                                SearchMode::Fs1Only, SearchMode::Fs2Only,
                                SearchMode::TwoStage})
            EXPECT_EQ(retrieve(text, mode).answers, expect)
                << searchModeName(mode);
    }
}

/** Heads this server has parsed into decoded-head stores so far. */
std::uint64_t
headsDecoded(ClauseRetrievalServer &server)
{
    return server.metrics().counter("crs.host_unify.decoded").value();
}

TEST_F(CrsTest, ReservingAGoalDecodesNothingNew)
{
    workload::KbSpec spec;
    spec.predicates = 2;
    spec.clausesPerPredicate = 200;
    spec.arityMin = spec.arityMax = 2;
    spec.varProb = 0.1;
    spec.seed = 5;
    workload::KbGenerator kbgen(sym);
    term::Program program = kbgen.generate(spec);
    store = std::make_unique<PredicateStore>(sym, scw::CodewordGenerator{});
    store->addProgram(program);
    store->finalize();
    server = std::make_unique<ClauseRetrievalServer>(sym, *store);

    workload::QuerySpec qspec;
    qspec.seed = 8;
    workload::QueryGenerator qgen(sym, qspec);
    std::map<term::PredicateId, std::set<std::uint32_t>> touched;
    std::uint64_t expect = 0;
    for (int i = 0; i < 10; ++i) {
        const term::PredicateId &pred = program.predicates()[i % 2];
        workload::GeneratedQuery q = qgen.generate(program, pred);
        RetrievalRequest request;
        request.arena = &q.arena;
        request.goal = q.goal;
        RetrievalResponse first = server->serve(request);
        for (std::uint32_t c : first.candidates)
            expect += touched[pred].insert(c).second ? 1 : 0;
        // Each head is parsed the first time it is a candidate, never
        // again: the replay decodes nothing and answers identically.
        EXPECT_EQ(headsDecoded(*server), expect) << "goal " << i;
        RetrievalResponse again = server->serve(request);
        EXPECT_EQ(headsDecoded(*server), expect) << "goal " << i;
        EXPECT_EQ(again.answers, first.answers);
        EXPECT_EQ(again.elapsed, first.elapsed);
    }
    EXPECT_GT(expect, 0u);
}

TEST_F(CrsTest, LiveCommitVersionDecodesOnlyWhatItServes)
{
    std::string text;
    for (int i = 0; i < 60; ++i)
        text += "edge(n" + std::to_string(i % 7) + ", m" +
                std::to_string(i) + ").\n";
    buildStore(text);
    const std::string wal_path =
        ::testing::TempDir() + "decoded_heads_live.wal";
    std::remove(wal_path.c_str());
    LiveStore live(*store, sym, wal_path);
    live.attachSink(server.get());

    RetrievalResponse base = retrieve("edge(n3, X)", SearchMode::TwoStage);
    ASSERT_FALSE(base.candidates.empty());
    EXPECT_EQ(headsDecoded(*server), base.candidates.size());

    live.assertz(reader.parseClause("edge(n3, fresh)."));
    // The new version starts with no decoded heads: it parses exactly
    // the candidates it serves, not the whole predicate.
    std::uint64_t before = headsDecoded(*server);
    RetrievalResponse head = retrieve("edge(n3, X)", SearchMode::TwoStage);
    EXPECT_EQ(head.candidates.size(), base.candidates.size() + 1);
    EXPECT_EQ(headsDecoded(*server) - before, head.candidates.size());
    EXPECT_LT(head.candidates.size(), 61u);
    EXPECT_EQ(head.answers.back(), 60u);

    before = headsDecoded(*server);
    retrieve("edge(n3, X)", SearchMode::TwoStage);
    term::ParsedTerm goal = reader.parseTerm("edge(n3, X)");
    RetrievalRequest pinned;
    pinned.arena = &goal.arena;
    pinned.goal = goal.root;
    pinned.mode = SearchMode::TwoStage;
    pinned.snapshot = 0;
    EXPECT_EQ(server->serve(pinned).answers, base.answers);
    EXPECT_EQ(headsDecoded(*server), before)
        << "both versions were already decoded";
    std::remove(wal_path.c_str());
}

TEST(LockManagerTest, SharedLocksCoexist)
{
    LockManager lm;
    EXPECT_TRUE(lm.acquire(1, pred(10), LockKind::Shared));
    EXPECT_TRUE(lm.acquire(2, pred(10), LockKind::Shared));
    EXPECT_EQ(lm.holders(pred(10)), 2u);
}

TEST(LockManagerTest, ExclusiveExcludes)
{
    LockManager lm;
    EXPECT_TRUE(lm.acquire(1, pred(10), LockKind::Exclusive));
    EXPECT_FALSE(lm.acquire(2, pred(10), LockKind::Shared));
    EXPECT_FALSE(lm.acquire(2, pred(10), LockKind::Exclusive));
    // Re-entrant for the owner.
    EXPECT_TRUE(lm.acquire(1, pred(10), LockKind::Exclusive));
    EXPECT_TRUE(lm.acquire(1, pred(10), LockKind::Shared));
}

TEST(LockManagerTest, SharedBlocksExclusiveFromOthers)
{
    LockManager lm;
    EXPECT_TRUE(lm.acquire(1, pred(10), LockKind::Shared));
    EXPECT_FALSE(lm.acquire(2, pred(10), LockKind::Exclusive));
}

TEST(LockManagerTest, UpgradeWhenSoleSharer)
{
    LockManager lm;
    EXPECT_TRUE(lm.acquire(1, pred(10), LockKind::Shared));
    EXPECT_TRUE(lm.upgrade(1, pred(10)));
    EXPECT_FALSE(lm.acquire(2, pred(10), LockKind::Shared));
}

TEST(LockManagerTest, UpgradeFailsWithOtherSharers)
{
    LockManager lm;
    EXPECT_TRUE(lm.acquire(1, pred(10), LockKind::Shared));
    EXPECT_TRUE(lm.acquire(2, pred(10), LockKind::Shared));
    EXPECT_FALSE(lm.upgrade(1, pred(10)));
}

TEST(LockManagerTest, ReleaseMakesWayForWriters)
{
    LockManager lm;
    EXPECT_TRUE(lm.acquire(1, pred(10), LockKind::Shared));
    lm.release(1, pred(10));
    EXPECT_TRUE(lm.acquire(2, pred(10), LockKind::Exclusive));
}

TEST(LockManagerTest, ReleaseAll)
{
    LockManager lm;
    lm.acquire(1, pred(10), LockKind::Shared);
    lm.acquire(1, pred(11), LockKind::Exclusive);
    lm.releaseAll(1);
    EXPECT_FALSE(lm.holds(1, pred(10)));
    EXPECT_TRUE(lm.acquire(2, pred(11), LockKind::Exclusive));
}

TEST(TransactionTest, CommitReleasesLocks)
{
    LockManager lm;
    {
        Transaction tx(lm, 1);
        EXPECT_TRUE(tx.acquire(pred(10), LockKind::Exclusive));
        EXPECT_TRUE(lm.holds(1, pred(10)));
        tx.commit();
    }
    EXPECT_FALSE(lm.holds(1, pred(10)));
}

TEST(TransactionTest, DestructorAborts)
{
    LockManager lm;
    {
        Transaction tx(lm, 1);
        EXPECT_TRUE(tx.acquire(pred(10), LockKind::Shared));
    }
    EXPECT_FALSE(lm.holds(1, pred(10)));
}

TEST(TransactionTest, AcquireAllIsAtomic)
{
    LockManager lm;
    lm.acquire(2, pred(11), LockKind::Exclusive);
    Transaction tx(lm, 1);
    // 11 is blocked, so neither 10 nor 12 may be kept.
    EXPECT_FALSE(tx.acquireAll({pred(12), pred(10), pred(11)},
                               LockKind::Shared));
    EXPECT_FALSE(lm.holds(1, pred(10)));
    EXPECT_FALSE(lm.holds(1, pred(12)));
    EXPECT_TRUE(tx.acquireAll({pred(10), pred(12)}, LockKind::Shared));
    tx.commit();
}

} // namespace
} // namespace clare::crs
