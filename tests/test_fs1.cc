/**
 * @file
 * FS1 tests: index scanning correctness against the software matcher,
 * rate accounting, and candidate-set quality.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "fs1/fs1_engine.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"
#include "unify/oracle.hh"
#include "workload/kb_generator.hh"

namespace clare::fs1 {
namespace {

class Fs1Test : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::TermReader reader{sym};
    term::TermWriter writer{sym};
    scw::CodewordGenerator gen;

    std::vector<term::Clause> clauses;
    storage::ClauseFile file;
    scw::SecondaryFile index;
    scw::BitSlicedIndex plane;

    void
    buildKb(const std::string &text)
    {
        clauses = reader.parseProgram(text);
        storage::ClauseFileBuilder builder(writer);
        std::vector<scw::Signature> sigs;
        for (const auto &c : clauses) {
            builder.add(c);
            sigs.push_back(gen.encode(c.arena(), c.head()));
        }
        file = builder.finish();
        index = scw::SecondaryFile::build(gen, sigs, file);
        plane = scw::BitSlicedIndex::build(gen, index);
    }

    Fs1Result
    search(const std::string &query)
    {
        term::ParsedTerm q = reader.parseTerm(query);
        Fs1Engine engine(gen);
        return engine.search(index, &plane, gen.encode(q.arena, q.root),
                             nullptr, 1);
    }
};

TEST_F(Fs1Test, ExactMatchSelected)
{
    buildKb("p(a).\np(b).\np(c).\n");
    Fs1Result r = search("p(b)");
    ASSERT_EQ(r.ordinals.size(), 1u);
    EXPECT_EQ(r.ordinals[0], 1u);
    EXPECT_EQ(r.clauseOffsets[0], file.record(1).offset);
    EXPECT_EQ(r.entriesScanned, 3u);
}

TEST_F(Fs1Test, VariableQuerySelectsAll)
{
    buildKb("p(a).\np(b).\np(c).\n");
    EXPECT_EQ(search("p(X)").ordinals.size(), 3u);
}

TEST_F(Fs1Test, ClauseVariablesAlwaysSelected)
{
    buildKb("p(a).\np(X).\n");
    Fs1Result r = search("p(zzz)");
    ASSERT_EQ(r.ordinals.size(), 1u);
    EXPECT_EQ(r.ordinals[0], 1u);   // only the p(X) clause
}

TEST_F(Fs1Test, SharedVariableQuerySelectsEverything)
{
    // The paper's motivating pathology: FS1 alone cannot use the
    // shared-variable constraint.
    buildKb("married_couple(john, mary).\n"
            "married_couple(pat, pat).\n"
            "married_couple(ann, bob).\n");
    Fs1Result r = search("married_couple(S, S)");
    EXPECT_EQ(r.ordinals.size(), 3u);
}

TEST_F(Fs1Test, BusyTimeFollowsScanRate)
{
    buildKb("p(a).\np(b).\np(c).\np(d).\n");
    Fs1Result r = search("p(a)");
    EXPECT_EQ(r.bytesScanned, index.image().size());
    double seconds = toSeconds(r.busyTime);
    EXPECT_NEAR(seconds,
                static_cast<double>(r.bytesScanned) / 4.5e6, 1e-9);
}

TEST_F(Fs1Test, ScanRateConfigurable)
{
    buildKb("p(a).\np(b).\n");
    term::ParsedTerm q = reader.parseTerm("p(a)");
    Fs1Config slow;
    slow.scanRate = 1.0e6;
    Fs1Engine engine(gen, slow);
    Fs1Result r = engine.search(index, &plane,
                                gen.encode(q.arena, q.root), nullptr, 1);
    EXPECT_NEAR(toSeconds(r.busyTime),
                static_cast<double>(r.bytesScanned) / 1.0e6, 1e-9);
}

// Regression: the double→Tick conversion used to truncate, dropping
// up to one tick per call (and, once scans were sharded, up to one
// tick per sub-scan had each shard converted separately).
TEST_F(Fs1Test, BusyTimeRoundsToNearestTick)
{
    buildKb("p(a).\np(b).\np(c).\np(d).\n");
    term::ParsedTerm q = reader.parseTerm("p(a)");
    Fs1Config cfg;
    cfg.scanRate = 7.0e6;   // bytes/rate lands between ticks
    Fs1Engine engine(gen, cfg);
    Fs1Result r = engine.search(index, &plane,
                                gen.encode(q.arena, q.root), nullptr, 1);

    double exact = static_cast<double>(r.bytesScanned) / cfg.scanRate *
        static_cast<double>(kSecond);
    double fraction = exact - std::floor(exact);
    ASSERT_GE(fraction, 0.5)
        << "KB layout changed; pick a clause count whose byte total "
           "has a >= 0.5 tick fraction at this rate";
    EXPECT_EQ(r.busyTime, static_cast<Tick>(std::llround(exact)));
    EXPECT_GT(r.busyTime, static_cast<Tick>(exact));    // trunc value
}

TEST_F(Fs1Test, CandidateSetIsSupersetOfAnswers)
{
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 200;
    spec.varProb = 0.15;
    spec.structProb = 0.25;
    spec.seed = 11;
    term::Program program = kbgen.generate(spec);

    storage::ClauseFileBuilder builder(writer);
    std::vector<scw::Signature> sigs;
    std::vector<term::Clause> all;
    const auto &pred = program.predicates()[0];
    for (std::size_t i : program.clausesOf(pred)) {
        const term::Clause &c = program.clause(i);
        builder.add(c);
        sigs.push_back(gen.encode(c.arena(), c.head()));
        term::TermArena arena;
        term::TermRef head = arena.import(c.arena(), c.head(), 0);
        all.emplace_back(std::move(arena), head,
                         std::vector<term::TermRef>{});
    }
    storage::ClauseFile f = builder.finish();
    scw::SecondaryFile idx = scw::SecondaryFile::build(gen, sigs, f);

    // A ground query copied from clause 17's head.
    term::TermArena q_arena;
    term::TermRef goal = q_arena.import(all[17].arena(), all[17].head(),
                                        0);
    Fs1Engine engine(gen);
    scw::BitSlicedIndex idx_plane = scw::BitSlicedIndex::build(gen, idx);
    Fs1Result r = engine.search(idx, &idx_plane, gen.encode(q_arena, goal),
                                nullptr, 1);

    std::set<std::uint32_t> selected(r.ordinals.begin(),
                                     r.ordinals.end());
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (unify::wouldUnify(q_arena, goal, all[i])) {
            EXPECT_TRUE(selected.count(static_cast<std::uint32_t>(i)))
                << "false dismissal of clause " << i;
        }
    }
    EXPECT_TRUE(selected.count(17));
}

} // namespace
} // namespace clare::fs1
