/**
 * @file
 * Experiment D1 — the three false-drop sources of section 2.1:
 *
 *   (1) non-unique encoding — swept via codeword field width,
 *   (2) truncation at 12 encoded arguments — swept via mismatch
 *       position across the argument index,
 *   (3) shared variables — the married_couple(Same,Same) pathology,
 *       swept via the fraction of reflexive couples.
 *
 * For each source the harness reports FS1's candidate set and false
 * drops against the full-unification oracle, and shows FS2 (two-stage
 * mode) removing them.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "scw/analysis.hh"
#include "support/table.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"
#include "unify/oracle.hh"
#include "workload/kb_generator.hh"

using namespace clare;

namespace {

/** FS1 false drops for one query over one stored predicate. */
struct Quality
{
    std::size_t candidates = 0;
    std::size_t answers = 0;

    double
    falseDropRate() const
    {
        return candidates == 0
            ? 0.0
            : static_cast<double>(candidates - answers) /
              static_cast<double>(candidates);
    }
};

Quality
fs1Quality(term::SymbolTable &sym, const term::Program &program,
           const term::PredicateId &pred,
           const term::TermArena &q_arena, term::TermRef goal,
           const scw::ScwConfig &config)
{
    scw::CodewordGenerator gen(config);
    scw::Signature qsig = gen.encode(q_arena, goal);
    Quality quality;
    for (std::size_t i : program.clausesOf(pred)) {
        const term::Clause &clause = program.clause(i);
        bool unifies = unify::wouldUnify(q_arena, goal, clause);
        bool selected = gen.matches(qsig, gen.encode(clause.arena(),
                                                     clause.head()));
        if (selected)
            ++quality.candidates;
        if (unifies)
            ++quality.answers;
        (void)sym;
    }
    return quality;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args(argc, argv).finish();
    term::SymbolTable sym;
    term::TermReader reader(sym);

    // --- source 1: non-unique encoding vs codeword width -----------
    {
        workload::KbGenerator kbgen(sym);
        workload::KbSpec spec;
        spec.predicates = 1;
        spec.clausesPerPredicate = 2000;
        spec.atomVocabulary = 1500;
        spec.seed = 4;
        term::Program program = kbgen.generate(spec);
        const auto &pred = program.predicates()[0];

        // A ground query copied from one stored head.
        const term::Clause &tmpl = program.clause(
            program.clausesOf(pred)[42]);
        term::TermArena q_arena;
        term::TermRef goal = q_arena.import(tmpl.arena(), tmpl.head(),
                                            0);

        Table t("False-drop source 1: non-unique encoding "
                "(field width sweep, 2000 ground clauses)");
        t.header({"Field bits", "Index bytes/entry", "Candidates",
                  "Answers", "Ghost fraction", "Measured P(fm)",
                  "Predicted P(fm)"});
        std::size_t total = program.clausesOf(pred).size();
        for (std::uint32_t bits : {2u, 4u, 8u, 16u, 32u, 64u}) {
            scw::ScwConfig config;
            config.fieldBits = bits;
            Quality q = fs1Quality(sym, program, pred, q_arena, goal,
                                   config);
            scw::CodewordGenerator gen(config);
            // Analytic prediction of the per-clause false-match
            // probability, with corpus-average token density per
            // field on the clause side.
            double clause_tokens = 0.0;
            for (std::size_t i : program.clausesOf(pred)) {
                const term::Clause &c = program.clause(i);
                clause_tokens += scw::measuredTokensPerField(
                    c.arena(), c.head(), config);
            }
            clause_tokens /= static_cast<double>(total);
            double query_tokens = scw::measuredTokensPerField(
                q_arena, goal, config);
            std::uint32_t fields = std::min(
                q_arena.arity(goal), config.encodedArgs);
            double predicted = scw::falseDropProbability(
                config, fields, clause_tokens, query_tokens);
            double measured =
                static_cast<double>(q.candidates - q.answers) /
                static_cast<double>(total - q.answers);
            t.row({std::to_string(bits),
                   std::to_string(gen.signatureBytes()),
                   std::to_string(q.candidates),
                   std::to_string(q.answers),
                   Table::num(q.falseDropRate(), 3),
                   Table::num(measured, 4),
                   Table::num(predicted, 4)});
        }
        t.print(std::cout);
        std::printf("shape: wider codewords -> fewer collision ghosts, "
                    "at index-size cost; the\nmeasured rates track the "
                    "textbook superimposed-coding prediction\n\n");
    }

    // --- source 2: truncation at 12 encoded arguments ---------------
    {
        // Clauses of arity 16 identical except in one position; the
        // query mismatches exactly there.  Positions < 12 are caught
        // by the index; positions >= 12 are invisible (truncated).
        Table t("False-drop source 2: truncation (mismatch position "
                "sweep, arity-16 predicate)");
        t.header({"Mismatch at arg", "Encoded?", "Candidates",
                  "Answers", "False drops"});
        for (std::uint32_t pos : {0u, 5u, 11u, 12u, 13u, 15u}) {
            term::Program program;
            std::string args;
            for (std::uint32_t a = 0; a < 16; ++a)
                args += (a ? "," : "") + std::string("k");
            // 40 clauses differing in argument `pos`.
            for (int c = 0; c < 40; ++c) {
                std::string clause = "t(";
                for (std::uint32_t a = 0; a < 16; ++a) {
                    clause += a ? "," : "";
                    clause += (a == pos)
                        ? "v" + std::to_string(c) : "k";
                }
                clause += ").";
                program.add(reader.parseClause(clause));
            }
            std::string query = "t(";
            for (std::uint32_t a = 0; a < 16; ++a) {
                query += a ? "," : "";
                query += (a == pos) ? "v7" : "k";
            }
            query += ")";
            term::ParsedTerm q = reader.parseTerm(query);
            term::PredicateId pred{sym.lookup("t"), 16};
            Quality quality = fs1Quality(sym, program, pred, q.arena,
                                         q.root, scw::ScwConfig{});
            t.row({std::to_string(pos + 1), pos < 12 ? "yes" : "no",
                   std::to_string(quality.candidates),
                   std::to_string(quality.answers),
                   std::to_string(quality.candidates -
                                  quality.answers)});
        }
        t.print(std::cout);
        std::printf("shape: mismatches beyond the 12th argument are "
                    "invisible to the index\n(39 ghosts); within the "
                    "first 12 the index rejects them\n\n");
    }

    // --- source 3: shared variables (married_couple) ----------------
    {
        Table t("False-drop source 3: shared variables — "
                "married_couple(Same,Same)");
        t.header({"Couples", "Reflexive", "FS1 candidates",
                  "FS1 false-drop rate", "FS1+FS2 candidates",
                  "FS1+FS2 false-drop rate"});
        for (std::uint32_t families : {100u, 400u, 1600u}) {
            term::SymbolTable fsym;
            workload::KbGenerator kbgen(fsym);
            term::Program program = kbgen.generateFamily(families, 3);
            bench::CompiledStore cs = bench::compileStore(fsym, program);

            term::TermReader freader(fsym);
            term::ParsedTerm goal =
                freader.parseTerm("married_couple(S, S)");
            crs::RetrievalResponse fs1 = bench::serveOne(
                *cs.server, goal.arena, goal.root,
                crs::SearchMode::Fs1Only);
            crs::RetrievalResponse two = bench::serveOne(
                *cs.server, goal.arena, goal.root,
                crs::SearchMode::TwoStage);

            term::PredicateId married{fsym.lookup("married_couple"), 2};
            std::size_t total =
                program.clausesOf(married).size();
            t.row({std::to_string(total),
                   std::to_string(fs1.answers.size()),
                   std::to_string(fs1.candidates.size()),
                   Table::num(fs1.falseDropRate(), 3),
                   std::to_string(two.candidates.size()),
                   Table::num(two.falseDropRate(), 3)});
        }
        t.print(std::cout);
        std::printf("shape: the index passes the ENTIRE predicate "
                    "(rate ~1.0); partial test\nunification with "
                    "cross-binding checks reduces it to the true "
                    "answers (rate 0).\n");
    }
    return 0;
}
