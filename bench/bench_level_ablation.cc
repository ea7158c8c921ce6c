/**
 * @file
 * Experiment D2 — the matching-level study of section 2.2: levels 1
 * through 5 trade selectivity against hardware cost; the paper adopts
 * level 3 plus cross-binding checks because levels 4 and 5 are too
 * expensive to build.
 *
 * The harness runs all five levels (and level 3 with cross binding on
 * and off) over the same candidate streams, reporting candidate-set
 * size, false drops surviving to full unification, and the operation
 * mix each level generates — the quantitative version of the paper's
 * design argument.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "fs2/datapath.hh"
#include "support/table.hh"
#include "term/term_writer.hh"
#include "unify/oracle.hh"
#include "unify/term_matcher.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

using namespace clare;
using unify::TueOp;

int
main(int argc, char **argv)
{
    bench::Args(argc, argv).finish();
    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 3000;
    spec.varProb = 0.2;
    spec.sharedVarProb = 0.35;
    spec.structProb = 0.35;
    spec.listProb = 0.1;
    spec.seed = 12;
    term::Program program = kbgen.generate(spec);
    const auto &pred = program.predicates()[0];

    workload::QuerySpec qspec;
    qspec.boundArgProb = 0.45;
    qspec.sharedVarProb = 0.45;
    qspec.seed = 8;
    workload::QueryGenerator qgen(sym, qspec);
    constexpr int kQueries = 12;
    std::vector<workload::GeneratedQuery> queries;
    for (int i = 0; i < kQueries; ++i)
        queries.push_back(qgen.generate(program, pred));

    // Ground truth per query.
    std::vector<std::vector<bool>> truth(queries.size());
    std::size_t true_total = 0;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        for (std::size_t i : program.clausesOf(pred)) {
            bool u = unify::wouldUnify(queries[qi].arena,
                                       queries[qi].goal,
                                       program.clause(i));
            truth[qi].push_back(u);
            true_total += u;
        }
    }

    struct Config
    {
        const char *name;
        unify::MatchConfig config;
    };
    // Levels 1-4 are the original algorithm (variables match
    // anything); cross-binding checks are the paper's addition, and
    // level 5 is full-depth matching with them built in.
    const Config configs[] = {
        {"level 1 (type only)", {1, false}},
        {"level 2 (+content)", {2, false}},
        {"level 3 (+first-level structures)", {3, false}},
        {"level 3 + cross binding (ADOPTED)", {3, true}},
        {"level 4 (full structures)", {4, false}},
        {"level 5 (full + cross binding)", {5, true}},
    };

    Table t("Matching-level ablation (3000 clauses x 12 queries; "
            "true answers = " + std::to_string(true_total) + ")");
    t.header({"Configuration", "Candidates", "False drops",
              "FD rate", "Datapath ops", "Model ns/clause"});

    for (const Config &cfg : configs) {
        unify::TermMatcher matcher(cfg.config);
        std::size_t candidates = 0;
        std::size_t false_drops = 0;
        unify::TueOpCounts ops{};
        std::uint64_t clauses = 0;
        for (std::size_t qi = 0; qi < queries.size(); ++qi) {
            std::size_t ci = 0;
            for (std::size_t i : program.clausesOf(pred)) {
                const term::Clause &clause = program.clause(i);
                unify::MatchResult r = matcher.match(
                    clause.arena(), clause.head(),
                    queries[qi].arena, queries[qi].goal);
                for (std::size_t o = 0; o < unify::kTueOpCount; ++o)
                    ops[o] += r.opCounts[o];
                ++clauses;
                if (r.hit) {
                    ++candidates;
                    if (!truth[qi][ci])
                        ++false_drops;
                }
                ++ci;
            }
        }
        // Hardware-model cost: Table-1 weighted operation time per
        // clause (levels 4/5 use the same weights — the cost their
        // hardware would need at minimum, with unbounded recursion
        // hardware on top).
        std::uint64_t ns = 0;
        std::uint64_t datapath_ops = 0;
        for (std::size_t o = 0; o < unify::kTueOpCount; ++o) {
            TueOp op = static_cast<TueOp>(o);
            if (op == TueOp::Skip)
                continue;
            ns += ops[o] * fs2::operationTimeNs(op);
            datapath_ops += ops[o];
        }
        double fd_rate = candidates == 0
            ? 0.0
            : static_cast<double>(false_drops) /
              static_cast<double>(candidates);
        t.row({cfg.name, std::to_string(candidates),
               std::to_string(false_drops), Table::num(fd_rate, 3),
               std::to_string(datapath_ops),
               Table::num(static_cast<double>(ns) /
                          static_cast<double>(clauses), 1)});
    }
    t.print(std::cout);

    std::printf("\nshape: selectivity improves monotonically with "
                "level; cross-binding checks\nclose most of the gap to "
                "full-depth matching at a fraction of the hardware\n"
                "complexity — the basis for adopting level 3 + cross "
                "binding.\n");

    // Operation mix of the adopted configuration.
    unify::TermMatcher adopted(unify::MatchConfig{3, true});
    unify::TueOpCounts mix{};
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        for (std::size_t i : program.clausesOf(pred)) {
            const term::Clause &clause = program.clause(i);
            unify::MatchResult r = adopted.match(
                clause.arena(), clause.head(), queries[qi].arena,
                queries[qi].goal);
            for (std::size_t o = 0; o < unify::kTueOpCount; ++o)
                mix[o] += r.opCounts[o];
        }
    }
    Table mixTable("Operation mix, level 3 + cross binding");
    mixTable.header({"Operation", "Count", "ns/op", "Total time"});
    for (std::size_t o = 0; o < unify::kTueOpCount; ++o) {
        TueOp op = static_cast<TueOp>(o);
        if (mix[o] == 0)
            continue;
        std::uint64_t per = op == TueOp::Skip
            ? 0 : fs2::operationTimeNs(op);
        mixTable.row({tueOpName(op), std::to_string(mix[o]),
                      std::to_string(per),
                      bench::formatTime(nanoseconds(per * mix[o]))});
    }
    mixTable.print(std::cout);
    return 0;
}
