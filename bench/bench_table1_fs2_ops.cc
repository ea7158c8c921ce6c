/**
 * @file
 * Experiment T1 — Table 1: Execution Times of the FS2 Hardware
 * Functions.
 *
 * The model derives each operation's execution time from the component
 * propagation delays along the figure-6..12 datapath routes; this
 * harness prints the computed values side by side with the published
 * ones and additionally *measures* the per-operation times by driving
 * the full FS2 engine with item pairs that exercise exactly one
 * operation class, confirming the engine charges the same times.
 *
 * It also sweeps the FS2 dispatch pair — the reference WCS interpreter
 * (clare_oracle) against the compiled match routines the engine runs
 * — clause by clause over a synthetic clause file, checking the two
 * produce bit-identical verdicts and tick streams while reporting the
 * host wall-clock speedup of the compiled routines.
 *
 * `--json <path>` exports the table rows and the sweep record.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "fs2/datapath.hh"
#include "fs2/compiled_routines.hh"
#include "fs2/fs2_engine.hh"
#include "oracle/wcs.hh"
#include "pif/encoder.hh"
#include "storage/clause_file.hh"
#include "support/table.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"

using namespace clare;
using unify::TueOp;

namespace {

struct OpScenario
{
    TueOp op;
    std::uint64_t paperNs;
    const char *query;
    const char *clause;
    const char *ignore;     ///< op also present in the scenario
};

/**
 * Measure the time the engine charges for @p scenario's target op by
 * running the scenario and subtracting all other operations' model
 * times (each scenario is chosen so the target op occurs exactly
 * once).
 */
std::uint64_t
measureOp(const OpScenario &scenario)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermWriter writer(sym);

    storage::ClauseFileBuilder builder(writer);
    builder.add(reader.parseClause(std::string(scenario.clause) + "."));
    storage::ClauseFile file = builder.finish();

    term::ParsedQuery q = reader.parseQuery(scenario.query);
    fs2::Fs2Engine engine;
    engine.setQuery(q.arena, q.goals[0]);
    fs2::Fs2SearchResult r = engine.search(file);

    std::uint64_t total = toNanoseconds(r.tueBusyTime);
    for (std::size_t i = 0; i < unify::kTueOpCount; ++i) {
        TueOp other = static_cast<TueOp>(i);
        if (other == scenario.op)
            continue;
        total -= r.ops[i] * fs2::operationTimeNs(other);
    }
    std::uint64_t count = r.ops[static_cast<std::size_t>(scenario.op)];
    return count ? total / count : 0;
}

/**
 * The interpreter-vs-compiled sweep record: wall-clock times for the
 * same clause streams through both dispatch targets, plus the identity
 * check over everything the engine's accounting reads.
 */
struct SweepResult
{
    std::size_t clauses = 0;
    std::size_t queries = 0;
    std::size_t iterations = 0;
    double interpretedUs = 0;
    double compiledUs = 0;
    std::uint64_t microInstructions = 0;
    bool identical = false;

    double speedup() const
    {
        return compiledUs > 0 ? interpretedUs / compiledUs : 0;
    }
};

/** Build a mixed-shape clause file for the dispatch sweep. */
storage::ClauseFile
sweepFile(term::TermReader &reader, term::TermWriter &writer,
          std::size_t clause_count)
{
    std::mt19937_64 rng(4242);
    storage::ClauseFileBuilder builder(writer);
    for (std::size_t i = 0; i < clause_count; ++i) {
        std::string head;
        switch (rng() % 5) {
        case 0:
            head = "p(c" + std::to_string(rng() % 40) + ", X, [a, b])";
            break;
        case 1:
            head = "p(f(c" + std::to_string(rng() % 40) + ", Y), Y, Z)";
            break;
        case 2:
            head = "p(X, g(X, c" + std::to_string(rng() % 40) + "), " +
                   std::to_string(rng() % 100) + ")";
            break;
        case 3:
            head = "p(c" + std::to_string(rng() % 40) + ", " +
                   std::to_string(rng() % 100) + ", h(W, W))";
            break;
        default:
            head = "p([c" + std::to_string(rng() % 40) + ", X | T], "
                   "X, T)";
            break;
        }
        builder.add(reader.parseClause(head + "."));
    }
    return builder.finish();
}

/** What one query's pass over the file accumulates. */
struct PassResult
{
    std::vector<std::uint32_t> accepted;
    unify::TueOpCounts ops{};
    std::uint64_t microInstructions = 0;
    Tick tueBusyTime = 0;
    Tick sequencerTime = 0;

    bool operator==(const PassResult &) const = default;
};

constexpr int kSweepLevel = 3;
constexpr Tick kSweepOverhead = 125 * kNanosecond;

/**
 * One full pass: every query run clause by clause through a fresh
 * matcher from @p make (the WCS or the compiled routines), on a TUE
 * reset per clause exactly as the FS2 engine resets it.
 */
template <typename MakeMatcher>
std::vector<PassResult>
sweepPass(MakeMatcher make, const storage::ClauseFile &file,
          const std::vector<pif::EncodedArgs> &queries)
{
    std::vector<PassResult> out;
    for (const pif::EncodedArgs &query : queries) {
        auto matcher = make();
        fs2::TestUnificationEngine tue(kSweepLevel, true);
        PassResult r;
        for (std::size_t c = 0; c < file.clauseCount(); ++c) {
            pif::EncodedArgs db = file.decodeArgs(c);
            tue.resetForClause(db.varSlots, query.varSlots);
            if (matcher.runClause(tue, db.items, file.record(c).arity,
                                  query) == fs2::ClauseVerdict::Accepted)
                r.accepted.push_back(static_cast<std::uint32_t>(c));
        }
        r.ops = tue.opCounts();
        r.tueBusyTime = tue.busyTime();
        r.microInstructions = matcher.instructionsExecuted();
        r.sequencerTime = matcher.sequencerTime();
        out.push_back(std::move(r));
    }
    return out;
}

SweepResult
runSweep(std::size_t clause_count, std::size_t iterations)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermWriter writer(sym);
    storage::ClauseFile file = sweepFile(reader, writer, clause_count);

    pif::Encoder encoder;
    std::vector<pif::EncodedArgs> queries;
    for (const char *text : {"p(c3, V, [a, b])", "p(f(c7, Q), Q, R)",
                             "p(A, g(A, c11), 42)", "p(c19, 55, h(U, U))",
                             "p([c23, M | N], M, N)", "p(X, Y, Z)"}) {
        term::ParsedQuery q = reader.parseQuery(text);
        queries.push_back(encoder.encodeArgs(q.arena, q.goals[0],
                                             pif::Side::Query));
    }

    const fs2::WcsConfig wcs_config{kSweepOverhead, 1u << 20};
    auto interp = [&] {
        return fs2::Wcs::programmed(kSweepLevel, true, wcs_config);
    };
    auto compiled = [&] {
        return fs2::CompiledMatcher(kSweepLevel, true, wcs_config);
    };

    // Identity first (one pass is enough: matching is deterministic).
    std::vector<PassResult> ri = sweepPass(interp, file, queries);
    std::vector<PassResult> rc = sweepPass(compiled, file, queries);

    SweepResult sweep;
    sweep.clauses = file.clauseCount();
    sweep.queries = queries.size();
    sweep.iterations = iterations;
    sweep.identical = ri == rc;
    for (const PassResult &r : ri)
        sweep.microInstructions += r.microInstructions;

    // Then timing: the same passes, iterated, for each target.
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    for (std::size_t i = 0; i < iterations; ++i)
        sweepPass(interp, file, queries);
    auto t1 = clock::now();
    for (std::size_t i = 0; i < iterations; ++i)
        sweepPass(compiled, file, queries);
    auto t2 = clock::now();

    auto us = [](auto d) {
        return std::chrono::duration<double, std::micro>(d).count();
    };
    sweep.interpretedUs = us(t1 - t0);
    sweep.compiledUs = us(t2 - t1);
    return sweep;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const std::string json_path = bench::jsonPathArg(args);
    args.finish();

    const OpScenario scenarios[] = {
        {TueOp::Match, 105, "p(a)", "p(a)", ""},
        {TueOp::DbStore, 95, "p(a)", "p(X)", ""},
        {TueOp::QueryStore, 115, "p(X)", "p(a)", ""},
        {TueOp::DbFetch, 105, "p(a, a)", "p(X, X)", "DbStore"},
        {TueOp::QueryFetch, 170, "p(S, S)", "p(a, a)", "QueryStore"},
        {TueOp::DbCrossBoundFetch, 170, "f(X, a, b)", "f(A, a, A)", ""},
        {TueOp::QueryCrossBoundFetch, 235, "f(X, X)", "f(A, b)", ""},
    };

    Table table("Table 1: Execution Times of the FS2 Hardware Functions");
    table.header({"Figure", "Operation", "Paper (ns)", "Model (ns)",
                  "Engine-measured (ns)", "Match"});
    bool all_match = true;
    json::Value rows = json::Value::array();
    for (const OpScenario &s : scenarios) {
        std::uint64_t model = fs2::operationTimeNs(s.op);
        std::uint64_t measured = measureOp(s);
        bool ok = model == s.paperNs && measured == s.paperNs;
        all_match = all_match && ok;
        table.row({std::to_string(fs2::operationSpec(s.op).figure),
                   tueOpName(s.op), std::to_string(s.paperNs),
                   std::to_string(model), std::to_string(measured),
                   ok ? "yes" : "NO"});
        json::Value row = json::Value::object();
        row.set("kind", "op");
        row.set("figure",
                static_cast<std::uint64_t>(fs2::operationSpec(s.op).figure));
        row.set("operation", tueOpName(s.op));
        row.set("paper_ns", s.paperNs);
        row.set("model_ns", model);
        row.set("measured_ns", measured);
        row.set("match", ok);
        rows.push(std::move(row));
    }
    table.print(std::cout);

    std::printf("\nWorst-case operation: QUERY_CROSS_BOUND_FETCH at "
                "235 ns\n");
    std::printf("Paper's worst-case filter rate (1 byte per op): "
                "%s (paper: ~4.25 MB/s)\n",
                bench::formatRate(fs2::worstCaseFilterRate()).c_str());
    std::printf("Reproduction %s\n",
                all_match ? "MATCHES the paper" : "DIVERGES");

    SweepResult sweep = runSweep(/*clause_count=*/1500,
                                 /*iterations=*/12);
    std::printf("\nFS2 dispatch sweep (%zu clauses x %zu queries x "
                "%zu iters, %llu microinstructions per pass):\n",
                sweep.clauses, sweep.queries, sweep.iterations,
                static_cast<unsigned long long>(sweep.microInstructions));
    std::printf("  interpreter : %10.1f us\n", sweep.interpretedUs);
    std::printf("  compiled    : %10.1f us   (%.2fx, results %s)\n",
                sweep.compiledUs, sweep.speedup(),
                sweep.identical ? "bit-identical" : "DIVERGED");

    // The shared shape is a flat "results" array, so the sweep rides
    // along as one more row after the per-operation ones.
    json::Value sj = json::Value::object();
    sj.set("kind", "fs2_dispatch_sweep");
    sj.set("all_ops_match", all_match);
    sj.set("clauses", static_cast<std::uint64_t>(sweep.clauses));
    sj.set("queries", static_cast<std::uint64_t>(sweep.queries));
    sj.set("iterations", static_cast<std::uint64_t>(sweep.iterations));
    sj.set("micro_instructions_per_pass", sweep.microInstructions);
    sj.set("interpreted_wall_us", sweep.interpretedUs);
    sj.set("compiled_wall_us", sweep.compiledUs);
    sj.set("speedup", sweep.speedup());
    sj.set("identical", sweep.identical);
    rows.push(std::move(sj));
    if (!bench::writeBenchJson(json_path, "table1_fs2_ops",
                               std::move(rows))) {
        std::fprintf(stderr, "failed to write --json output\n");
        return 1;
    }

    return all_match && sweep.identical ? 0 : 1;
}
