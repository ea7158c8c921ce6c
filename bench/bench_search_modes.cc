/**
 * @file
 * Experiment C1 — the four CRS search modes of section 2.2 across the
 * query/KB natures the paper says drive the choice: fact-intensive vs
 * rule-intensive predicates, and ground vs shared-variable vs
 * all-variable queries.  For every cell the harness reports candidate
 * quality and end-to-end retrieval latency, plus the mode the CRS
 * heuristic would pick.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "support/logging.hh"
#include "support/table.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"
#include "workload/kb_generator.hh"

using namespace clare;

namespace {

/** Build a KB with a controllable rule fraction. */
term::Program
makeKb(term::SymbolTable &sym, double rule_fraction, std::uint64_t seed)
{
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 2000;
    spec.arityMin = 3;
    spec.arityMax = 3;
    spec.varProb = rule_fraction > 0 ? 0.15 : 0.0;
    spec.sharedVarProb = 0.2;
    spec.structProb = 0.2;
    spec.ruleFraction = rule_fraction;
    spec.seed = seed;
    return kbgen.generate(spec);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    bench::Args args(argc, argv);
    std::string json_path = bench::jsonPathArg(args);
    // --fault-seed=N (+ --fault-flip/--fault-transient/--fault-delay
    // rates) runs the whole experiment against deterministically
    // faulty disks; absent, the run is bit-identical to a fault-free
    // build.
    std::optional<support::FaultConfig> fault_config =
        bench::faultConfigArg(args);
    // --cache (+ --cache-l3/--cache-l2/--cache-l1-tracks sizes,
    // --cache-bypass) runs the experiment with the retrieval cache
    // hierarchy enabled; absent, the run is bit-identical to a
    // cache-free build.  Note the caches are disabled automatically
    // while fault injection is armed.
    bench::CacheKnobs cache_knobs = bench::cacheConfigArg(args);
    args.finish();
    std::unique_ptr<support::FaultInjector> injector;
    crs::CrsConfig crs_config;
    if (cache_knobs.enabled && !fault_config) {
        cache_knobs.apply(crs_config);
        std::printf("cache hierarchy armed: l3=%u l2=%u "
                    "l1_tracks=%u%s\n\n",
                    crs_config.cache.goalCapacity,
                    crs_config.cache.survivorCapacity,
                    cache_knobs.l1Tracks,
                    cache_knobs.bypass ? " (bypassed requests)" : "");
    }
    if (fault_config) {
        injector = std::make_unique<support::FaultInjector>(*fault_config);
        crs_config.faults = injector.get();
        std::printf("fault injection armed: seed=%llu flip=%.3g "
                    "transient=%.3g delay=%.3g\n\n",
                    static_cast<unsigned long long>(fault_config->seed),
                    fault_config->bitFlipRate,
                    fault_config->transientReadRate,
                    fault_config->delayRate);
    }
    json::Value json_rows = json::Value::array();
    // Kept alive across KB kinds so the final JSON export can include
    // the last server's cumulative metrics (and spans when tracing);
    // the server references its symbol table, so that lives here too.
    std::vector<std::unique_ptr<term::SymbolTable>> live_syms;
    std::unique_ptr<bench::CompiledStore> last_store;

    struct KbKind
    {
        const char *name;
        double ruleFraction;
    };
    const KbKind kbs[] = {
        {"fact-intensive", 0.0},
        {"rule-intensive", 0.6},
    };

    for (const KbKind &kbkind : kbs) {
        live_syms.push_back(std::make_unique<term::SymbolTable>());
        term::SymbolTable &sym = *live_syms.back();
        term::Program program = makeKb(sym, kbkind.ruleFraction, 19);
        last_store = std::make_unique<bench::CompiledStore>(
            bench::compileStore(sym, program, {}, crs_config));
        bench::CompiledStore &cs = *last_store;
        cache_knobs.apply(*cs.store);
        term::TermReader reader(sym);
        const auto &pred = program.predicates()[0];

        // Query templates against predicate p0/3, derived from a
        // stored ground head where one exists.
        std::string ground_head;
        {
            term::TermWriter writer(sym);
            for (std::size_t i : program.clausesOf(pred)) {
                if (program.clause(i).isGroundFact()) {
                    ground_head = writer.write(
                        program.clause(i).arena(),
                        program.clause(i).head());
                    break;
                }
            }
            if (ground_head.empty())
                ground_head = writer.write(program.clause(0).arena(),
                                           program.clause(0).head());
        }

        struct QueryKind
        {
            const char *name;
            std::string text;
        };
        const QueryKind queries[] = {
            {"ground", ground_head},
            {"one free variable", "p0(Q1, Q2, " +
                ground_head.substr(ground_head.find('(') + 1,
                                   ground_head.find(',') -
                                   ground_head.find('(') - 1) + ")"},
            {"shared variables", "p0(S, S, _)"},
            {"all variables", "p0(A, B, C)"},
        };

        for (const QueryKind &qk : queries) {
            term::ParsedTerm goal = reader.parseTerm(qk.text);
            Table t(std::string("KB: ") + kbkind.name + "  |  query: " +
                    qk.name + "  (" + qk.text + ")");
            t.header({"Mode", "Candidates", "Answers", "FD rate",
                      "Index", "Filter", "Host unify", "Total"});
            for (crs::SearchMode mode : {crs::SearchMode::SoftwareOnly,
                                         crs::SearchMode::Fs1Only,
                                         crs::SearchMode::Fs2Only,
                                         crs::SearchMode::TwoStage}) {
                crs::RetrievalRequest req;
                req.arena = &goal.arena;
                req.goal = goal.root;
                req.mode = mode;
                req.bypassCache = cache_knobs.bypass;
                // Spans go into the JSON export; skip them otherwise.
                req.trace.enabled = !json_path.empty();
                crs::RetrievalResponse r;
                try {
                    r = cs.server->serve(req);
                } catch (const IoError &e) {
                    // Bounded retries exhausted at this fault seed.
                    t.row({crs::searchModeName(mode), "-", "-", "-",
                           "-", "-", "-", "unreadable"});
                    json::Value row = json::Value::object();
                    row.set("mode", crs::searchModeSlug(mode));
                    row.set("kb", kbkind.name);
                    row.set("query", qk.name);
                    row.set("io_error", std::string(e.what()));
                    json_rows.push(std::move(row));
                    continue;
                }
                std::string mode_cell = crs::searchModeName(mode);
                if (r.degraded)
                    mode_cell += " (degraded)";
                t.row({mode_cell,
                       std::to_string(r.candidates.size()),
                       std::to_string(r.answers.size()),
                       Table::num(r.falseDropRate(), 3),
                       bench::formatTime(r.breakdown.indexTime),
                       bench::formatTime(r.breakdown.filterTime),
                       bench::formatTime(r.breakdown.hostUnifyTime),
                       bench::formatTime(r.elapsed)});
                json::Value row = bench::responseJson(r);
                row.set("kb", kbkind.name);
                row.set("query", qk.name);
                // Only armed runs carry the degradation fields, so a
                // default run's JSON is byte-stable across builds.
                if (fault_config) {
                    row.set("degraded", r.degraded);
                    row.set("corrupt_index_pages",
                            static_cast<std::uint64_t>(
                                r.corruptIndexPages));
                }
                json_rows.push(std::move(row));
            }
            t.print(std::cout);
            std::printf("CRS heuristic selects: %s\n\n",
                        crs::searchModeName(cs.server->selectMode(
                            goal.arena, goal.root)));
        }
    }

    std::printf("shape checks: ground queries on fact-intensive KBs "
                "are won by FS1 (small\ncandidate fetch); shared-"
                "variable queries need FS2 to avoid host-unifying the\n"
                "whole predicate; rule-intensive KBs blunt the index "
                "(masked fields), favouring\nthe two-stage filter; "
                "all-variable queries cannot be filtered at all.\n");

    if (!bench::writeBenchJson(json_path, "search_modes",
                               std::move(json_rows),
                               last_store->server.get()))
        return 1;
    return 0;
}
