/**
 * @file
 * A look inside the FS2: disassembles the paper's matching
 * microprogram (the reference WCS microcode the engine's compiled
 * match routines reproduce), dumps the compiled PIF streams for a
 * clause/query pair, and traces every TUE datapath operation — which
 * selectors route what, how long each figure-6..12 route takes — while
 * the engine filters a handful of clauses, including the paper's
 * f(X,a,b) vs f(A,a,A) cross-binding example.
 */

#include <cstdio>

#include "fs2/fs2_engine.hh"
#include "oracle/microcode.hh"
#include "pif/encoder.hh"
#include "storage/clause_file.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"

int
main()
{
    using namespace clare;

    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermWriter writer(sym);

    // The clause set, including the section-3.3.6 example clause.
    const char *program_text =
        "f(A, a, A).\n"
        "f(b, a, c).\n"
        "f(g(1, 2), a, [x, y]).\n";
    storage::ClauseFileBuilder builder(writer);
    for (const auto &clause : reader.parseProgram(program_text))
        builder.add(clause);
    storage::ClauseFile file = builder.finish();

    // The section-3.3.6 query.
    term::ParsedQuery query = reader.parseQuery("f(X, a, b)");

    // --- the microprogram the query is translated into --------------
    // The engine runs the compiled form of this program; the WCS
    // microcode itself is the reference model's, assembled here.
    fs2::RoutineAddresses routines;
    fs2::Microprogram program = fs2::assembleMatchProgram(3, routines);
    std::printf("microprogram (%zu words of the %zu-word WCS, entry "
                "@%03x):\n\n", program.size(), fs2::kControlStoreWords,
                program.entry);
    for (std::size_t addr = 0; addr < program.size(); ++addr) {
        fs2::MicroInstruction insn =
            fs2::MicroInstruction::decode(program.words[addr]);
        std::printf("  %03zx: %016llx  %s\n", addr,
                    static_cast<unsigned long long>(program.words[addr]),
                    insn.disassemble().c_str());
    }

    fs2::Fs2Engine engine;
    engine.setQuery(query.arena, query.goals[0]);

    // --- the compiled PIF streams ------------------------------------
    pif::Encoder encoder;
    std::printf("\nquery  f(X, a, b) compiles to (Query Memory):\n");
    pif::EncodedArgs qargs = encoder.encodeArgs(query.arena,
                                                query.goals[0],
                                                pif::Side::Query);
    for (const auto &item : qargs.items)
        std::printf("  %s\n", item.toString().c_str());

    for (std::size_t c = 0; c < file.clauseCount(); ++c) {
        std::printf("\nclause %zu  %s compiles to:\n", c,
                    file.sourceText(c).c_str());
        for (const auto &item : file.decodeArgs(c).items)
            std::printf("  %s\n", item.toString().c_str());
    }

    // --- the search, with the TUE datapath trace on ------------------
    engine.tue().setTracing(true);
    fs2::Fs2SearchResult result = engine.search(file);

    std::printf("\nTUE datapath trace (%zu operations):\n",
                engine.tue().trace().size());
    for (const auto &entry : engine.tue().trace()) {
        std::printf("\n  %s  (%llu ns)  db=%s  query=%s  -> %s\n",
                    tueOpName(entry.op),
                    static_cast<unsigned long long>(entry.timeNs),
                    entry.dbItem.toString().c_str(),
                    entry.queryItem.toString().c_str(),
                    entry.hit ? "HIT" : "MISS");
        std::printf("    %s\n", entry.route.c_str());
    }

    std::printf("\nresult: clauses accepted =");
    for (std::uint32_t o : result.acceptedOrdinals)
        std::printf(" %u", o);
    std::printf("  (clause 0 via the DB_CROSS_BOUND_FETCH of figure "
                "11)\n");
    std::printf("TUE busy %llu ns over %llu clauses; %llu "
                "microinstructions executed\n",
                static_cast<unsigned long long>(
                    toNanoseconds(result.tueBusyTime)),
                static_cast<unsigned long long>(result.clausesExamined),
                static_cast<unsigned long long>(
                    result.microInstructions));
    return 0;
}
