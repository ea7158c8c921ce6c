/**
 * @file
 * Experiment M1 — the host-interface tables of section 3: the
 * operational-mode encoding of the control register, the filter-select
 * and match-found bits, and the documented driver sequence
 * (Microprogramming -> Set Query -> Search -> Read Result) driven
 * against the board model end to end.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "clare/board.hh"
#include "storage/clause_file.hh"
#include "support/table.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"

using namespace clare;
using namespace clare::engine;

int
main(int argc, char **argv)
{
    bench::Args(argc, argv).finish();
    Table modes("Operational modes (control register b0/b1)");
    modes.header({"Operational Mode", "b0", "b1", "register value"});
    for (OperationalMode mode : {OperationalMode::ReadResult,
                                 OperationalMode::Search,
                                 OperationalMode::Microprogramming,
                                 OperationalMode::SetQuery}) {
        std::uint8_t v = ControlRegister::compose(mode,
                                                  FilterSelect::Fs1);
        modes.row({operationalModeName(mode),
                   std::to_string(v & 1), std::to_string((v >> 1) & 1),
                   "0x0" + std::string(1, "0123456789abcdef"[v & 0xf])});
    }
    modes.print(std::cout);

    std::printf("\nFilter select (b2): 0 -> FS1, 1 -> FS2 "
                "(mutually exclusive)\n");
    std::printf("Match found (b7): set by the hardware at the end of a "
                "successful search\n");
    std::printf("VME window: [0x%08x, 0x%08x] (%u bytes; the paper's "
                "'128k' conflicts\nwith its own hex range — we follow "
                "the hex range)\n\n",
                kVmeWindowBase, kVmeWindowEnd, kVmeWindowBytes);

    // Drive the documented FS2 retrieval sequence.
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermWriter writer(sym);
    storage::ClauseFileBuilder builder(writer);
    for (const auto &c : reader.parseProgram(
             "married_couple(john, mary).\n"
             "married_couple(pat, pat).\n"
             "married_couple(ann, bob).\n"))
        builder.add(c);
    storage::ClauseFile file = builder.finish();

    ClareBoard board{scw::CodewordGenerator{}};
    ClareDriver driver(board);
    term::ParsedQuery q = reader.parseQuery("married_couple(S, S)");
    fs2::Fs2SearchResult result = driver.fs2Search(q.arena, q.goals[0],
                                                   file);

    Table sequence("Driver sequence for an FS2 retrieval "
                   "(married_couple(S,S))");
    sequence.header({"Step", "Mode written", "Effect"});
    const char *effects[] = {
        "query translated to microprogram, loaded into the WCS",
        "query arguments written into the Query Memory",
        "clauses stream through the Double Buffer and TUE",
        "satisfiers read back from the Result Memory",
    };
    for (std::size_t i = 0; i < driver.lastSequence().size(); ++i) {
        sequence.row({std::to_string(i + 1),
                      operationalModeName(driver.lastSequence()[i]),
                      effects[i]});
    }
    sequence.print(std::cout);

    std::printf("\nsearch outcome: %zu satisfier(s); control register = "
                "0x%02x (b7 %s)\n",
                result.acceptedOrdinals.size(),
                board.read8(kVmeWindowBase),
                (board.read8(kVmeWindowBase) & 0x80) ? "set" : "clear");
    std::printf("satisfier 0 is clause ordinal %u: %s\n",
                result.acceptedOrdinals[0],
                file.sourceText(result.acceptedOrdinals[0]).c_str());
    return 0;
}
