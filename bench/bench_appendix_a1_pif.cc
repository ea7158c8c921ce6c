/**
 * @file
 * Experiment A1 — Appendix Table A1: the CLARE data-type scheme.
 *
 * Prints the implemented tag scheme row by row (tag patterns, content
 * and extension fields) and the valid-tag enumeration, then exercises
 * an encode/serialize/decode round trip over every tag family to show
 * the wire format is self-consistent.  The paper states "107 data
 * types are supported"; the table as printed spans a larger valid tag
 * space (5 variables + 2 pointer simples + 16 integer nibbles + 6
 * complex families x 31 arities = 209), and gives no decomposition of
 * the 107 — both numbers are reported.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "pif/encoder.hh"
#include "pif/pif_item.hh"
#include "support/table.hh"
#include "term/term_reader.hh"

using namespace clare;
using namespace clare::pif;

int
main(int argc, char **argv)
{
    bench::Args(argc, argv).finish();
    Table scheme("Table A1: CLARE Data Type Scheme (as implemented)");
    scheme.header({"Item", "Type Tag", "Content", "Extension"});
    scheme.row({"Anonymous Var", "0010 0000 (0x20)", "-", "-"});
    scheme.row({"First Query Var", "0010 0111 (0x27)",
                "variable offset", "-"});
    scheme.row({"Subsequent Query Var", "0010 0101 (0x25)",
                "variable offset", "-"});
    scheme.row({"First DB Var", "0010 0110 (0x26)",
                "variable offset", "-"});
    scheme.row({"Subsequent DB Var", "0010 0100 (0x24)",
                "variable offset", "-"});
    scheme.rule();
    scheme.row({"Atom Pointer", "0000 1000 (0x08)",
                "symbol table offset", "-"});
    scheme.row({"Float Pointer", "0000 1001 (0x09)",
                "symbol table offset", "-"});
    scheme.row({"Integer In-line", "0001 nnnn (0x1N)",
                "ls 32 bits (nnnn = ms nibble)", "-"});
    scheme.rule();
    scheme.row({"Structure In-line", "011a aaaa",
                "functor offset; elements follow", "-"});
    scheme.row({"Structure Pointer", "010a aaaa", "functor offset",
                "pointer to structure"});
    scheme.row({"Terminated List In-line", "111a aaaa",
                "-; elements follow", "-"});
    scheme.row({"Unterminated List In-line", "101a aaaa",
                "-; elements follow", "-"});
    scheme.row({"Terminated List Pointer", "110a aaaa",
                "pointer to list (DB side)", "-"});
    scheme.row({"Unterminated List Pointer", "100a aaaa",
                "pointer to list (DB side)", "-"});
    scheme.print(std::cout);

    std::printf("\nValid tag bytes implemented: %zu "
                "(paper reports \"107 data types\"; Table A1 as printed "
                "spans 209)\n", countSupportedTags());

    Table families("Valid tags per family");
    families.header({"Family", "Count"});
    std::size_t counts[14] = {};
    for (Tag t : allValidTags())
        ++counts[static_cast<std::size_t>(tagClass(t))];
    for (std::size_t i = 0; i < 14; ++i) {
        if (counts[i]) {
            families.row({tagClassName(static_cast<TagClass>(i)),
                          std::to_string(counts[i])});
        }
    }
    families.print(std::cout);

    // Round-trip exercise across all families.
    term::SymbolTable sym;
    term::TermReader reader(sym);
    const char *samples[] = {
        "p(_, X, X, atom, 3.25, -42, 34359738367)",
        "p(f(a, Y, 3), g(h(k)), [1, 2, 3], [a | T], f([x, y]), q, r)",
        "p(f(a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,"
        "a,a,a,a,a,a), x, y, z, w, u, v)",
    };
    Encoder encoder;
    std::size_t items_total = 0;
    std::size_t bytes_total = 0;
    for (const char *text : samples) {
        term::ParsedTerm t = reader.parseTerm(text);
        for (Side side : {Side::Db, Side::Query}) {
            EncodedArgs args = encoder.encodeArgs(t.arena, t.root, side);
            std::vector<std::uint8_t> wire;
            for (const auto &item : args.items)
                serializeItem(item, wire);
            std::size_t at = 0;
            std::size_t n = 0;
            while (at < wire.size()) {
                PifItem back = deserializeItem(wire, at);
                if (!(back == args.items[n])) {
                    std::printf("ROUND TRIP FAILED at item %zu\n", n);
                    return 1;
                }
                ++n;
            }
            items_total += args.items.size();
            bytes_total += wire.size();
        }
    }
    std::printf("\nencode/serialize/decode round trip: %zu items, "
                "%zu wire bytes, all families — OK\n",
                items_total, bytes_total);
    return 0;
}
