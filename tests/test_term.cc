/**
 * @file
 * Unit tests for the symbol table, term arena, cell images, clauses
 * and programs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "support/logging.hh"
#include "term/cell_image.hh"
#include "term/clause.hh"
#include "term/symbol_table.hh"
#include "term/term.hh"

namespace clare::term {
namespace {

TEST(SymbolTable, ReservedSymbols)
{
    SymbolTable sym;
    EXPECT_EQ(sym.intern("[]"), SymbolTable::kNil);
    EXPECT_EQ(sym.intern("."), SymbolTable::kDot);
    EXPECT_EQ(sym.name(SymbolTable::kNil), "[]");
}

TEST(SymbolTable, InternIsIdempotent)
{
    SymbolTable sym;
    SymbolId a = sym.intern("foo");
    SymbolId b = sym.intern("foo");
    EXPECT_EQ(a, b);
    EXPECT_EQ(sym.name(a), "foo");
}

TEST(SymbolTable, DistinctNamesDistinctIds)
{
    SymbolTable sym;
    EXPECT_NE(sym.intern("foo"), sym.intern("bar"));
}

TEST(SymbolTable, LookupWithoutInterning)
{
    SymbolTable sym;
    EXPECT_EQ(sym.lookup("ghost"), kNoSymbol);
    sym.intern("ghost");
    EXPECT_NE(sym.lookup("ghost"), kNoSymbol);
    EXPECT_EQ(sym.atomCount(), 3u);     // [] . ghost
}

TEST(SymbolTable, FloatInterning)
{
    SymbolTable sym;
    FloatId a = sym.internFloat(3.25);
    FloatId b = sym.internFloat(3.25);
    FloatId c = sym.internFloat(1.5);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_DOUBLE_EQ(sym.floatValue(a), 3.25);
}

TEST(TermArena, AtomRoundTrip)
{
    TermArena arena;
    TermRef t = arena.makeAtom(7);
    EXPECT_EQ(arena.kind(t), TermKind::Atom);
    EXPECT_EQ(arena.atomSymbol(t), 7u);
}

TEST(TermArena, IntRoundTripIncludingNegative)
{
    TermArena arena;
    for (std::int64_t v : {std::int64_t{0}, std::int64_t{42},
                           std::int64_t{-1}, std::int64_t{1} << 40,
                           -(std::int64_t{1} << 40)}) {
        TermRef t = arena.makeInt(v);
        EXPECT_EQ(arena.intValue(t), v);
    }
}

TEST(TermArena, VarTracking)
{
    TermArena arena;
    TermRef v = arena.makeVar(3, 11);
    EXPECT_EQ(arena.varId(v), 3u);
    EXPECT_EQ(arena.varName(v), 11u);
    EXPECT_FALSE(arena.isAnonymous(v));
    TermRef anon = arena.makeVar(4);
    EXPECT_TRUE(arena.isAnonymous(anon));
    EXPECT_EQ(arena.varCeiling(), 5u);
}

TEST(TermArena, StructArgs)
{
    TermArena arena;
    TermRef a = arena.makeAtom(1);
    TermRef b = arena.makeInt(5);
    TermRef args[] = {a, b};
    TermRef s = arena.makeStruct(9, args);
    EXPECT_EQ(arena.kind(s), TermKind::Struct);
    EXPECT_EQ(arena.functor(s), 9u);
    EXPECT_EQ(arena.arity(s), 2u);
    EXPECT_EQ(arena.arg(s, 0), a);
    EXPECT_EQ(arena.arg(s, 1), b);
}

TEST(TermArena, TerminatedAndUnterminatedLists)
{
    TermArena arena;
    TermRef e = arena.makeAtom(2);
    TermRef proper = arena.makeList(std::span(&e, 1));
    EXPECT_TRUE(arena.isTerminatedList(proper));
    EXPECT_EQ(arena.listTail(proper), kNoTerm);

    TermRef tail = arena.makeVar(0, 5);
    TermRef partial = arena.makeList(std::span(&e, 1), tail);
    EXPECT_FALSE(arena.isTerminatedList(partial));
    EXPECT_EQ(arena.listTail(partial), tail);
}

TEST(TermArena, ImportStandardizesApart)
{
    TermArena src;
    TermRef v = src.makeVar(0, 3);
    TermRef args[] = {v, v};
    TermRef s = src.makeStruct(8, args);

    TermArena dst;
    dst.makeVar(0, 1);      // occupy var 0
    TermRef copy = dst.import(src, s, 10);
    EXPECT_EQ(dst.varId(dst.arg(copy, 0)), 10u);
    EXPECT_EQ(dst.varId(dst.arg(copy, 1)), 10u);
}

TEST(TermArena, ImportPreservesStructure)
{
    TermArena src;
    TermRef inner_args[] = {src.makeInt(1), src.makeAtom(4)};
    TermRef inner = src.makeStruct(6, inner_args);
    TermRef tail = src.makeVar(2, 7);
    TermRef list_elems[] = {inner, src.makeFloat(0)};
    TermRef list = src.makeList(list_elems, tail);

    TermArena dst;
    TermRef copy = dst.import(src, list, 0);
    EXPECT_TRUE(TermArena::equal(src, list, dst, copy));
}

TEST(TermArena, EqualDistinguishesKinds)
{
    TermArena a;
    TermArena b;
    EXPECT_FALSE(TermArena::equal(a, a.makeAtom(1), b, b.makeInt(1)));
    EXPECT_TRUE(TermArena::equal(a, a.makeAtom(1), b, b.makeAtom(1)));
    EXPECT_FALSE(TermArena::equal(a, a.makeAtom(1), b, b.makeAtom(2)));
}

TEST(TermArena, EqualComparesListTermination)
{
    TermArena a;
    TermRef e1 = a.makeAtom(2);
    TermRef proper = a.makeList(std::span(&e1, 1));
    TermArena b;
    TermRef e2 = b.makeAtom(2);
    TermRef t = b.makeVar(0, 3);
    TermRef partial = b.makeList(std::span(&e2, 1), t);
    EXPECT_FALSE(TermArena::equal(a, proper, b, partial));
}

TEST(TermKindName, CoversAll)
{
    EXPECT_STREQ(termKindName(TermKind::Atom), "atom");
    EXPECT_STREQ(termKindName(TermKind::List), "list");
}

Clause
makeFact(SymbolTable &sym, const char *functor,
         std::initializer_list<const char *> atoms)
{
    TermArena arena;
    std::vector<TermRef> args;
    for (const char *a : atoms)
        args.push_back(arena.makeAtom(sym.intern(a)));
    TermRef head = arena.makeStruct(sym.intern(functor), args);
    return Clause(std::move(arena), head, {});
}

TEST(Clause, FactDetection)
{
    SymbolTable sym;
    Clause fact = makeFact(sym, "p", {"a", "b"});
    EXPECT_TRUE(fact.isFact());
    EXPECT_TRUE(fact.isGroundFact());
    EXPECT_EQ(fact.predicate().arity, 2u);
}

TEST(Clause, NonGroundFact)
{
    SymbolTable sym;
    TermArena arena;
    TermRef args[] = {arena.makeVar(0, sym.intern("X")),
                      arena.makeAtom(sym.intern("a"))};
    TermRef head = arena.makeStruct(sym.intern("p"), args);
    Clause clause(std::move(arena), head, {});
    EXPECT_TRUE(clause.isFact());
    EXPECT_FALSE(clause.isGroundFact());
}

TEST(Clause, RuleIsNotFact)
{
    SymbolTable sym;
    TermArena arena;
    TermRef arg = arena.makeAtom(sym.intern("a"));
    TermRef head = arena.makeStruct(sym.intern("p"), std::span(&arg, 1));
    TermRef goal = arena.makeAtom(sym.intern("true"));
    Clause clause(std::move(arena), head, {goal});
    EXPECT_FALSE(clause.isFact());
}

TEST(Clause, HeadMustBeCallable)
{
    SymbolTable sym;
    TermArena arena;
    TermRef head = arena.makeInt(3);
    EXPECT_THROW(Clause(std::move(arena), head, {}), FatalError);
}

TEST(Program, PreservesGlobalOrder)
{
    SymbolTable sym;
    Program prog;
    prog.add(makeFact(sym, "p", {"a"}));
    prog.add(makeFact(sym, "q", {"b"}));
    prog.add(makeFact(sym, "p", {"c"}));
    EXPECT_EQ(prog.size(), 3u);
    PredicateId p{sym.intern("p"), 1};
    ASSERT_EQ(prog.clausesOf(p).size(), 2u);
    EXPECT_EQ(prog.clausesOf(p)[0], 0u);
    EXPECT_EQ(prog.clausesOf(p)[1], 2u);
}

TEST(Program, PredicatesInFirstAppearanceOrder)
{
    SymbolTable sym;
    Program prog;
    prog.add(makeFact(sym, "q", {"a"}));
    prog.add(makeFact(sym, "p", {"b"}));
    ASSERT_EQ(prog.predicates().size(), 2u);
    EXPECT_EQ(prog.predicates()[0].functor, sym.intern("q"));
}

TEST(Program, MixedRelationDetection)
{
    SymbolTable sym;
    Program prog;
    prog.add(makeFact(sym, "p", {"a"}));
    PredicateId p{sym.intern("p"), 1};
    EXPECT_FALSE(prog.isMixedRelation(p));

    TermArena arena;
    TermRef arg = arena.makeVar(0, sym.intern("X"));
    TermRef head = arena.makeStruct(sym.intern("p"), std::span(&arg, 1));
    prog.add(Clause(std::move(arena), head, {}));
    EXPECT_TRUE(prog.isMixedRelation(p));
}

TEST(Program, UnknownPredicateHasNoClauses)
{
    SymbolTable sym;
    Program prog;
    EXPECT_TRUE(prog.clausesOf(PredicateId{sym.intern("none"), 3})
                    .empty());
}

// ---------------------------------------------------------------------
// Cell images: encode -> decode rebuilds the same term.
// ---------------------------------------------------------------------

/** Encode @p t, decode it into a fresh arena, return the cells used. */
std::vector<Cell>
roundTrip(const TermArena &arena, TermRef t, VarId offset,
          TermArena &out, TermRef &back)
{
    std::vector<Cell> cells;
    encodeCells(arena, t, cells);
    back = decodeCells(out, cells.data(), offset);
    return cells;
}

TEST(CellImage, IntegersAroundTheInlineAndPifRanges)
{
    const std::int64_t kInline = std::int64_t{1} << 28;
    const std::int64_t kPif = std::int64_t{1} << 35;
    struct Case
    {
        std::int64_t value;
        std::size_t cells;
    };
    const Case cases[] = {
        {0, 1}, {1, 1}, {-1, 1},
        {kInline - 1, 1}, {kInline, 3},
        {-kInline, 1}, {-kInline - 1, 3},
        {kPif - 1, 3}, {kPif, 3}, {-kPif, 3}, {-kPif - 1, 3},
        {std::numeric_limits<std::int64_t>::max(), 3},
        {std::numeric_limits<std::int64_t>::min(), 3},
    };
    for (const Case &c : cases) {
        TermArena arena;
        TermRef t = arena.makeInt(c.value);
        TermArena out;
        TermRef back;
        std::vector<Cell> cells = roundTrip(arena, t, 0, out, back);
        EXPECT_EQ(cells.size(), c.cells) << c.value;
        ASSERT_EQ(out.kind(back), TermKind::Int);
        EXPECT_EQ(out.intValue(back), c.value);
    }
}

TEST(CellImage, LeavesAndWideIds)
{
    SymbolTable sym;
    TermArena arena;
    std::vector<TermRef> leaves = {
        arena.makeAtom(sym.intern("a")),
        arena.makeAtom(SymbolTable::kNil),
        arena.makeFloat(sym.internFloat(-2.5)),
        arena.makeFloat(sym.internFloat(1e300)),
        // Ids past the inline 29-bit field take the Wide form.
        arena.makeAtom((1u << 29) - 1),
        arena.makeAtom(1u << 29),
        arena.makeFloat(0xfffffff0u),
        arena.makeVar((1u << 29) + 7),
    };
    const std::size_t expect_cells[] = {1, 1, 1, 1, 1, 2, 2, 2};
    for (std::size_t i = 0; i < leaves.size(); ++i) {
        TermArena out;
        TermRef back;
        std::vector<Cell> cells = roundTrip(arena, leaves[i], 0, out,
                                            back);
        EXPECT_EQ(cells.size(), expect_cells[i]) << "leaf " << i;
        EXPECT_TRUE(TermArena::equal(arena, leaves[i], out, back))
            << "leaf " << i;
    }
}

TEST(CellImage, VariablesAreOffsetAndNameless)
{
    SymbolTable sym;
    TermArena arena;
    // p(X, _, X, Y): a repeated variable, an anonymous one, a fresh one.
    TermRef args[] = {arena.makeVar(0, sym.intern("X")),
                      arena.makeVar(1),
                      arena.makeVar(0, sym.intern("X")),
                      arena.makeVar(2, sym.intern("Y"))};
    TermRef p = arena.makeStruct(sym.intern("p"), args);
    for (VarId offset : {0u, 5u, 1000u}) {
        TermArena out;
        TermRef back;
        std::vector<Cell> cells = roundTrip(arena, p, offset, out, back);
        EXPECT_EQ(cells.size(), 5u);
        TermArena expect;
        TermRef e = expect.import(arena, p, offset);
        EXPECT_TRUE(TermArena::equal(expect, e, out, back));
        EXPECT_EQ(out.varId(out.arg(back, 0)), out.varId(out.arg(back, 2)));
        EXPECT_EQ(out.varCeiling(), offset + 3);
        for (std::uint32_t i = 0; i < 4; ++i)
            EXPECT_TRUE(out.isAnonymous(out.arg(back, i)));
    }
}

TEST(CellImage, ListsNestingAndWideStructures)
{
    SymbolTable sym;
    TermArena arena;
    TermRef a = arena.makeAtom(sym.intern("a"));
    TermRef b = arena.makeInt(-7);
    TermRef tail = arena.makeVar(3, sym.intern("T"));
    TermRef ab[] = {a, b};
    TermRef partial = arena.makeList(ab, tail);          // [a, -7 | T]
    TermRef proper = arena.makeList(ab);                 // [a, -7]
    TermRef inner = arena.makeStruct(sym.intern("h"), std::span(&partial, 1));
    TermRef mid[] = {inner, proper};
    TermRef nested = arena.makeStruct(sym.intern("g"), mid);
    TermRef nest1[] = {nested, arena.makeFloat(sym.internFloat(0.5))};
    TermRef deep = arena.makeStruct(sym.intern("f"), nest1);

    // Arity 31 still packs into one cell; 32 and past take Wide.
    std::vector<TermRef> many;
    for (int i = 0; i < 40; ++i)
        many.push_back(i % 2 ? a : arena.makeVar(static_cast<VarId>(i)));
    TermRef arity31 = arena.makeStruct(sym.intern("w"),
                                       std::span(many.data(), 31));
    TermRef arity32 = arena.makeStruct(sym.intern("w"),
                                       std::span(many.data(), 32));
    TermRef arity40 = arena.makeStruct(sym.intern("w"), many);
    TermRef wide_functor = arena.makeStruct(1u << 24, std::span(&a, 1));

    struct Case
    {
        TermRef t;
        std::size_t cells;
    };
    const Case cases[] = {
        {partial, 4}, {proper, 3}, {deep, 11},
        {arity31, 32}, {arity32, 35}, {arity40, 43},
        {wide_functor, 4},
    };
    for (const Case &c : cases) {
        for (VarId offset : {0u, 9u}) {
            TermArena out;
            TermRef back;
            std::vector<Cell> cells = roundTrip(arena, c.t, offset, out,
                                                back);
            EXPECT_EQ(cells.size(), c.cells) << "term " << c.t;
            TermArena expect;
            TermRef e = expect.import(arena, c.t, offset);
            EXPECT_TRUE(TermArena::equal(expect, e, out, back))
                << "term " << c.t << " offset " << offset;
        }
    }
}

TEST(CellImage, DecodeAppendsBesideExistingNodes)
{
    SymbolTable sym;
    TermArena arena;
    TermRef x = arena.makeVar(0, sym.intern("X"));
    TermRef pair[] = {x, arena.makeAtom(sym.intern("b"))};
    TermRef lst = arena.makeList(pair);
    TermRef s = arena.makeStruct(sym.intern("s"), std::span(&lst, 1));
    std::vector<Cell> cells;
    encodeCells(arena, s, cells);

    // Decoding twice into one arena leaves both copies intact.
    TermArena out;
    TermRef first = decodeCells(out, cells.data(), 0);
    TermRef second = decodeCells(out, cells.data(), 1);
    TermArena expect;
    TermRef e0 = expect.import(arena, s, 0);
    TermRef e1 = expect.import(arena, s, 1);
    EXPECT_TRUE(TermArena::equal(expect, e0, out, first));
    EXPECT_TRUE(TermArena::equal(expect, e1, out, second));
}

} // namespace
} // namespace clare::term
