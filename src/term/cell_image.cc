#include "term/cell_image.hh"

#include "support/logging.hh"

namespace clare::term {

namespace {

enum CellTag : Cell
{
    kTagAtom = 0,
    kTagInt = 1,
    kTagFloat = 2,
    kTagVar = 3,
    kTagStruct = 4,
    kTagList = 5,
    kTagWide = 7,
};

constexpr Cell kIdLimit = 1u << 29;
constexpr std::int64_t kIntMin = -(std::int64_t{1} << 28);
constexpr std::int64_t kIntMax = (std::int64_t{1} << 28) - 1;
constexpr Cell kFunctorLimit = 1u << 24;
constexpr std::uint32_t kArityMax = 31;
constexpr std::uint32_t kCountLimit = 1u << 28;

Cell
wide(TermKind kind)
{
    return static_cast<Cell>(kind) << 3 | kTagWide;
}

/** Append an id-carrying leaf: inline when the id fits, else Wide. */
void
putId(std::vector<Cell> &out, TermKind kind, CellTag tag, Cell id)
{
    if (id < kIdLimit) {
        out.push_back(id << 3 | tag);
    } else {
        out.push_back(wide(kind));
        out.push_back(id);
    }
}

} // namespace

void
encodeCells(const TermArena &arena, TermRef t, std::vector<Cell> &out)
{
    switch (arena.kind(t)) {
      case TermKind::Atom:
        putId(out, TermKind::Atom, kTagAtom, arena.atomSymbol(t));
        return;
      case TermKind::Float:
        putId(out, TermKind::Float, kTagFloat, arena.floatId(t));
        return;
      case TermKind::Var:
        putId(out, TermKind::Var, kTagVar, arena.varId(t));
        return;
      case TermKind::Int: {
        std::int64_t v = arena.intValue(t);
        if (v >= kIntMin && v <= kIntMax) {
            out.push_back(static_cast<Cell>(v) << 3 | kTagInt);
        } else {
            std::uint64_t u = static_cast<std::uint64_t>(v);
            out.push_back(wide(TermKind::Int));
            out.push_back(static_cast<Cell>(u));
            out.push_back(static_cast<Cell>(u >> 32));
        }
        return;
      }
      case TermKind::Struct: {
        SymbolId functor = arena.functor(t);
        std::uint32_t arity = arena.arity(t);
        if (functor < kFunctorLimit && arity <= kArityMax) {
            out.push_back(functor << 8 | arity << 3 | kTagStruct);
        } else {
            out.push_back(wide(TermKind::Struct));
            out.push_back(functor);
            out.push_back(arity);
        }
        for (std::uint32_t i = 0; i < arity; ++i)
            encodeCells(arena, arena.arg(t, i), out);
        return;
      }
      case TermKind::List: {
        std::uint32_t count = arena.arity(t);
        TermRef tail = arena.listTail(t);
        Cell has_tail = tail == kNoTerm ? 0 : 1;
        if (count < kCountLimit) {
            out.push_back(count << 4 | has_tail << 3 | kTagList);
        } else {
            out.push_back(wide(TermKind::List));
            out.push_back(count);
            out.push_back(has_tail);
        }
        for (std::uint32_t i = 0; i < count; ++i)
            encodeCells(arena, arena.arg(t, i), out);
        if (has_tail)
            encodeCells(arena, tail, out);
        return;
      }
    }
    clare_panic("unreachable term kind");
}

TermRef
decodeCells(TermArena &arena, const Cell *cells, VarId var_offset)
{
    return arena.decodeCellsAt(cells, var_offset);
}

TermRef
TermArena::decodeCellsAt(const Cell *&cells, VarId var_offset)
{
    Cell c = *cells++;
    Cell tag = c & 7;
    TermKind kind;
    Cell a;     // id, functor or count
    Cell b = 0; // arity or tail flag
    std::int64_t value = 0;
    if (tag == kTagWide) {
        kind = static_cast<TermKind>(c >> 3);
        a = *cells++;
        if (kind == TermKind::Int) {
            value = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(*cells++) << 32 | a);
        } else if (kind == TermKind::Struct || kind == TermKind::List) {
            b = *cells++;
        }
    } else {
        a = c >> 3;
        switch (tag) {
          case kTagAtom: kind = TermKind::Atom; break;
          case kTagInt:
            kind = TermKind::Int;
            value = static_cast<std::int32_t>(c) >> 3;
            break;
          case kTagFloat: kind = TermKind::Float; break;
          case kTagVar: kind = TermKind::Var; break;
          case kTagStruct:
            kind = TermKind::Struct;
            a = c >> 8;
            b = (c >> 3) & kArityMax;
            break;
          case kTagList:
            kind = TermKind::List;
            a = c >> 4;
            b = (c >> 3) & 1;
            break;
          default:
            clare_panic("bad cell tag %u", tag);
        }
    }

    switch (kind) {
      case TermKind::Atom: return makeAtom(a);
      case TermKind::Int: return makeInt(value);
      case TermKind::Float: return makeFloat(a);
      case TermKind::Var: return makeVar(a + var_offset);
      case TermKind::Struct:
      case TermKind::List: {
        // Reserve the argument slots first: children append their own
        // argument spans after them, so the parent's stay contiguous.
        std::uint32_t n = kind == TermKind::Struct ? b : a;
        std::uint32_t begin = reserveArgs(n);
        for (std::uint32_t i = 0; i < n; ++i)
            args_[begin + i] = decodeCellsAt(cells, var_offset);
        if (kind == TermKind::Struct)
            return push(Node{TermKind::Struct, a, 0, begin, b});
        TermRef tail = b ? decodeCellsAt(cells, var_offset) : kNoTerm;
        return push(Node{TermKind::List, 0, tail, begin, a});
      }
    }
    clare_panic("unreachable term kind");
}

} // namespace clare::term
