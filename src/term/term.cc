#include "term/term.hh"

#include <algorithm>

#include "support/logging.hh"

namespace clare::term {

const char *
termKindName(TermKind kind)
{
    switch (kind) {
      case TermKind::Atom: return "atom";
      case TermKind::Int: return "int";
      case TermKind::Float: return "float";
      case TermKind::Var: return "var";
      case TermKind::Struct: return "struct";
      case TermKind::List: return "list";
    }
    return "?";
}

TermArena::TermArena()
    : mem_(std::make_unique<support::Arena>())
{
    nodes_.attach(*mem_);
    args_.attach(*mem_);
}

TermArena::TermArena(const TermArena &other)
    : TermArena()
{
    *this = other;
}

TermArena &
TermArena::operator=(const TermArena &other)
{
    if (this == &other)
        return *this;
    mem_->reset();
    nodes_.attach(*mem_);
    args_.attach(*mem_);
    nodes_.append(other.nodes_.data(), other.nodes_.size());
    args_.append(other.args_.data(), other.args_.size());
    varCeiling_ = other.varCeiling_;
    return *this;
}

void
TermArena::reset()
{
    mem_->reset();
    nodes_.attach(*mem_);
    args_.attach(*mem_);
    varCeiling_ = 0;
}

const TermArena::Node &
TermArena::node(TermRef t) const
{
    clare_assert(t < nodes_.size(), "term ref %u out of range", t);
    return nodes_[t];
}

TermRef
TermArena::push(Node n)
{
    TermRef r = static_cast<TermRef>(nodes_.size());
    nodes_.push_back(n);
    return r;
}

std::uint32_t
TermArena::reserveArgs(std::uint32_t n)
{
    std::uint32_t begin = static_cast<std::uint32_t>(args_.size());
    args_.resize(begin + n);
    return begin;
}

TermRef
TermArena::makeAtom(SymbolId sym)
{
    return push(Node{TermKind::Atom, sym, 0, 0, 0});
}

TermRef
TermArena::makeInt(std::int64_t value)
{
    std::uint64_t u = static_cast<std::uint64_t>(value);
    return push(Node{TermKind::Int,
                     static_cast<std::uint32_t>(u & 0xffffffffu),
                     static_cast<std::uint32_t>(u >> 32), 0, 0});
}

TermRef
TermArena::makeFloat(FloatId id)
{
    return push(Node{TermKind::Float, id, 0, 0, 0});
}

TermRef
TermArena::makeVar(VarId var, SymbolId name)
{
    varCeiling_ = std::max(varCeiling_, var + 1);
    return push(Node{TermKind::Var, var, name, 0, 0});
}

TermRef
TermArena::makeStruct(SymbolId functor, std::span<const TermRef> args)
{
    clare_assert(!args.empty(), "a structure must have at least one arg");
    std::uint32_t begin = static_cast<std::uint32_t>(args_.size());
    args_.append(args.data(), args.size());
    return push(Node{TermKind::Struct, functor, 0, begin,
                     static_cast<std::uint32_t>(args.size())});
}

TermRef
TermArena::makeList(std::span<const TermRef> elems, TermRef tail)
{
    clare_assert(!elems.empty(),
                 "an empty list is the atom '[]', not a List node");
    // The parser only produces variable tails; the unifier may build
    // residual lists whose tail is an arbitrary term (improper lists
    // are tolerated at runtime, as in standard Prolog).
    std::uint32_t begin = static_cast<std::uint32_t>(args_.size());
    args_.append(elems.data(), elems.size());
    return push(Node{TermKind::List, 0, tail, begin,
                     static_cast<std::uint32_t>(elems.size())});
}

TermKind
TermArena::kind(TermRef t) const
{
    return node(t).kind;
}

SymbolId
TermArena::atomSymbol(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind == TermKind::Atom, "not an atom");
    return n.a;
}

std::int64_t
TermArena::intValue(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind == TermKind::Int, "not an int");
    std::uint64_t u = (static_cast<std::uint64_t>(n.b) << 32) | n.a;
    return static_cast<std::int64_t>(u);
}

FloatId
TermArena::floatId(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind == TermKind::Float, "not a float");
    return n.a;
}

VarId
TermArena::varId(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind == TermKind::Var, "not a var");
    return n.a;
}

SymbolId
TermArena::varName(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind == TermKind::Var, "not a var");
    return n.b;
}

bool
TermArena::isAnonymous(TermRef t) const
{
    return varName(t) == kNoSymbol;
}

SymbolId
TermArena::functor(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind == TermKind::Struct, "not a struct");
    return n.a;
}

std::uint32_t
TermArena::arity(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind == TermKind::Struct || n.kind == TermKind::List,
                 "arity of a non-complex term");
    return n.argsCount;
}

TermRef
TermArena::arg(TermRef t, std::uint32_t i) const
{
    const Node &n = node(t);
    clare_assert(n.kind == TermKind::Struct || n.kind == TermKind::List,
                 "arg of a non-complex term");
    clare_assert(i < n.argsCount, "arg index %u out of range (%u)",
                 i, n.argsCount);
    return args_[n.argsBegin + i];
}

TermRef
TermArena::listTail(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind == TermKind::List, "not a list");
    return n.b;
}

bool
TermArena::isTerminatedList(TermRef t) const
{
    return listTail(t) == kNoTerm;
}

TermRef
TermArena::import(const TermArena &src, TermRef t, VarId var_offset)
{
    const Node &n = src.node(t);
    switch (n.kind) {
      case TermKind::Atom:
        return makeAtom(n.a);
      case TermKind::Int:
        return push(Node{TermKind::Int, n.a, n.b, 0, 0});
      case TermKind::Float:
        return makeFloat(n.a);
      case TermKind::Var:
        return makeVar(n.a + var_offset, n.b);
      case TermKind::Struct:
      case TermKind::List: {
        // Reserve the argument slots first: children append their own
        // argument spans after them, so this node's stay contiguous.
        std::uint32_t begin = reserveArgs(n.argsCount);
        for (std::uint32_t i = 0; i < n.argsCount; ++i)
            args_[begin + i] = import(src, src.args_[n.argsBegin + i],
                                      var_offset);
        if (n.kind == TermKind::Struct)
            return push(Node{TermKind::Struct, n.a, 0, begin,
                             n.argsCount});
        TermRef tail = n.b == kNoTerm
            ? kNoTerm : import(src, n.b, var_offset);
        return push(Node{TermKind::List, 0, tail, begin, n.argsCount});
      }
    }
    clare_panic("unreachable term kind");
}

bool
TermArena::equal(const TermArena &a, TermRef ta,
                 const TermArena &b, TermRef tb)
{
    const Node &na = a.node(ta);
    const Node &nb = b.node(tb);
    if (na.kind != nb.kind)
        return false;
    switch (na.kind) {
      case TermKind::Atom:
      case TermKind::Float:
        return na.a == nb.a;
      case TermKind::Int:
        return na.a == nb.a && na.b == nb.b;
      case TermKind::Var:
        return na.a == nb.a;
      case TermKind::Struct:
        if (na.a != nb.a || na.argsCount != nb.argsCount)
            return false;
        for (std::uint32_t i = 0; i < na.argsCount; ++i)
            if (!equal(a, a.args_[na.argsBegin + i],
                       b, b.args_[nb.argsBegin + i]))
                return false;
        return true;
      case TermKind::List:
        if (na.argsCount != nb.argsCount)
            return false;
        if ((na.b == kNoTerm) != (nb.b == kNoTerm))
            return false;
        for (std::uint32_t i = 0; i < na.argsCount; ++i)
            if (!equal(a, a.args_[na.argsBegin + i],
                       b, b.args_[nb.argsBegin + i]))
                return false;
        if (na.b != kNoTerm && !equal(a, na.b, b, nb.b))
            return false;
        return true;
    }
    clare_panic("unreachable term kind");
}

} // namespace clare::term
