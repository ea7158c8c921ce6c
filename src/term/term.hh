/**
 * @file
 * Arena-based Prolog term representation.
 *
 * Terms are immutable nodes in a TermArena, referenced by dense 32-bit
 * TermRef handles.  The shapes mirror what the CLARE Pseudo In-line
 * Format can express: atoms, integers, floats, variables (named or
 * anonymous), structures, and lists that are either *terminated*
 * (proper, ending in []) or *unterminated* (ending in a tail
 * variable, e.g. [a,b|T]).
 *
 * Lists are stored flattened: a span of element terms plus an optional
 * tail variable.  This matches the PIF encoding, where a list item
 * carries an arity and its elements follow in-line.
 */

#ifndef CLARE_TERM_TERM_HH
#define CLARE_TERM_TERM_HH

#include <cstdint>
#include <memory>
#include <span>

#include "support/arena.hh"
#include "term/symbol_table.hh"

namespace clare::term {

/** Handle to a term node within a TermArena. */
using TermRef = std::uint32_t;

/** Sentinel for "no term" (e.g. the tail of a proper list). */
constexpr TermRef kNoTerm = 0xffffffffu;

/** Identifier of a variable within one clause or query. */
using VarId = std::uint32_t;

/** The six term shapes. */
enum class TermKind : std::uint8_t
{
    Atom,
    Int,
    Float,
    Var,
    Struct,
    List,
};

/** Human-readable name of a TermKind. */
const char *termKindName(TermKind kind);

/**
 * Owns term nodes.  Construction is append-only; nodes are immutable
 * once created.  An arena is independent of any symbol table: it only
 * stores ids, so the same arena can be printed against any table that
 * interned the ids.
 */
class TermArena
{
  public:
    TermArena();
    TermArena(const TermArena &other);
    TermArena &operator=(const TermArena &other);
    TermArena(TermArena &&) noexcept = default;
    TermArena &operator=(TermArena &&) noexcept = default;

    /** Number of nodes in the arena. */
    std::size_t size() const { return nodes_.size(); }

    /**
     * Discard every node in O(1): the backing bump arena rewinds and
     * keeps its high-water blocks, so a reused arena (one per server
     * connection, reset per request or batch) stops allocating once
     * warm.  All outstanding TermRefs become invalid.
     */
    void reset();

    /** Bytes retained by the backing bump arena. */
    std::size_t memoryFootprint() const { return mem_->capacityBytes(); }

    /** @name Constructors for each term shape. */
    /// @{
    TermRef makeAtom(SymbolId sym);
    TermRef makeInt(std::int64_t value);
    TermRef makeFloat(FloatId id);

    /**
     * Make a variable.  @p name is the interned source name, or
     * kNoSymbol for an anonymous variable ('_').  Anonymous variables
     * still get a VarId but are never shared.
     */
    TermRef makeVar(VarId var, SymbolId name = kNoSymbol);

    TermRef makeStruct(SymbolId functor, std::span<const TermRef> args);

    /**
     * Make a list with the given elements and tail.  @p tail is
     * kNoTerm for a terminated (proper) list, or a Var term for an
     * unterminated list.  An empty terminated list should instead be
     * the atom '[]' (use makeAtom(SymbolTable::kNil)).
     */
    TermRef makeList(std::span<const TermRef> elems, TermRef tail = kNoTerm);
    /// @}

    /** @name Accessors (each checks the node kind). */
    /// @{
    TermKind kind(TermRef t) const;
    SymbolId atomSymbol(TermRef t) const;
    std::int64_t intValue(TermRef t) const;
    FloatId floatId(TermRef t) const;
    VarId varId(TermRef t) const;
    SymbolId varName(TermRef t) const;
    bool isAnonymous(TermRef t) const;
    SymbolId functor(TermRef t) const;
    /** Arity of a Struct, or element count of a List. */
    std::uint32_t arity(TermRef t) const;
    TermRef arg(TermRef t, std::uint32_t i) const;
    /** Tail of a List: kNoTerm if terminated. */
    TermRef listTail(TermRef t) const;
    bool isTerminatedList(TermRef t) const;
    /// @}

    /**
     * Copy a term (recursively) from another arena into this one,
     * adding @p var_offset to every variable id so that the copy is
     * standardized apart from terms already present.
     *
     * @return the handle of the copied root in this arena.
     */
    TermRef import(const TermArena &src, TermRef t, VarId var_offset);

    /** Deep structural equality between terms of two arenas. */
    static bool equal(const TermArena &a, TermRef ta,
                      const TermArena &b, TermRef tb);

    /** Largest VarId used plus one (0 if no variables). */
    VarId varCeiling() const { return varCeiling_; }

  private:
    struct Node
    {
        TermKind kind;
        std::uint32_t a;        // symbol / float id / var id / low int bits
        std::uint32_t b;        // name / high int bits / list tail
        std::uint32_t argsBegin;
        std::uint32_t argsCount;
    };

    // Nodes and arg spans live in a block-chained bump arena behind a
    // unique_ptr so moves keep every block address (and thus every
    // raw pointer inside the ArenaVectors) stable.
    std::unique_ptr<support::Arena> mem_;
    support::ArenaVector<Node> nodes_;
    support::ArenaVector<TermRef> args_;
    VarId varCeiling_ = 0;

    const Node &node(TermRef t) const;
    TermRef push(Node n);

    /** Append @p n argument slots; returns the index of the first. */
    std::uint32_t reserveArgs(std::uint32_t n);

    /** decodeCells() body, advancing @p cells past the term. */
    TermRef decodeCellsAt(const std::uint32_t *&cells, VarId var_offset);
    friend TermRef decodeCells(TermArena &arena,
                               const std::uint32_t *cells,
                               VarId var_offset);
};

} // namespace clare::term

#endif // CLARE_TERM_TERM_HH
