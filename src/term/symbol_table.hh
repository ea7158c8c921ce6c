/**
 * @file
 * Interned symbol table shared by a knowledge base.
 *
 * In the CLARE PIF format the content field of an atom or float is a
 * symbol-table offset, and structure functors are symbol-table offsets
 * too; the FS2 comparator then only ever compares 32-bit offsets.  This
 * class provides that mapping: every distinct atom name and every
 * distinct float value is interned once and identified by a dense
 * 32-bit id.
 */

#ifndef CLARE_TERM_SYMBOL_TABLE_HH
#define CLARE_TERM_SYMBOL_TABLE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace clare::term {

/** Dense identifier of an interned atom name. */
using SymbolId = std::uint32_t;

/** Dense identifier of an interned float value. */
using FloatId = std::uint32_t;

/** Sentinel for "no symbol". */
constexpr SymbolId kNoSymbol = 0xffffffffu;

/**
 * Interns atom names and float constants.
 *
 * Ids are dense and stable; the table is append-only.  Atom id 0 is
 * always '[]' (the empty list) and id 1 is always '.' (the list
 * constructor), mirroring the reserved entries a compiled Prolog
 * system keeps.
 *
 * Thread-safe: serving threads intern while decoding stored clause
 * text as a live commit interns new atoms on the writer thread.
 * Lookups share a reader lock; only an insert takes it exclusively.
 * Entries never move once interned, so a reference from name() stays
 * valid for the table's lifetime.
 */
class SymbolTable
{
  public:
    SymbolTable();

    /** Intern an atom name, returning its id (idempotent). */
    SymbolId intern(std::string_view name);

    /** Look up an atom without interning; kNoSymbol if absent. */
    SymbolId lookup(std::string_view name) const;

    /** The text of an interned atom. */
    const std::string &name(SymbolId id) const;

    /** Intern a float constant, returning its id (idempotent). */
    FloatId internFloat(double value);

    /** The value of an interned float. */
    double floatValue(FloatId id) const;

    std::size_t atomCount() const;
    std::size_t floatCount() const;

    /** Reserved id of the empty-list atom '[]'. */
    static constexpr SymbolId kNil = 0;
    /** Reserved id of the list functor '.'. */
    static constexpr SymbolId kDot = 1;

  private:
    /** Lets byName_ be probed with a string_view, no temporary. */
    struct NameHash
    {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    // unique_ptr keeps the table movable.  A deque keeps every name at
    // a fixed address while later inserts append.
    std::unique_ptr<std::shared_mutex> mutex_;
    std::deque<std::string> names_;
    std::unordered_map<std::string, SymbolId, NameHash, std::equal_to<>>
        byName_;
    std::vector<double> floats_;
    std::unordered_map<double, FloatId> byFloat_;
};

} // namespace clare::term

#endif // CLARE_TERM_SYMBOL_TABLE_HH
