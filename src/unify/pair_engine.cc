#include "unify/pair_engine.hh"

#include "support/logging.hh"

namespace clare::unify {

using pif::isDbVarItem;
using pif::isNamedVarItem;
using pif::isQueryVarItem;
using pif::PifItem;
using pif::TagClass;
using pif::tagClass;

bool
compareListHeaders(int level, const PifItem &a, const PifItem &b)
{
    if (level <= 2)
        return true;

    std::uint32_t aa = pif::tagArity(a.tag);
    std::uint32_t ab = pif::tagArity(b.tag);
    bool a_unterm = pif::isUntermListTag(a.tag);
    bool b_unterm = pif::isUntermListTag(b.tag);
    bool a_sat = !pif::isInlineComplexTag(a.tag) &&
        aa == pif::kMaxInlineArity;
    bool b_sat = !pif::isInlineComplexTag(b.tag) &&
        ab == pif::kMaxInlineArity;

    if (!a_unterm && !b_unterm)
        return aa == ab || a_sat || b_sat;
    if (a_unterm && b_unterm)
        return true;
    const bool a_is_unterm = a_unterm;
    std::uint32_t unterm_arity = a_is_unterm ? aa : ab;
    std::uint32_t term_arity = a_is_unterm ? ab : aa;
    bool term_sat = a_is_unterm ? b_sat : a_sat;
    return unterm_arity <= term_arity || term_sat;
}

bool
compareItemHeaders(int level, const PifItem &a, const PifItem &b)
{
    bool a_list = pif::isListTag(a.tag);
    bool b_list = pif::isListTag(b.tag);
    if (a_list || b_list) {
        if (!(a_list && b_list))
            return false;
        return compareListHeaders(level, a, b);
    }

    TagClass ca = tagClass(a.tag);
    TagClass cb = tagClass(b.tag);
    bool a_struct = ca == TagClass::StructInline ||
        ca == TagClass::StructPointer;
    bool b_struct = cb == TagClass::StructInline ||
        cb == TagClass::StructPointer;
    if (a_struct || b_struct) {
        if (!(a_struct && b_struct))
            return false;
        if (level <= 1)
            return true;
        if (a.content != b.content)
            return false;
        std::uint32_t aa = pif::tagArity(a.tag);
        std::uint32_t ab = pif::tagArity(b.tag);
        if (aa == ab)
            return true;
        bool a_big = ca == TagClass::StructPointer &&
            aa == pif::kMaxInlineArity;
        bool b_big = cb == TagClass::StructPointer &&
            ab == pif::kMaxInlineArity;
        return a_big || b_big;
    }

    if (ca != cb)
        return false;
    if (level <= 1)
        return true;
    return a.tag == b.tag && a.content == b.content;
}

PairEngine::PairEngine(int level, bool cross_binding)
    : level_(level), crossBinding_(cross_binding)
{
    clare_assert(level >= 1 && level <= 3,
                 "PairEngine level must be 1-3, got %d", level);
}

void
PairEngine::reset(std::uint32_t db_slots, std::uint32_t query_slots)
{
    dbCells_.assign(db_slots, Cell{});
    qCells_.assign(query_slots, Cell{});
}

PairEngine::Cell &
PairEngine::cellFor(const PifItem &item)
{
    if (isDbVarItem(item)) {
        clare_assert(item.content < dbCells_.size(),
                     "db var slot %u out of range", item.content);
        return dbCells_[item.content];
    }
    clare_assert(isQueryVarItem(item), "cellFor on non-var item");
    clare_assert(item.content < qCells_.size(),
                 "query var slot %u out of range", item.content);
    return qCells_[item.content];
}

bool
PairEngine::ultimate(PifItem item, PifItem &out)
{
    std::size_t guard = dbCells_.size() + qCells_.size() + 2;
    while (isNamedVarItem(item)) {
        if (guard-- == 0)
            return false;   // cyclic chain: treat as unbound
        Cell &cell = cellFor(item);
        if (!cell.bound)
            return false;
        item = cell.value;
    }
    if (pif::isAnonVarItem(item))
        return false;
    out = item;
    return true;
}

bool
PairEngine::matchDbVar(const PifItem &db_item, const PifItem &q_item,
                       OpSink sink)
{
    Cell &cell = cellFor(db_item);
    if (tagClass(db_item.tag) == TagClass::FirstDbVar) {
        sink(TueOp::DbStore);
        cell.bound = true;
        cell.value = q_item;
        return true;
    }
    // Subsequent DB variable: fetch then match.
    if (!cell.bound) {
        sink(TueOp::DbFetch);
        return true;
    }
    PifItem value = cell.value;
    if (isNamedVarItem(value)) {
        sink(TueOp::DbCrossBoundFetch);
        PifItem final_value;
        if (!ultimate(value, final_value))
            return true;
        if (isNamedVarItem(q_item)) {
            PifItem q_final;
            if (!ultimate(q_item, q_final))
                return true;
            return compareItemHeaders(level_, final_value, q_final);
        }
        return compareItemHeaders(level_, final_value, q_item);
    }
    sink(TueOp::DbFetch);
    if (isNamedVarItem(q_item)) {
        // The binding stands in for the database side against the
        // query-variable rules.
        return matchPair(value, q_item, sink);
    }
    return compareItemHeaders(level_, value, q_item);
}

bool
PairEngine::matchQueryVar(const PifItem &db_item, const PifItem &q_item,
                          OpSink sink)
{
    Cell &cell = cellFor(q_item);
    if (tagClass(q_item.tag) == TagClass::FirstQueryVar) {
        sink(TueOp::QueryStore);
        cell.bound = true;
        cell.value = db_item;
        return true;
    }
    if (!cell.bound) {
        sink(TueOp::QueryFetch);
        return true;
    }
    PifItem value = cell.value;
    if (isNamedVarItem(value)) {
        sink(TueOp::QueryCrossBoundFetch);
        PifItem final_value;
        if (!ultimate(value, final_value))
            return true;
        return compareItemHeaders(level_, final_value, db_item);
    }
    sink(TueOp::QueryFetch);
    return compareItemHeaders(level_, value, db_item);
}

bool
PairEngine::matchPair(const PifItem &db_item, const PifItem &q_item,
                      OpSink sink)
{
    if (pif::isAnonVarItem(db_item) || pif::isAnonVarItem(q_item)) {
        sink(TueOp::Skip);
        return true;
    }

    // Two first-occurrence variables bind to each other: the database
    // cell records the query variable and vice versa.  This mutual
    // cross binding is what later makes the DB_/QUERY_CROSS_BOUND_
    // FETCH operations (figures 11 and 12) fire on subsequent
    // occurrences; the ultimate-association walk treats the resulting
    // two-element cycle as "still unbound".
    if (crossBinding_ &&
        tagClass(db_item.tag) == TagClass::FirstDbVar &&
        tagClass(q_item.tag) == TagClass::FirstQueryVar) {
        sink(TueOp::DbStore);
        Cell &db_cell = cellFor(db_item);
        db_cell.bound = true;
        db_cell.value = q_item;
        sink(TueOp::QueryStore);
        Cell &q_cell = cellFor(q_item);
        q_cell.bound = true;
        q_cell.value = db_item;
        return true;
    }

    if (isDbVarItem(db_item)) {
        if (!crossBinding_) {
            sink(TueOp::Skip);
            return true;
        }
        return matchDbVar(db_item, q_item, sink);
    }

    if (isQueryVarItem(q_item)) {
        if (!crossBinding_) {
            sink(TueOp::Skip);
            return true;
        }
        return matchQueryVar(db_item, q_item, sink);
    }

    sink(TueOp::Match);
    return compareItemHeaders(level_, db_item, q_item);
}

} // namespace clare::unify
