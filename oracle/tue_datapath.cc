#include "oracle/tue_datapath.hh"

#include "support/logging.hh"
#include "unify/pair_engine.hh"

namespace clare::fs2 {

using pif::PifItem;
using pif::TagClass;
using pif::tagClass;
using unify::TueOp;

TueDatapath::TueDatapath(int level)
    : level_(level)
{
    clare_assert(level >= 1 && level <= 3,
                 "TueDatapath level must be 1-3, got %d", level);
}

void
TueDatapath::loadQuery(const pif::EncodedArgs &query)
{
    // Set Query mode: the host writes the query stream through Sel4's
    // right branch.  Variable items address the binding-cell region,
    // which starts unbound (cells point to themselves).
    queryItems_ = query.items;
    queryCells_.assign(query.varSlots, TueWord{});
}

void
TueDatapath::resetForClause(std::uint32_t db_slots)
{
    // "The DB Memory ... is reset to pointing to itself at the
    // beginning of each clause input": a self-pointing cell reads as
    // unbound.  The microprogram re-initializes the query cells too.
    dbMemory_.assign(db_slots, TueWord{});
    for (auto &cell : queryCells_)
        cell = TueWord{};
}

TueWord
TueDatapath::readCell(const PifItem &var_item) const
{
    if (pif::isDbVarItem(var_item)) {
        clare_assert(var_item.content < dbMemory_.size(),
                     "DB Memory address %u out of range",
                     var_item.content);
        return dbMemory_[var_item.content];
    }
    clare_assert(pif::isQueryVarItem(var_item),
                 "cell read through a non-variable item");
    clare_assert(var_item.content < queryCells_.size(),
                 "Query Memory cell address %u out of range",
                 var_item.content);
    return queryCells_[var_item.content];
}

void
TueDatapath::writeCell(const PifItem &var_item, const PifItem &v)
{
    if (pif::isDbVarItem(var_item)) {
        clare_assert(var_item.content < dbMemory_.size(),
                     "DB Memory address %u out of range",
                     var_item.content);
        dbMemory_[var_item.content] = TueWord{true, v};
        return;
    }
    clare_assert(pif::isQueryVarItem(var_item),
                 "cell write through a non-variable item");
    clare_assert(var_item.content < queryCells_.size(),
                 "Query Memory cell address %u out of range",
                 var_item.content);
    queryCells_[var_item.content] = TueWord{true, v};
}

bool
TueDatapath::ultimate(PifItem item, PifItem &out) const
{
    // The microprogram recycles the fetched word through the memory
    // address port while its type field stays a variable reference
    // (figures 11/12, cycles 2..); a bounded visit count treats
    // reference cycles as unbound.
    std::size_t guard = dbMemory_.size() + queryCells_.size() + 2;
    while (pif::isNamedVarItem(item)) {
        if (guard-- == 0)
            return false;
        TueWord word = readCell(item);
        if (!word.bound)
            return false;
        item = word.item;
    }
    if (pif::isAnonVarItem(item))
        return false;
    out = item;
    return true;
}

TueExecResult
TueDatapath::dbVarOp(const PifItem &db_item, const PifItem &q_item)
{
    TueExecResult result;
    if (tagClass(db_item.tag) == TagClass::FirstDbVar) {
        // DB_STORE (fig. 7): query data through Sel6 -> Query Memory
        // -> Reg3 into the DB Memory input port, addressed by the
        // In-bus -> Sel1 -> Sel2 path.
        writeCell(db_item, q_item);
        result.performed.push_back(TueOp::DbStore);
        result.hit = true;
        return result;
    }

    // Subsequent DB variable: the In-bus addresses the B port (fig. 9).
    TueWord word = readCell(db_item);
    if (!word.bound) {
        result.performed.push_back(TueOp::DbFetch);
        result.hit = true;
        return result;
    }
    if (pif::isNamedVarItem(word.item)) {
        // DB_CROSS_BOUND_FETCH (fig. 11): the fetched reference is
        // recycled through Reg1 to the address port.
        result.performed.push_back(TueOp::DbCrossBoundFetch);
        PifItem final_value;
        if (!ultimate(word.item, final_value)) {
            result.hit = true;
            return result;
        }
        if (pif::isNamedVarItem(q_item)) {
            PifItem q_final;
            if (!ultimate(q_item, q_final)) {
                result.hit = true;
                return result;
            }
            result.hit = unify::compareItemHeaders(level_, final_value,
                                                   q_final);
            return result;
        }
        result.hit = unify::compareItemHeaders(level_, final_value,
                                               q_item);
        return result;
    }
    result.performed.push_back(TueOp::DbFetch);
    if (pif::isNamedVarItem(q_item)) {
        // The binding stands in for the database side against the
        // query-variable rules.
        TueExecResult sub = queryVarOp(word.item, q_item);
        result.hit = sub.hit;
        for (TueOp op : sub.performed)
            result.performed.push_back(op);
        return result;
    }
    result.hit = unify::compareItemHeaders(level_, word.item, q_item);
    return result;
}

TueExecResult
TueDatapath::queryVarOp(const PifItem &db_item, const PifItem &q_item)
{
    TueExecResult result;
    if (tagClass(q_item.tag) == TagClass::FirstQueryVar) {
        // QUERY_STORE (fig. 8): database data through Sel1 -> Sel5 ->
        // Sel4 into the Query Memory, addressed via Sel6.
        writeCell(q_item, db_item);
        result.performed.push_back(TueOp::QueryStore);
        result.hit = true;
        return result;
    }

    TueWord word = readCell(q_item);
    if (!word.bound) {
        result.performed.push_back(TueOp::QueryFetch);
        result.hit = true;
        return result;
    }
    if (pif::isNamedVarItem(word.item)) {
        // QUERY_CROSS_BOUND_FETCH (fig. 12).
        result.performed.push_back(TueOp::QueryCrossBoundFetch);
        PifItem final_value;
        if (!ultimate(word.item, final_value)) {
            result.hit = true;
            return result;
        }
        result.hit = unify::compareItemHeaders(level_, final_value,
                                               db_item);
        return result;
    }
    result.performed.push_back(TueOp::QueryFetch);
    result.hit = unify::compareItemHeaders(level_, word.item, db_item);
    return result;
}

TueExecResult
TueDatapath::execute(const PifItem &db_item, std::size_t q_index)
{
    clare_assert(q_index < queryItems_.size(),
                 "query item index %zu out of range", q_index);
    const PifItem &q_item = queryItems_[q_index];

    TueExecResult result;
    if (pif::isAnonVarItem(db_item) || pif::isAnonVarItem(q_item)) {
        result.performed.push_back(TueOp::Skip);
        result.hit = true;
        return result;
    }

    // Two first occurrences bind mutually (cf. the functional core).
    if (tagClass(db_item.tag) == TagClass::FirstDbVar &&
        tagClass(q_item.tag) == TagClass::FirstQueryVar) {
        writeCell(db_item, q_item);
        result.performed.push_back(TueOp::DbStore);
        writeCell(q_item, db_item);
        result.performed.push_back(TueOp::QueryStore);
        result.hit = true;
        return result;
    }

    if (pif::isDbVarItem(db_item))
        return dbVarOp(db_item, q_item);
    if (pif::isQueryVarItem(q_item))
        return queryVarOp(db_item, q_item);

    // MATCH (fig. 6): In-bus -> Sel1 to the A port; Sel6 -> Query
    // Memory -> Sel3 to the B port.
    result.performed.push_back(TueOp::Match);
    result.hit = unify::compareItemHeaders(level_, db_item, q_item);
    return result;
}

const TueWord &
TueDatapath::dbCell(std::uint32_t slot) const
{
    clare_assert(slot < dbMemory_.size(), "db cell %u out of range",
                 slot);
    return dbMemory_[slot];
}

const TueWord &
TueDatapath::queryCell(std::uint32_t slot) const
{
    clare_assert(slot < queryCells_.size(),
                 "query cell %u out of range", slot);
    return queryCells_[slot];
}

const PifItem &
TueDatapath::queryItem(std::size_t index) const
{
    clare_assert(index < queryItems_.size(),
                 "query item %zu out of range", index);
    return queryItems_[index];
}

} // namespace clare::fs2
