/**
 * @file
 * Selector-level structural model of the Test Unification Engine
 * (figure 5): the dual-port DB Memory, the Query Memory, registers
 * Reg1-3, selectors Sel1-6 and the comparator, executed port by port.
 *
 * Where the TestUnificationEngine class charges figure-level timing
 * and delegates matching to the shared PairEngine, this model actually
 * *moves the data*: Query Memory holds the compiled query (binding
 * cells for the query variables in its low region, the item stream
 * above them, as the content fields of variable items address the low
 * region); DB Memory holds the clause-variable cells, reset to
 * self-pointing at every clause; each operation routes values through
 * the documented selector branches and latches them where the figures
 * say.  Memory contents are observable, so tests can check that
 * DB_STORE really deposited the query argument at the variable's cell
 * and that the cross-bound fetches walk the stored references.
 *
 * The fetch-then-match operations iterate their memory-access cycle
 * while the fetched value is still a variable reference (the
 * microprogram loops on the type field), with a visit bound treating
 * reference cycles as unbound — the same ultimate-association
 * semantics as the functional core, which the equivalence property
 * test enforces.
 */

#ifndef CLARE_ORACLE_TUE_DATAPATH_HH
#define CLARE_ORACLE_TUE_DATAPATH_HH

#include <cstdint>
#include <vector>

#include "pif/encoder.hh"
#include "unify/tue_op.hh"

namespace clare::fs2 {

/** A word in the TUE memories: one PIF item, or an unbound marker. */
struct TueWord
{
    bool bound = false;         ///< self-pointing cells are "unbound"
    pif::PifItem item{};
};

/** Outcome of one datapath operation. */
struct TueExecResult
{
    bool hit = false;
    /** The Table-1 operations the routing amounted to (a var-var
     *  first-occurrence pair performs both stores). */
    std::vector<unify::TueOp> performed;
};

/** The figure-5 structural machine. */
class TueDatapath
{
  public:
    explicit TueDatapath(int level = 3);

    /** Set Query mode: load the compiled query into Query Memory. */
    void loadQuery(const pif::EncodedArgs &query);

    /** Start of a clause: reset DB Memory to self-pointing cells. */
    void resetForClause(std::uint32_t db_slots);

    /**
     * Execute the operation the map ROM dispatched for the pair
     * (current db item, query item at @p q_index within the loaded
     * stream).
     */
    TueExecResult execute(const pif::PifItem &db_item,
                          std::size_t q_index);

    /** @name Observability for structural tests. */
    /// @{
    const TueWord &dbCell(std::uint32_t slot) const;
    const TueWord &queryCell(std::uint32_t slot) const;
    const pif::PifItem &queryItem(std::size_t index) const;
    /// @}

  private:
    int level_;
    std::vector<TueWord> dbMemory_;      ///< clause-variable cells
    std::vector<TueWord> queryCells_;    ///< query-variable cells
    std::vector<pif::PifItem> queryItems_;

    TueWord readCell(const pif::PifItem &var_item) const;
    void writeCell(const pif::PifItem &var_item, const pif::PifItem &v);

    /** Walk reference chains to the ultimate association. */
    bool ultimate(pif::PifItem item, pif::PifItem &out) const;

    TueExecResult dbVarOp(const pif::PifItem &db_item,
                          const pif::PifItem &q_item);
    TueExecResult queryVarOp(const pif::PifItem &db_item,
                             const pif::PifItem &q_item);
};

} // namespace clare::fs2

#endif // CLARE_ORACLE_TUE_DATAPATH_HH
