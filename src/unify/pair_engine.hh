/**
 * @file
 * The single-item-pair matching core of partial test unification.
 *
 * Both the stream-level functional matcher (PifMatcher) and the FS2
 * Test Unification Engine hardware model execute exactly this state
 * machine for each (database item, query item) pair: variable binding
 * cells, first/subsequent store-and-fetch, cross-binding resolution to
 * the ultimate association, and level-limited header comparison.
 * Sharing the core guarantees the two layers agree item for item.
 *
 * Each call reports the TUE operations it performs through a sink so
 * callers can account time (Table 1) and operation mixes.
 */

#ifndef CLARE_UNIFY_PAIR_ENGINE_HH
#define CLARE_UNIFY_PAIR_ENGINE_HH

#include <memory>
#include <type_traits>
#include <vector>

#include "pif/pif_item.hh"
#include "unify/tue_op.hh"

namespace clare::unify {

/**
 * Callback receiving each hardware operation as it is performed.  It
 * refers to a callable it does not own, so building one never
 * allocates (the TUE builds one per operation); the callable must
 * outlive every use, as a lambda passed straight to matchPair() does.
 */
class OpSink
{
  public:
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, OpSink> &&
                 std::is_invocable_v<F &, TueOp>)
    OpSink(F &&callable) noexcept
        : callable_(const_cast<void *>(
              static_cast<const void *>(std::addressof(callable)))),
          call_([](void *c, TueOp op) {
              (*static_cast<std::remove_reference_t<F> *>(c))(op);
          })
    {}

    void operator()(TueOp op) const { call_(callable_, op); }

  private:
    void *callable_;
    void (*call_)(void *, TueOp);
};

/**
 * Header-level comparison of two non-variable items at a matching
 * level (1-3).  This is all the hardware comparator can decide from
 * single items; element walking is the caller's job.
 */
bool compareItemHeaders(int level, const pif::PifItem &a,
                        const pif::PifItem &b);

/**
 * List/list header compatibility at a matching level: level 3 applies
 * the counter-visible arity rules (terminated lengths equal; an
 * unterminated prefix must fit a terminated partner), levels 1-2
 * accept any list pair.  Saturated pointer arity fields weaken the
 * checks.
 */
bool compareListHeaders(int level, const pif::PifItem &a,
                        const pif::PifItem &b);

/**
 * Variable binding cells and the pair-matching state machine, reset
 * per clause.
 */
class PairEngine
{
  public:
    PairEngine(int level, bool cross_binding);

    /**
     * Reset all cells for a new clause, resizing within the cell
     * vectors' retained capacity (they only allocate to grow).
     */
    void reset(std::uint32_t db_slots, std::uint32_t query_slots);

    /**
     * Match one (db item, query item) pair.  Items must be single
     * items (an in-line complex *header* is fine; its elements are the
     * caller's to walk).  Reports ops via @p sink.
     *
     * @return true if the pair passes (possibly conservatively).
     */
    bool matchPair(const pif::PifItem &db_item,
                   const pif::PifItem &q_item, OpSink sink);

    int level() const { return level_; }
    bool crossBinding() const { return crossBinding_; }

  private:
    struct Cell
    {
        bool bound = false;
        pif::PifItem value{};
    };

    int level_;
    bool crossBinding_;
    std::vector<Cell> dbCells_;
    std::vector<Cell> qCells_;

    Cell &cellFor(const pif::PifItem &item);
    bool ultimate(pif::PifItem item, pif::PifItem &out);
    bool matchDbVar(const pif::PifItem &db_item,
                    const pif::PifItem &q_item, OpSink sink);
    bool matchQueryVar(const pif::PifItem &db_item,
                       const pif::PifItem &q_item, OpSink sink);
};

} // namespace clare::unify

#endif // CLARE_UNIFY_PAIR_ENGINE_HH
