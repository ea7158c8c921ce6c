/**
 * @file
 * The FS2 dispatch vocabulary shared by the compiled match routines
 * and the microcoded reference sequencer: the 14x14 type-pair rule
 * that picks a routine, the per-clause verdict, and the sequencer
 * configuration both account their microinstructions against.
 *
 * Only the type tags of db-data and Q-data reach the map ROM's
 * address port (section 3.1); selectRoutine() is that ROM's contents
 * as a function, so the compiled routines and the reference WCS
 * cannot disagree on dispatch.
 */

#ifndef CLARE_FS2_MATCH_ROUTINE_HH
#define CLARE_FS2_MATCH_ROUTINE_HH

#include <cstdint>

#include "pif/type_tags.hh"
#include "support/sim_time.hh"

namespace clare::fs2 {

/** Sequencer configuration. */
struct WcsConfig
{
    /**
     * Time charged per microinstruction for sequencing itself (the
     * paper's rate arithmetic ignores it, so the default is zero; the
     * overhead ablation sets it to the 125 ns of the 8 MHz clock).
     */
    Tick sequencerOverhead = 0;

    /** Runaway-microprogram guard. */
    std::uint64_t maxStepsPerClause = 1u << 20;
};

/** Verdict for one clause. */
enum class ClauseVerdict : std::uint8_t { Accepted, Rejected };

/**
 * The microroutine a map entry dispatches to.  Trap marks type pairs
 * that cannot occur in a well-formed stream (query-variable classes on
 * the database side and vice versa).
 */
enum class MatchRoutine : std::uint8_t
{
    Trap,
    Skip,
    DbStore,
    DbFetch,
    QueryStore,
    QueryFetch,
    MatchSimple,
    MatchComplex,
};

/**
 * The single source of truth for the 14x14 dispatch rule: anonymous
 * variables skip, database variables store/fetch, query variables
 * store/fetch (or all variables skip when cross-binding checks are
 * off), in-line complex pairs walk their elements (level 3), and
 * everything else takes the simple header match.
 */
MatchRoutine selectRoutine(pif::TagClass db_class, pif::TagClass q_class,
                           int level, bool cross_binding);

} // namespace clare::fs2

#endif // CLARE_FS2_MATCH_ROUTINE_HH
