/**
 * @file
 * AOT-compiled FS2 match routines: the partial-test-unification
 * microprogram lowered to straight-line host code.
 *
 * The reference Wcs interpreter (clare_oracle) fetches and decodes
 * one 64-bit microword per step; this matcher executes the same
 * control flow as compiled C++ (the map ROM becomes a 14x14 routine
 * table built from the shared selectRoutine() rule, routines become
 * member functions), while
 * accumulating the identical accounting stream: every microword the
 * interpreter would have executed is charged to the instruction
 * counter and sequencer clock at the same point, every TUE operation
 * fires on the same item pair in the same order, and every guard the
 * sequencer enforces (stream bounds, counter underflow, 16-deep
 * subroutine stack, the map-ROM trap, the runaway-step budget) aborts
 * identically.  The interpreter therefore remains the oracle: the
 * clause-level equivalence test compares verdicts, Table-1 op counts,
 * TUE busy time, instruction counts and sequencer time across both.
 *
 * Hardware quirk preserved deliberately: the WCS has ONE pair of
 * element counters with no save/restore across map-ROM dispatches, so
 * a nested in-line complex element walks the same counters its parent
 * was using.  The counters here are member state, not locals, for
 * exactly that reason.
 */

#ifndef CLARE_FS2_COMPILED_ROUTINES_HH
#define CLARE_FS2_COMPILED_ROUTINES_HH

#include <array>
#include <cstdint>
#include <span>

#include "fs2/match_routine.hh"
#include "fs2/tue.hh"
#include "pif/encoder.hh"
#include "support/sim_time.hh"

namespace clare::fs2 {

/** The compiled match routines the FS2 engine runs. */
class CompiledMatcher
{
  public:
    /**
     * Build the routine dispatch table for a matching configuration.
     * The (level, cross_binding) pair must match the TUE the routines
     * will drive, exactly as the assembled microprogram must.
     */
    CompiledMatcher(int level, bool cross_binding,
                    WcsConfig config = {});

    /** Mirror of Wcs::runClause (same contract, same accounting). */
    ClauseVerdict runClause(TestUnificationEngine &tue,
                            std::span<const pif::PifItem> db_items,
                            std::uint32_t arity,
                            const pif::EncodedArgs &query);

    /** Microinstructions the interpreter would have executed. */
    std::uint64_t instructionsExecuted() const { return instructions_; }
    Tick sequencerTime() const { return sequencerTime_; }

    void
    resetStats()
    {
        instructions_ = 0;
        sequencerTime_ = 0;
    }

  private:
    /** Charge one microinstruction's worth of accounting. */
    void micro();

    /** Table lookup with the same backstop as MapRom::lookup. */
    MatchRoutine lookup(pif::TagClass db_class,
                        pif::TagClass q_class) const;

    const pif::PifItem &currentDb() const;
    const pif::PifItem &currentQ() const;

    /**
     * Dispatch the current item pair through the routine table (one
     * CallMap).  Returns false when the routine rejected the clause
     * (the Reject microword is already charged).
     */
    bool dispatchPair(TestUnificationEngine &tue);

    bool runLeaf(TestUnificationEngine &tue, MicroTueOp op,
                 bool check_hit);
    bool runMatchComplex(TestUnificationEngine &tue);
    void runFlush();

    void pushDepth();
    void popDepth();

    WcsConfig config_;
    /** 14x14 MatchRoutine table (the compiled map ROM). */
    std::array<MatchRoutine,
               pif::kTagClassCount * pif::kTagClassCount> table_;

    std::uint64_t instructions_ = 0;
    Tick sequencerTime_ = 0;

    // Per-clause machine state (members, not locals: nested in-line
    // complex dispatches share the element counters, see file header).
    std::span<const pif::PifItem> dbItems_;
    const pif::EncodedArgs *query_ = nullptr;
    std::size_t di_ = 0;
    std::size_t qi_ = 0;
    std::uint32_t dbCtr_ = 0;
    std::uint32_t qCtr_ = 0;
    std::size_t depth_ = 0;
    std::uint64_t clauseSteps_ = 0;
};

} // namespace clare::fs2

#endif // CLARE_FS2_COMPILED_ROUTINES_HH
