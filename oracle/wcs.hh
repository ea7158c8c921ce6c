/**
 * @file
 * The Writable Control Store and Micro Program Controller (figure 3).
 *
 * The WCS holds the microprogram in its fast RAM (2048 x 64 bits,
 * loaded in Microprogramming mode), sequences it with an AMD-2910A
 * style controller (internal counter, branch addresses, a subroutine
 * stack, and map-ROM dispatch), keeps the two element counters used
 * for list/structure matching plus the argument counter, and monitors
 * the condition code register fed by the TUE comparator.
 *
 * This interpreter is the reference for the compiled match routines
 * (fs2/compiled_routines.hh) the FS2 engine runs: clause by clause,
 * the two must agree in verdict, TUE operations and ticks,
 * instruction count and sequencer time.
 */

#ifndef CLARE_ORACLE_WCS_HH
#define CLARE_ORACLE_WCS_HH

#include <cstdint>
#include <vector>

#include "fs2/match_routine.hh"
#include "fs2/tue.hh"
#include "oracle/map_rom.hh"
#include "oracle/microcode.hh"
#include "pif/encoder.hh"
#include "support/sim_time.hh"

namespace clare::fs2 {

/** The control store plus sequencer. */
class Wcs
{
  public:
    explicit Wcs(WcsConfig config = {});

    /**
     * A WCS in Search mode for a matching configuration: the standard
     * match program assembled (assembleMatchProgram) and loaded, and
     * the map ROM programmed for (level, cross_binding).
     */
    static Wcs programmed(int level, bool cross_binding,
                          WcsConfig config = {});

    /** Load a microprogram (Microprogramming mode). */
    void loadProgram(const Microprogram &program);

    /** Install the map ROM contents. */
    void loadMapRom(const MapRom &rom);

    /**
     * Run the microprogram over one clause.
     *
     * @param tue the Test Unification Engine (already reset for the
     *        clause)
     * @param db_items the clause head's decoded item stream
     * @param arity the argument count (loaded into the arg counter)
     * @param query the pre-loaded query argument stream
     */
    ClauseVerdict runClause(TestUnificationEngine &tue,
                            const std::vector<pif::PifItem> &db_items,
                            std::uint32_t arity,
                            const pif::EncodedArgs &query);

    std::uint64_t instructionsExecuted() const { return instructions_; }
    Tick sequencerTime() const { return sequencerTime_; }

    void
    resetStats()
    {
        instructions_ = 0;
        sequencerTime_ = 0;
    }

  private:
    /** Assert sequencerTime == instructions * sequencerOverhead. */
    void checkAccounting() const;

    WcsConfig config_;
    std::vector<std::uint64_t> ram_;
    std::uint16_t entry_ = 0;
    MapRom mapRom_;
    bool programmed_ = false;

    std::uint64_t instructions_ = 0;
    Tick sequencerTime_ = 0;
};

} // namespace clare::fs2

#endif // CLARE_ORACLE_WCS_HH
