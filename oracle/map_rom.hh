/**
 * @file
 * The Map ROM: jump vectors dispatching the microprogram on the type
 * fields of the current database and query items (section 3.1).
 *
 * Only the type tags of db-data and Q-data reach the ROM's address
 * port; the 14 tag classes on each side index a 14x14 vector table
 * whose entries are microprogram routine addresses.
 */

#ifndef CLARE_ORACLE_MAP_ROM_HH
#define CLARE_ORACLE_MAP_ROM_HH

#include <array>
#include <cstdint>

#include "fs2/match_routine.hh"
#include "oracle/microcode.hh"
#include "pif/type_tags.hh"
#include "support/logging.hh"

namespace clare::fs2 {

/** Entry value marking an impossible type pair. */
constexpr std::uint16_t kMapTrap = 0xffff;

/** The programmable jump-vector ROM. */
class MapRom
{
  public:
    MapRom() { entries_.fill(kMapTrap); }

    /**
     * Program the ROM for a matching configuration: dispatch anonymous
     * variables to skip, database variables to store/fetch, query
     * variables to store/fetch (or all variables to skip when
     * cross-binding checks are off), in-line complex pairs to the
     * element-walking routine (level 3), and everything else to the
     * simple header match.
     */
    static MapRom program(int level, bool cross_binding,
                          const RoutineAddresses &routines);

    /**
     * Look up the routine address for a type-class pair.  The classes
     * must be the decoded enum values: a raw tag byte corrupted after
     * decoding would otherwise index past the 14x14 table, so the
     * bound is checked here (the load path rejects corrupt tags with
     * a typed CorruptionError before they ever reach the engine; this
     * assert is the engine-side backstop).
     */
    std::uint16_t
    lookup(pif::TagClass db_class, pif::TagClass q_class) const
    {
        clare_assert(static_cast<std::size_t>(db_class) <
                             pif::kTagClassCount &&
                         static_cast<std::size_t>(q_class) <
                             pif::kTagClassCount,
                     "tag class pair (%u, %u) outside the %zux%zu map "
                     "ROM",
                     static_cast<unsigned>(db_class),
                     static_cast<unsigned>(q_class),
                     pif::kTagClassCount, pif::kTagClassCount);
        return entries_[index(db_class, q_class)];
    }

  private:
    std::array<std::uint16_t,
               pif::kTagClassCount * pif::kTagClassCount> entries_;

    static std::size_t
    index(pif::TagClass db_class, pif::TagClass q_class)
    {
        return static_cast<std::size_t>(db_class) * pif::kTagClassCount +
            static_cast<std::size_t>(q_class);
    }
};

} // namespace clare::fs2

#endif // CLARE_ORACLE_MAP_ROM_HH
