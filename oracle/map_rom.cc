#include "oracle/map_rom.hh"

namespace clare::fs2 {

using pif::TagClass;

MapRom
MapRom::program(int level, bool cross_binding,
                const RoutineAddresses &routines)
{
    MapRom rom;
    for (std::size_t d = 0; d < pif::kTagClassCount; ++d) {
        for (std::size_t q = 0; q < pif::kTagClassCount; ++q) {
            TagClass dc = static_cast<TagClass>(d);
            TagClass qc = static_cast<TagClass>(q);

            std::uint16_t target = kMapTrap;
            switch (selectRoutine(dc, qc, level, cross_binding)) {
              case MatchRoutine::Trap:
                continue;
              case MatchRoutine::Skip:
                target = routines.skip;
                break;
              case MatchRoutine::DbStore:
                target = routines.dbStore;
                break;
              case MatchRoutine::DbFetch:
                target = routines.dbFetch;
                break;
              case MatchRoutine::QueryStore:
                target = routines.queryStore;
                break;
              case MatchRoutine::QueryFetch:
                target = routines.queryFetch;
                break;
              case MatchRoutine::MatchSimple:
                target = routines.matchSimple;
                break;
              case MatchRoutine::MatchComplex:
                target = routines.matchComplex;
                break;
            }
            rom.entries_[index(dc, qc)] = target;
        }
    }
    return rom;
}

} // namespace clare::fs2
