#include "fs2/match_routine.hh"

namespace clare::fs2 {

using pif::TagClass;

namespace {

bool
isDbVarClass(TagClass cls)
{
    return cls == TagClass::FirstDbVar || cls == TagClass::SubDbVar;
}

bool
isQueryVarClass(TagClass cls)
{
    return cls == TagClass::FirstQueryVar || cls == TagClass::SubQueryVar;
}

} // namespace

MatchRoutine
selectRoutine(TagClass dc, TagClass qc, int level, bool cross_binding)
{
    // Query-variable classes never appear in a database stream, and
    // vice versa: trap those addresses.
    if (isQueryVarClass(dc) || isDbVarClass(qc))
        return MatchRoutine::Trap;
    if (dc == TagClass::AnonymousVar || qc == TagClass::AnonymousVar)
        return MatchRoutine::Skip;
    if (dc == TagClass::FirstDbVar)
        return cross_binding ? MatchRoutine::DbStore
                             : MatchRoutine::Skip;
    if (dc == TagClass::SubDbVar)
        return cross_binding ? MatchRoutine::DbFetch
                             : MatchRoutine::Skip;
    if (qc == TagClass::FirstQueryVar)
        return cross_binding ? MatchRoutine::QueryStore
                             : MatchRoutine::Skip;
    if (qc == TagClass::SubQueryVar)
        return cross_binding ? MatchRoutine::QueryFetch
                             : MatchRoutine::Skip;
    if (level >= 3 && pif::isInlineComplexClass(dc) &&
        pif::isInlineComplexClass(qc))
        return MatchRoutine::MatchComplex;
    return MatchRoutine::MatchSimple;
}

} // namespace clare::fs2
