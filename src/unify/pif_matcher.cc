#include "unify/pif_matcher.hh"

#include <algorithm>

#include "support/logging.hh"

namespace clare::unify {

using pif::EncodedArgs;
using pif::PifItem;

std::uint64_t
PifMatchResult::datapathOps() const
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kTueOpCount; ++i)
        if (static_cast<TueOp>(i) != TueOp::Skip)
            n += opCounts[i];
    return n;
}

PifMatcher::PifMatcher(PifMatchConfig config)
    : config_(config), engine_(config.level, config.crossBinding)
{
}

PifMatchResult
PifMatcher::match(const EncodedArgs &db, const EncodedArgs &query)
{
    clare_assert(db.argCount() == query.argCount(),
                 "argument count mismatch: db %zu vs query %zu",
                 db.argCount(), query.argCount());

    PifMatchResult result;
    auto sink = [&result](TueOp op) {
        ++result.opCounts[static_cast<std::size_t>(op)];
    };

    engine_.reset(db.varSlots, query.varSlots);

    bool hit = true;
    std::size_t di = 0;
    std::size_t qi = 0;
    for (std::size_t a = 0; a < db.argCount() && hit; ++a) {
        clare_assert(di == db.argIndex[a] && qi == query.argIndex[a],
                     "argument index walk out of sync");
        const PifItem &dh = db.items[di];
        const PifItem &qh = query.items[qi];

        if (!engine_.matchPair(dh, qh, sink)) {
            hit = false;    // hardware rejects at first mismatch
            break;
        }

        // Walk first-level elements when both headers are in-line
        // complex terms and the level compares that deep.
        if (config_.level >= 3 &&
            pif::isInlineComplexTag(dh.tag) &&
            pif::isInlineComplexTag(qh.tag) &&
            !pif::isNamedVarItem(dh) && !pif::isNamedVarItem(qh)) {
            std::uint32_t dn = pif::tagArity(dh.tag);
            std::uint32_t qn = pif::tagArity(qh.tag);
            std::uint32_t common = std::min(dn, qn);
            for (std::uint32_t i = 0; i < common && hit; ++i) {
                if (!engine_.matchPair(db.items[di + 1 + i],
                                       query.items[qi + 1 + i], sink)) {
                    hit = false;
                }
            }
            if (!hit)
                break;
        }

        di += pif::itemWidth(db.items, di);
        qi += pif::itemWidth(query.items, qi);
    }

    result.hit = hit;
    return result;
}

} // namespace clare::unify
