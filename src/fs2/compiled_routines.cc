#include "fs2/compiled_routines.hh"

#include "support/logging.hh"

namespace clare::fs2 {

using pif::PifItem;
using pif::TagClass;

CompiledMatcher::CompiledMatcher(int level, bool cross_binding,
                                 WcsConfig config)
    : config_(config)
{
    for (std::size_t d = 0; d < pif::kTagClassCount; ++d)
        for (std::size_t q = 0; q < pif::kTagClassCount; ++q)
            table_[d * pif::kTagClassCount + q] =
                selectRoutine(static_cast<TagClass>(d),
                              static_cast<TagClass>(q), level,
                              cross_binding);
}

void
CompiledMatcher::micro()
{
    // Same per-instruction order as the interpreter loop: runaway
    // guard first, then the instruction is charged.
    if (clauseSteps_ >= config_.maxStepsPerClause)
        clare_panic("microprogram exceeded %llu steps on one clause",
                    static_cast<unsigned long long>(
                        config_.maxStepsPerClause));
    ++clauseSteps_;
    ++instructions_;
    sequencerTime_ += config_.sequencerOverhead;
}

MatchRoutine
CompiledMatcher::lookup(TagClass db_class, TagClass q_class) const
{
    clare_assert(static_cast<std::size_t>(db_class) <
                         pif::kTagClassCount &&
                     static_cast<std::size_t>(q_class) <
                         pif::kTagClassCount,
                 "tag class pair (%u, %u) outside the %zux%zu map ROM",
                 static_cast<unsigned>(db_class),
                 static_cast<unsigned>(q_class), pif::kTagClassCount,
                 pif::kTagClassCount);
    return table_[static_cast<std::size_t>(db_class) *
                      pif::kTagClassCount +
                  static_cast<std::size_t>(q_class)];
}

const PifItem &
CompiledMatcher::currentDb() const
{
    clare_assert(di_ < dbItems_.size(),
                 "db cursor %zu beyond stream of %zu items", di_,
                 dbItems_.size());
    return dbItems_[di_];
}

const PifItem &
CompiledMatcher::currentQ() const
{
    clare_assert(qi_ < query_->items.size(),
                 "query cursor %zu beyond stream of %zu items", qi_,
                 query_->items.size());
    return query_->items[qi_];
}

void
CompiledMatcher::pushDepth()
{
    // The sequencer checks for stack overflow before pushing the
    // return address.
    clare_assert(depth_ < 16, "microprogram stack overflow");
    ++depth_;
}

void
CompiledMatcher::popDepth()
{
    clare_assert(depth_ > 0, "microprogram stack underflow");
    --depth_;
}

bool
CompiledMatcher::dispatchPair(TestUnificationEngine &tue)
{
    // CallMap: push the return address, then dispatch on the type
    // tags of the current item pair.
    micro();
    pushDepth();
    const TagClass dc = pif::tagClass(currentDb().tag);
    const TagClass qc = pif::tagClass(currentQ().tag);
    const MatchRoutine routine = lookup(dc, qc);
    clare_assert(routine != MatchRoutine::Trap,
                 "map ROM trap on pair (%s, %s)",
                 pif::tagClassName(dc), pif::tagClassName(qc));
    switch (routine) {
      case MatchRoutine::Skip:
        return runLeaf(tue, MicroTueOp::SkipPair, false);
      case MatchRoutine::DbStore:
        return runLeaf(tue, MicroTueOp::DbStore, false);
      case MatchRoutine::DbFetch:
        return runLeaf(tue, MicroTueOp::DbFetchMatch, true);
      case MatchRoutine::QueryStore:
        return runLeaf(tue, MicroTueOp::QueryStore, false);
      case MatchRoutine::QueryFetch:
        return runLeaf(tue, MicroTueOp::QueryFetchMatch, true);
      case MatchRoutine::MatchSimple:
        return runLeaf(tue, MicroTueOp::Match, true);
      case MatchRoutine::MatchComplex:
        return runMatchComplex(tue);
      case MatchRoutine::Trap:
        break;
    }
    clare_panic("unreachable routine dispatch");
}

bool
CompiledMatcher::runLeaf(TestUnificationEngine &tue, MicroTueOp op,
                         bool check_hit)
{
    // [tueOp]
    micro();
    const bool hit = tue.execute(op, currentDb(), currentQ());
    if (check_hit) {
        // [JNCC(HIT) -> reject]
        micro();
        if (!hit) {
            // [REJECT]
            micro();
            return false;
        }
    }
    // [RET adv.db adv.q]
    micro();
    ++di_;
    ++qi_;
    popDepth();
    return true;
}

bool
CompiledMatcher::runMatchComplex(TestUnificationEngine &tue)
{
    // [tue=Match]  header comparison
    micro();
    const bool hit =
        tue.execute(MicroTueOp::Match, currentDb(), currentQ());
    // [JNCC(HIT) -> reject]
    micro();
    if (!hit) {
        // [REJECT]
        micro();
        return false;
    }
    // [CONT adv.db adv.q]  step past the headers
    micro();
    ++di_;
    ++qi_;

    // elemloop: walk first-level element pairs on the shared counters.
    for (;;) {
        // [JCC(DBCTR=0) -> rtc_done]
        micro();
        if (dbCtr_ == 0)
            break;
        // [JCC(QCTR=0) -> rtc_done]
        micro();
        if (qCtr_ == 0)
            break;
        // [CALLMAP]  element pair dispatch (may nest; the nested walk
        // runs on these same counters — see the file header).
        if (!dispatchPair(tue))
            return false;
        // [JMP elemloop dec.db dec.q]
        micro();
        clare_assert(dbCtr_ > 0, "db element counter underflow");
        --dbCtr_;
        clare_assert(qCtr_ > 0, "query element counter underflow");
        --qCtr_;
    }
    // [rtc_done: RET]  leftovers drained by 'flush'
    micro();
    popDepth();
    return true;
}

void
CompiledMatcher::runFlush()
{
    pushDepth();
    for (;;) {
        // [JCC(DBCTR=0) -> flush_q]
        micro();
        if (dbCtr_ == 0)
            break;
        // [JMP flush adv.db dec.db]
        micro();
        ++di_;
        clare_assert(dbCtr_ > 0, "db element counter underflow");
        --dbCtr_;
    }
    for (;;) {
        // [flush_q: JCC(QCTR=0) -> flush_done]
        micro();
        if (qCtr_ == 0)
            break;
        // [JMP flush_q adv.q dec.q]
        micro();
        ++qi_;
        clare_assert(qCtr_ > 0, "query element counter underflow");
        --qCtr_;
    }
    // [flush_done: RET]
    micro();
    popDepth();
}

ClauseVerdict
CompiledMatcher::runClause(TestUnificationEngine &tue,
                           std::span<const PifItem> db_items,
                           std::uint32_t arity,
                           const pif::EncodedArgs &query)
{
    dbItems_ = db_items;
    query_ = &query;
    di_ = 0;
    qi_ = 0;
    dbCtr_ = 0;
    qCtr_ = 0;
    depth_ = 0;
    clauseSteps_ = 0;

    // [entry: ld.arg]
    micro();
    std::uint32_t arg_ctr = arity;

    for (;;) {
        // [argloop: JCC(ARGCTR=0) -> accept]
        micro();
        if (arg_ctr == 0) {
            // [accept: ACCEPT]
            micro();
            return ClauseVerdict::Accepted;
        }
        // [ldctr]  element counters from the argument headers
        micro();
        {
            const PifItem &d = currentDb();
            const PifItem &q = currentQ();
            dbCtr_ = pif::isInlineComplexTag(d.tag)
                ? pif::tagArity(d.tag) : 0;
            qCtr_ = pif::isInlineComplexTag(q.tag)
                ? pif::tagArity(q.tag) : 0;
        }
        // [CALLMAP]  argument pair dispatch
        if (!dispatchPair(tue))
            return ClauseVerdict::Rejected;
        // [CALL flush]  drain any unconsumed elements
        micro();
        runFlush();
        // [JMP argloop dec.arg]
        micro();
        clare_assert(arg_ctr > 0, "argument counter underflow");
        --arg_ctr;
    }
}

} // namespace clare::fs2
