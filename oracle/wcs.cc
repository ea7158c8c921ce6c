#include "oracle/wcs.hh"

#include "support/logging.hh"

namespace clare::fs2 {

using pif::PifItem;

Wcs::Wcs(WcsConfig config)
    : config_(config)
{
}

Wcs
Wcs::programmed(int level, bool cross_binding, WcsConfig config)
{
    Wcs wcs(config);
    RoutineAddresses routines;
    wcs.loadProgram(assembleMatchProgram(level, routines));
    wcs.loadMapRom(MapRom::program(level, cross_binding, routines));
    return wcs;
}

void
Wcs::loadProgram(const Microprogram &program)
{
    clare_assert(program.size() <= kControlStoreWords,
                 "microprogram of %zu words exceeds the control store",
                 program.size());
    ram_ = program.words;
    entry_ = program.entry;
    programmed_ = true;
}

void
Wcs::loadMapRom(const MapRom &rom)
{
    mapRom_ = rom;
}

ClauseVerdict
Wcs::runClause(TestUnificationEngine &tue,
               const std::vector<PifItem> &db_items, std::uint32_t arity,
               const pif::EncodedArgs &query)
{
    clare_assert(programmed_, "search started before microprogramming");

    std::uint16_t upc = entry_;
    std::uint16_t stack[16];
    std::size_t sp = 0;
    std::uint32_t db_ctr = 0;
    std::uint32_t q_ctr = 0;
    std::uint32_t arg_ctr = 0;
    std::size_t di = 0;
    std::size_t qi = 0;
    bool cc_hit = false;

    auto current_db = [&]() -> const PifItem & {
        clare_assert(di < db_items.size(),
                     "db cursor %zu beyond stream of %zu items",
                     di, db_items.size());
        return db_items[di];
    };
    auto current_q = [&]() -> const PifItem & {
        clare_assert(qi < query.items.size(),
                     "query cursor %zu beyond stream of %zu items",
                     qi, query.items.size());
        return query.items[qi];
    };

    for (std::uint64_t step = 0;; ++step) {
        if (step >= config_.maxStepsPerClause)
            clare_panic("microprogram exceeded %llu steps on one clause",
                        static_cast<unsigned long long>(
                            config_.maxStepsPerClause));
        clare_assert(upc < ram_.size(),
                     "microprogram counter 0x%03x out of range", upc);
        MicroInstruction insn = MicroInstruction::decode(ram_[upc]);
        ++instructions_;
        sequencerTime_ += config_.sequencerOverhead;

        // 1. TUE operation on the current item pair.
        if (insn.tueOp != MicroTueOp::None)
            cc_hit = tue.execute(insn.tueOp, current_db(), current_q());

        // 2. Counter loads (from the current headers, pre-advance).
        if (insn.loadCounters) {
            const PifItem &d = current_db();
            const PifItem &q = current_q();
            db_ctr = pif::isInlineComplexTag(d.tag)
                ? pif::tagArity(d.tag) : 0;
            q_ctr = pif::isInlineComplexTag(q.tag)
                ? pif::tagArity(q.tag) : 0;
        }
        if (insn.loadArgCtr)
            arg_ctr = arity;

        // 3. Stream advances.
        if (insn.advanceDb)
            ++di;
        if (insn.advanceQuery)
            ++qi;

        // 4. Counter decrements.
        if (insn.decDbCtr) {
            clare_assert(db_ctr > 0, "db element counter underflow");
            --db_ctr;
        }
        if (insn.decQCtr) {
            clare_assert(q_ctr > 0, "query element counter underflow");
            --q_ctr;
        }
        if (insn.decArgCtr) {
            clare_assert(arg_ctr > 0, "argument counter underflow");
            --arg_ctr;
        }

        // 5. Sequencing.
        auto cond_value = [&](Cond c) {
            switch (c) {
              case Cond::Hit: return cc_hit;
              case Cond::DbCtrZero: return db_ctr == 0;
              case Cond::QCtrZero: return q_ctr == 0;
              case Cond::ArgCtrZero: return arg_ctr == 0;
            }
            clare_panic("unknown condition");
        };

        switch (insn.seqOp) {
          case SeqOp::Cont:
            ++upc;
            break;
          case SeqOp::Jump:
            upc = insn.addr;
            break;
          case SeqOp::JumpIfCond:
            upc = cond_value(insn.cond)
                ? insn.addr : static_cast<std::uint16_t>(upc + 1);
            break;
          case SeqOp::JumpIfNotCond:
            upc = !cond_value(insn.cond)
                ? insn.addr : static_cast<std::uint16_t>(upc + 1);
            break;
          case SeqOp::CallMap: {
            clare_assert(sp < 16, "microprogram stack overflow");
            stack[sp++] = static_cast<std::uint16_t>(upc + 1);
            std::uint16_t target = mapRom_.lookup(
                pif::tagClass(current_db().tag),
                pif::tagClass(current_q().tag));
            clare_assert(target != kMapTrap,
                         "map ROM trap on pair (%s, %s)",
                         pif::tagClassName(
                             pif::tagClass(current_db().tag)),
                         pif::tagClassName(
                             pif::tagClass(current_q().tag)));
            upc = target;
            break;
          }
          case SeqOp::Call:
            clare_assert(sp < 16, "microprogram stack overflow");
            stack[sp++] = static_cast<std::uint16_t>(upc + 1);
            upc = insn.addr;
            break;
          case SeqOp::Ret:
            clare_assert(sp > 0, "microprogram stack underflow");
            upc = stack[--sp];
            break;
          case SeqOp::Accept:
            checkAccounting();
            return ClauseVerdict::Accepted;
          case SeqOp::Reject:
            checkAccounting();
            return ClauseVerdict::Rejected;
        }
    }
}

void
Wcs::checkAccounting() const
{
    // Every executed microword charges the sequencer clock exactly
    // once, so the accumulated time is always the instruction count
    // times the per-instruction overhead.  A drift here means an
    // accounting path double-charged or skipped an instruction.
    clare_assert(sequencerTime_ ==
                     static_cast<Tick>(instructions_) *
                         config_.sequencerOverhead,
                 "sequencer clock %llu ticks out of step with %llu "
                 "instructions at %llu ticks each",
                 static_cast<unsigned long long>(sequencerTime_),
                 static_cast<unsigned long long>(instructions_),
                 static_cast<unsigned long long>(
                     config_.sequencerOverhead));
}

} // namespace clare::fs2
