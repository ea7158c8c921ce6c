#include "oracle/microcode.hh"

#include <cstdio>

#include "support/logging.hh"

namespace clare::fs2 {

namespace {

constexpr std::uint64_t kSeqShift = 0;
constexpr std::uint64_t kCondShift = 4;
constexpr std::uint64_t kAddrShift = 8;
constexpr std::uint64_t kTueShift = 19;
constexpr std::uint64_t kAdvDbBit = 24;
constexpr std::uint64_t kAdvQBit = 25;
constexpr std::uint64_t kLoadCtrBit = 26;
constexpr std::uint64_t kDecDbBit = 27;
constexpr std::uint64_t kDecQBit = 28;
constexpr std::uint64_t kDecArgBit = 29;
constexpr std::uint64_t kLoadArgBit = 30;

constexpr std::uint64_t
bit(std::uint64_t n)
{
    return std::uint64_t{1} << n;
}

const char *
seqOpName(SeqOp op)
{
    switch (op) {
      case SeqOp::Cont: return "CONT";
      case SeqOp::Jump: return "JMP";
      case SeqOp::JumpIfCond: return "JCC";
      case SeqOp::JumpIfNotCond: return "JNCC";
      case SeqOp::CallMap: return "CALLMAP";
      case SeqOp::Call: return "CALL";
      case SeqOp::Ret: return "RET";
      case SeqOp::Accept: return "ACCEPT";
      case SeqOp::Reject: return "REJECT";
    }
    return "?";
}

const char *
condName(Cond c)
{
    switch (c) {
      case Cond::Hit: return "HIT";
      case Cond::DbCtrZero: return "DBCTR=0";
      case Cond::QCtrZero: return "QCTR=0";
      case Cond::ArgCtrZero: return "ARGCTR=0";
    }
    return "?";
}

} // namespace

std::uint64_t
MicroInstruction::encode() const
{
    std::uint64_t w = 0;
    w |= static_cast<std::uint64_t>(seqOp) << kSeqShift;
    w |= static_cast<std::uint64_t>(cond) << kCondShift;
    w |= static_cast<std::uint64_t>(addr & 0x7ff) << kAddrShift;
    w |= static_cast<std::uint64_t>(tueOp) << kTueShift;
    if (advanceDb)
        w |= bit(kAdvDbBit);
    if (advanceQuery)
        w |= bit(kAdvQBit);
    if (loadCounters)
        w |= bit(kLoadCtrBit);
    if (decDbCtr)
        w |= bit(kDecDbBit);
    if (decQCtr)
        w |= bit(kDecQBit);
    if (decArgCtr)
        w |= bit(kDecArgBit);
    if (loadArgCtr)
        w |= bit(kLoadArgBit);
    return w;
}

MicroInstruction
MicroInstruction::decode(std::uint64_t w)
{
    MicroInstruction insn;
    insn.seqOp = static_cast<SeqOp>((w >> kSeqShift) & 0xf);
    insn.cond = static_cast<Cond>((w >> kCondShift) & 0x3);
    insn.addr = static_cast<std::uint16_t>((w >> kAddrShift) & 0x7ff);
    insn.tueOp = static_cast<MicroTueOp>((w >> kTueShift) & 0x7);
    insn.advanceDb = w & bit(kAdvDbBit);
    insn.advanceQuery = w & bit(kAdvQBit);
    insn.loadCounters = w & bit(kLoadCtrBit);
    insn.decDbCtr = w & bit(kDecDbBit);
    insn.decQCtr = w & bit(kDecQBit);
    insn.decArgCtr = w & bit(kDecArgBit);
    insn.loadArgCtr = w & bit(kLoadArgBit);
    return insn;
}

std::string
MicroInstruction::disassemble() const
{
    std::string s = seqOpName(seqOp);
    if (seqOp == SeqOp::JumpIfCond || seqOp == SeqOp::JumpIfNotCond) {
        s += "(";
        s += condName(cond);
        s += ")";
    }
    if (seqOp == SeqOp::Jump || seqOp == SeqOp::JumpIfCond ||
        seqOp == SeqOp::JumpIfNotCond || seqOp == SeqOp::Call) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), " @%03x", addr);
        s += buf;
    }
    if (tueOp != MicroTueOp::None) {
        s += " tue=";
        s += microTueOpName(tueOp);
    }
    if (loadCounters)
        s += " ldctr";
    if (advanceDb)
        s += " adv.db";
    if (advanceQuery)
        s += " adv.q";
    if (decDbCtr)
        s += " dec.db";
    if (decQCtr)
        s += " dec.q";
    if (decArgCtr)
        s += " dec.arg";
    if (loadArgCtr)
        s += " ld.arg";
    return s;
}

std::uint16_t
MicroAssembler::here() const
{
    return static_cast<std::uint16_t>(insns_.size());
}

void
MicroAssembler::label(const std::string &name)
{
    for (const auto &kv : labels_)
        clare_assert(kv.first != name, "duplicate label '%s'",
                     name.c_str());
    labels_.emplace_back(name, here());
}

void
MicroAssembler::emit(MicroInstruction insn, const std::string &target)
{
    if (!target.empty())
        fixups_.push_back(Fixup{insns_.size(), target});
    insns_.push_back(insn);
    clare_assert(insns_.size() <= kControlStoreWords,
                 "microprogram exceeds the %zu-word control store",
                 kControlStoreWords);
}

std::uint16_t
MicroAssembler::lookup(const std::string &name) const
{
    for (const auto &kv : labels_)
        if (kv.first == name)
            return kv.second;
    clare_panic("undefined microprogram label '%s'", name.c_str());
}

std::uint16_t
MicroAssembler::address(const std::string &name) const
{
    return lookup(name);
}

Microprogram
MicroAssembler::finish(const std::string &entry_label)
{
    for (const Fixup &f : fixups_)
        insns_[f.index].addr = lookup(f.target);
    Microprogram prog;
    prog.entry = lookup(entry_label);
    prog.words.reserve(insns_.size());
    for (const auto &insn : insns_)
        prog.words.push_back(insn.encode());
    return prog;
}

Microprogram
assembleMatchProgram(int level, RoutineAddresses &out_routines)
{
    MicroAssembler as;
    MicroInstruction i;

    // --- main argument loop ---------------------------------------
    as.label("entry");
    i = {};
    i.loadArgCtr = true;
    as.emit(i);

    as.label("argloop");
    i = {};
    i.seqOp = SeqOp::JumpIfCond;
    i.cond = Cond::ArgCtrZero;
    as.emit(i, "accept");

    i = {};
    i.loadCounters = true;          // element counters from arg headers
    as.emit(i);

    i = {};
    i.seqOp = SeqOp::CallMap;       // dispatch on the type-tag pair
    as.emit(i);

    i = {};
    i.seqOp = SeqOp::Call;          // drain any unconsumed elements
    as.emit(i, "flush");

    i = {};
    i.seqOp = SeqOp::Jump;
    i.decArgCtr = true;
    as.emit(i, "argloop");

    as.label("accept");
    i = {};
    i.seqOp = SeqOp::Accept;
    as.emit(i);

    as.label("reject");
    i = {};
    i.seqOp = SeqOp::Reject;
    as.emit(i);

    // --- leaf routines ---------------------------------------------
    auto leaf = [&](const std::string &name, MicroTueOp op,
                    bool check_hit) {
        as.label(name);
        MicroInstruction w{};
        w.tueOp = op;
        as.emit(w);
        if (check_hit) {
            w = {};
            w.seqOp = SeqOp::JumpIfNotCond;
            w.cond = Cond::Hit;
            as.emit(w, "reject");
        }
        w = {};
        w.seqOp = SeqOp::Ret;
        w.advanceDb = true;
        w.advanceQuery = true;
        as.emit(w);
    };

    leaf("rt_skip", MicroTueOp::SkipPair, false);
    leaf("rt_db_store", MicroTueOp::DbStore, false);
    leaf("rt_db_fetch", MicroTueOp::DbFetchMatch, true);
    leaf("rt_query_store", MicroTueOp::QueryStore, false);
    leaf("rt_query_fetch", MicroTueOp::QueryFetchMatch, true);
    leaf("rt_match_simple", MicroTueOp::Match, true);

    // --- in-line complex matching (level 3) -------------------------
    as.label("rt_match_complex");
    i = {};
    i.tueOp = MicroTueOp::Match;    // header comparison
    as.emit(i);
    i = {};
    i.seqOp = SeqOp::JumpIfNotCond;
    i.cond = Cond::Hit;
    as.emit(i, "reject");
    i = {};
    i.advanceDb = true;             // step past the headers
    i.advanceQuery = true;
    as.emit(i);

    as.label("elemloop");
    i = {};
    i.seqOp = SeqOp::JumpIfCond;
    i.cond = Cond::DbCtrZero;
    as.emit(i, "rtc_done");
    i = {};
    i.seqOp = SeqOp::JumpIfCond;
    i.cond = Cond::QCtrZero;
    as.emit(i, "rtc_done");
    i = {};
    i.seqOp = SeqOp::CallMap;       // element pair dispatch
    as.emit(i);
    i = {};
    i.seqOp = SeqOp::Jump;
    i.decDbCtr = true;
    i.decQCtr = true;
    as.emit(i, "elemloop");

    as.label("rtc_done");
    i = {};
    i.seqOp = SeqOp::Ret;           // leftovers drained by 'flush'
    as.emit(i);

    // --- element flush ----------------------------------------------
    as.label("flush");
    i = {};
    i.seqOp = SeqOp::JumpIfCond;
    i.cond = Cond::DbCtrZero;
    as.emit(i, "flush_q");
    i = {};
    i.seqOp = SeqOp::Jump;
    i.advanceDb = true;
    i.decDbCtr = true;
    as.emit(i, "flush");

    as.label("flush_q");
    i = {};
    i.seqOp = SeqOp::JumpIfCond;
    i.cond = Cond::QCtrZero;
    as.emit(i, "flush_done");
    i = {};
    i.seqOp = SeqOp::Jump;
    i.advanceQuery = true;
    i.decQCtr = true;
    as.emit(i, "flush_q");

    as.label("flush_done");
    i = {};
    i.seqOp = SeqOp::Ret;
    as.emit(i);

    Microprogram prog = as.finish("entry");
    out_routines.skip = as.address("rt_skip");
    out_routines.dbStore = as.address("rt_db_store");
    out_routines.dbFetch = as.address("rt_db_fetch");
    out_routines.queryStore = as.address("rt_query_store");
    out_routines.queryFetch = as.address("rt_query_fetch");
    out_routines.matchSimple = as.address("rt_match_simple");
    out_routines.matchComplex = level >= 3
        ? as.address("rt_match_complex")
        : as.address("rt_match_simple");
    return prog;
}

} // namespace clare::fs2
