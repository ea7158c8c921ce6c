/**
 * @file
 * Microinstruction format and micro-assembler for the FS2 Writable
 * Control Store.
 *
 * The WCS holds up to 2048 microinstructions of 64 bits (section 3.1).
 * Each instruction carries a sequencer operation (AMD 2910A style:
 * continue, jump, conditional jump, map-ROM dispatch, subroutine call
 * and return), a condition select, an 11-bit branch address, a TUE
 * operation, and datapath control flags (stream advances, the two
 * element counters the WCS keeps for list/structure matching, and the
 * argument counter).
 *
 * Bit layout of a microword:
 *
 *   bits  0-3   sequencer op
 *   bits  4-5   condition select
 *   bits  8-18  branch address (11 bits)
 *   bits 19-21  TUE operation
 *   bit  24     advance database stream one item
 *   bit  25     advance query stream one item
 *   bit  26     load element counters from the current headers
 *   bit  27     decrement database element counter
 *   bit  28     decrement query element counter
 *   bit  29     decrement argument counter
 *   bit  30     load argument counter from the clause record arity
 */

#ifndef CLARE_ORACLE_MICROCODE_HH
#define CLARE_ORACLE_MICROCODE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fs2/tue.hh"

namespace clare::fs2 {

/** Capacity of the WCS fast RAM in microwords. */
constexpr std::size_t kControlStoreWords = 2048;

/** Sequencer operations. */
enum class SeqOp : std::uint8_t
{
    Cont = 0,       ///< fall through to the next instruction
    Jump,           ///< unconditional jump to addr
    JumpIfCond,     ///< jump when the selected condition is true
    JumpIfNotCond,  ///< jump when the selected condition is false
    CallMap,        ///< push return, jump via the map ROM
    Call,           ///< push return, jump to addr
    Ret,            ///< pop return address
    Accept,         ///< clause is a satisfier; stop
    Reject,         ///< clause fails; stop
};

/** Conditions testable by the sequencer. */
enum class Cond : std::uint8_t
{
    Hit = 0,        ///< comparator HIT from the last TUE operation
    DbCtrZero,      ///< database element counter is zero
    QCtrZero,       ///< query element counter is zero
    ArgCtrZero,     ///< argument counter is zero
};

/** A decoded microinstruction. */
struct MicroInstruction
{
    SeqOp seqOp = SeqOp::Cont;
    Cond cond = Cond::Hit;
    std::uint16_t addr = 0;
    MicroTueOp tueOp = MicroTueOp::None;
    bool advanceDb = false;
    bool advanceQuery = false;
    bool loadCounters = false;
    bool decDbCtr = false;
    bool decQCtr = false;
    bool decArgCtr = false;
    bool loadArgCtr = false;

    /** Pack into the 64-bit microword wire format. */
    std::uint64_t encode() const;

    /** Unpack from a 64-bit microword. */
    static MicroInstruction decode(std::uint64_t word);

    /** One-line disassembly. */
    std::string disassemble() const;
};

/** An assembled microprogram. */
struct Microprogram
{
    std::vector<std::uint64_t> words;
    std::uint16_t entry = 0;

    std::size_t size() const { return words.size(); }
};

/**
 * Assembles microprograms with symbolic labels.  Forward references
 * are resolved at finish().
 */
class MicroAssembler
{
  public:
    /** Current emission address. */
    std::uint16_t here() const;

    /** Define a label at the current address. */
    void label(const std::string &name);

    /** Emit an instruction; addr fields may reference labels. */
    void emit(MicroInstruction insn, const std::string &target = "");

    /** Resolve labels and return the program. */
    Microprogram finish(const std::string &entry_label);

    /** Address of a defined label (post-finish use). */
    std::uint16_t address(const std::string &name) const;

  private:
    struct Fixup
    {
        std::size_t index;
        std::string target;
    };

    std::vector<MicroInstruction> insns_;
    std::vector<Fixup> fixups_;
    std::vector<std::pair<std::string, std::uint16_t>> labels_;

    std::uint16_t lookup(const std::string &name) const;
};

/** Routine entry points the map ROM can dispatch to. */
struct RoutineAddresses
{
    std::uint16_t skip = 0;
    std::uint16_t dbStore = 0;
    std::uint16_t dbFetch = 0;
    std::uint16_t queryStore = 0;
    std::uint16_t queryFetch = 0;
    std::uint16_t matchSimple = 0;
    std::uint16_t matchComplex = 0;
};

/**
 * Assemble the standard partial-test-unification microprogram for a
 * query (section 3: "When a query is posed, it is translated into
 * microprogram instructions").  The program polls for a clause, walks
 * the argument pairs dispatching through the map ROM, walks
 * first-level elements of in-line complex pairs with the two element
 * counters, and accepts or rejects the clause.
 *
 * @param level matching level (1-3); below 3 the complex-element walk
 *        is omitted
 * @param out_routines receives the routine entry addresses for the
 *        map ROM
 */
Microprogram assembleMatchProgram(int level,
                                  RoutineAddresses &out_routines);

} // namespace clare::fs2

#endif // CLARE_ORACLE_MICROCODE_HH
