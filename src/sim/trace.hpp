/**
 * @file
 * Translated basic-block micro-traces: the functional simulator's
 * fast-path representation of straight-line guest code.
 *
 * A TransBlock pre-resolves one basic block of decoded instructions into
 * 32-byte slots — the decoded instruction, its timing descriptor, a flat
 * dispatch handler and a side-entry index — executed by a
 * direct-threaded interpreter in ExecCore (see core.cpp) that bypasses
 * the per-instruction fetch/decode/DISE-inspection machinery of step().
 * Every slot ends in one computed-goto jump to its handler, and every
 * slot array ends in a sentinel (OpHandler::End, or SeqEnd for a
 * lowered sequence) so the inner loop needs no bounds check. The
 * straight-line handlers are generated from the op tables of
 * src/isa/semantics.hpp, the same rows step()'s execute() expands, so
 * the tiers share one definition of each instruction.
 *
 * Slots hold nothing that changes at run time. The mutable state of the
 * few slots that need it lives out of line, in the block's side array
 * (TransBlock::side, indexed by TransOp::side): only Engine slots own an
 * entry, so straight-line slots stay two to a cache line.
 *
 * ExecCore keeps the blocks in one table indexed by text word, the only
 * record of what is translated. Steady-state execution **chains**: every
 * block exit (a terminator, the End sentinel, an Engine slot's redirect)
 * looks its successor up in that table by PC and jumps to its first
 * slot, translating on a miss, without a trip through the dispatcher.
 * See DESIGN.md section 13 for the invalidation rules and the
 * pointer-stability contract (every removal bumps the trace epoch, and
 * removed blocks are parked on a graveyard until the interpreter is
 * outside any chain).
 *
 * Slots whose opcode the active DISE production set covers are kept as
 * Engine slots: they consult the engine at run time (exactly like the
 * slow path), so PT/RT residency state, miss events, and every engine
 * counter evolve bit-identically to a step()-driven run. The slot's
 * side entry holds an ExpandMemo that short-circuits the engine's
 * pattern match and expansion-cache lookup for repeated clean hits; the
 * sequence's RT residency epoch skips the RT probe while no RT entry
 * was filled, evicted, invalidated or corrupted since its slots last
 * hit (see DiseEngine::expandFast). A replayed memo costs a PT and an
 * RT walk clock and nothing else; the interpreter then jumps straight
 * into the sequence's lowered slots (SlotSide::seq, also in the side
 * entry), whose SeqEnd sentinel
 * resumes after the Engine slot or chains to its redirect target.
 * Instructions the fast path cannot model (syscalls, codewords, invalid
 * encodings, DISE branches in the application stream) terminate
 * translation and execute through the ordinary step() fallback.
 *
 * Invalidation (see DESIGN.md sections 9 and 13):
 *  - any production install, table flush, or injected table corruption
 *    advances the DISE engine's table generation; the dispatcher sees
 *    the change at its next trip and retires every block;
 *  - stores into the text segment route through
 *    ExecCore::invalidateDecodedRange, which bumps the trace epoch and
 *    drops the blocks overlapping the written range (only entries within
 *    one block's reach before it can);
 *  - cache-pressure eviction (setTraceBlockCap bounds the resident
 *    blocks) retires every block and bumps the trace epoch too.
 */

#ifndef DISE_SIM_TRACE_HPP
#define DISE_SIM_TRACE_HPP

#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "src/dise/engine.hpp"
#include "src/isa/inst.hpp"
#include "src/isa/semantics.hpp"

namespace dise {

struct TransBlock;
struct TransOp;

/**
 * Flat dispatch handler of one translated slot: one indirect jump per
 * slot selects the full behavior (opcode and addressing mode folded
 * in), with no nested switch. One interpreter (ExecCore::runChain) and
 * one handler table serve both slot streams: the slots of translated
 * blocks and the lowered slots of memoized replacement sequences.
 */
enum class OpHandler : uint8_t {
    /** @name Block slots. */
    /// @{
    /** Straight-line compute, loads and stores, one per semantics-table
     *  row. */
    Nop,
#define DISE_X(name, ...) name,
    DISE_ADDR_OPS(DISE_X)
    DISE_OPERATE_OPS(DISE_X)
    DISE_CMOV_OPS(DISE_X)
    DISE_LOAD_OPS(DISE_X)
    DISE_STORE_OPS(DISE_X)
#undef DISE_X
    /** Control terminators. */
    CondBranch, DirBranch, Jump,
    /** Opcode covered by the DISE production set: consult the engine
     *  at run time. */
    Engine,
    /** A fused pair (macro-op fusion ACF). */
    Fused,
    /** Sentinel closing every block: the fall-through exit. */
    End,
    /// @}
    /** @name Replacement-sequence slots: the twin of each block handler
     *  from Nop through Jump, in the same order, with the sequence's
     *  retire accounting and trigger-relative control. */
    /// @{
    SeqNop,
#define DISE_X(name, ...) Seq##name,
    DISE_ADDR_OPS(DISE_X)
    DISE_OPERATE_OPS(DISE_X)
    DISE_CMOV_OPS(DISE_X)
    DISE_LOAD_OPS(DISE_X)
    DISE_STORE_OPS(DISE_X)
#undef DISE_X
    SeqCondBranch, SeqDirBranch, SeqJump,
    /** A DISE branch whose target lies in [0, length]. */
    DiseBranch,
    /** The only slot of a sequence outside the lowered repertoire (a
     *  syscall, a codeword, an invalid word, an out-of-range DISE
     *  branch): step()'s slot path runs it. */
    SeqGeneric,
    /** Sentinel closing every lowered sequence: the sequence ends. */
    SeqEnd,
    /// @}
    NUM,
};
static_assert(size_t(OpHandler::SeqJump) - size_t(OpHandler::SeqNop) ==
                  size_t(OpHandler::Jump) - size_t(OpHandler::Nop),
              "each block handler from Nop to Jump has a sequence twin");

/**
 * One correct-path dynamic instruction with its execution outcome.
 *
 * Packed into exactly one cache line: the trace feed moves one record
 * per retired instruction from the emitting interpreters to the timing
 * model, so record size is ring and cache traffic. The narrow fields
 * are safe by construction — disepc/seqLen/diseTarget index into a
 * replacement sequence, and DiseEngine::setProductions refuses any
 * sequence longer than kMaxSeqLen slots (see the static_assert below).
 */
struct alignas(64) DynInst
{
    Addr pc = 0;
    Addr memAddr = 0;      ///< valid when isMem
    Addr actualTarget = 0; ///< taken app-control target
    DecodedInst inst;

    /** @name Expansion bookkeeping. */
    /// @{
    uint32_t missPenalty = 0; ///< set on the first slot only
    uint16_t disepc = 0;      ///< slot + 1; 0 for application insts
    uint16_t seqLen = 0;
    uint16_t diseTarget = 0; ///< taken DISE-branch target slot
    /**
     * Prediction class of the whole expansion (set on the first slot,
     * by seqPredClassOf): the front end predicts once per fetched
     * trigger PC.
     */
    OpClass seqPredClass : 4 = OpClass::Nop;
    bool expanded : 1 = false;    ///< part of a replacement sequence
    bool triggerSlot : 1 = false; ///< this slot is T.INSN
    bool firstOfSeq : 1 = false;
    bool lastOfSeq : 1 = false;
    bool ptMiss : 1 = false; ///< set on the first slot only
    bool rtMiss : 1 = false;
    /// @}

    /** @name Execution outcome. */
    /// @{
    bool isAppControl : 1 = false; ///< application-level control transfer
    bool taken : 1 = false;        ///< app control or DISE branch outcome
    bool isMem : 1 = false;
    bool isStore : 1 = false;
    bool isSyscall : 1 = false;
    /// @}

    /**
     * inst's timing descriptor (DecodedInst::timingRegs). Translation
     * stamps it into TransOp, SlotSide::tmpl copies it in, and the
     * generic emitters compute it only when they emit, so the feed's
     * timeBatch reads it instead of walking the op table per record.
     */
    TimingRegs regs;
};
static_assert(sizeof(DynInst) == 64,
              "DynInst must stay a single cache line — the trace feed "
              "streams one record per retired instruction");
static_assert(size_t(OpClass::Invalid) < 16,
              "DynInst::seqPredClass is a 4-bit field");
static_assert(kMaxSeqLen <=
                  std::numeric_limits<decltype(DynInst::seqLen)>::max(),
              "DynInst::disepc/seqLen/diseTarget must hold every slot "
              "position of the longest sequence setProductions accepts");

/**
 * DynInst::seqPredClass of an expansion whose trigger has class
 * @p trigger and whose last slot has class @p last: the trigger's class
 * when it is control, else the last slot's when that is control (e.g.
 * the compressed-out branch ending a dictionary entry), else Nop
 * (predict fall-through).
 */
inline OpClass
seqPredClassOf(OpClass trigger, OpClass last)
{
    return isControlClass(trigger) ? trigger
           : isControlClass(last)  ? last
                                   : OpClass::Nop;
}

/**
 * One pre-resolved slot of a translated basic block or of a lowered
 * replacement sequence: exactly what the dispatch and the trace record
 * read, two slots to a cache line. Direct-branch targets are recomputed
 * from inst (branchTarget) rather than stored.
 */
struct TransOp
{
    /** The decoded instruction: the handlers' operands, and the trace
     *  record's inst field. */
    DecodedInst inst;
    /** inst.timingRegs(), copied into the slot's trace records. */
    TimingRegs regs;
    OpHandler handler = OpHandler::End;
    /** Sequence slots: the slot retires as the application's own
     *  instruction (T.INSN, or a T.OP re-emission), not DISE-inserted
     *  work. False in blocks. */
    bool trigger = false;
    /**
     * Block slots: an Engine slot's TransBlock::side entry (other slots
     * own none and leave it 0). Sequence
     * slots: the slot's position in the sequence (DISEPC - 1), which
     * kMaxSeqLen keeps below 2^16.
     */
    uint16_t side = 0;
};
static_assert(sizeof(TransOp) == 32,
              "TransOp must stay 32 bytes — runChain walks slots at this "
              "stride; mutable per-slot state belongs in SlotSide");
static_assert(std::is_trivially_copyable_v<TransOp>,
              "TransOp must stay trivially copyable");

/**
 * Execution-time state of one Engine slot, in a block that is otherwise
 * immutable once translated.
 */
struct SlotSide
{
    /** The engine-side expansion memo (skips the pattern match, the
     *  cache hash and, through the RT residency epoch, the RT probe on
     *  repeated clean hits). */
    ExpandMemo memo;
    /**
     * The memoized replacement sequence lowered into
     * slots that runChain dispatches like block slots — one per
     * sequence instruction plus the SeqEnd sentinel, or one SeqGeneric
     * slot. Empty until the slot's first memoized expansion. The block
     * lives at one engine generation, where the engine hands this
     * trigger one memoized span, so it is lowered once.
     */
    std::vector<TransOp> seq;
    /**
     * Pre-built trace records, one per lowered sequence slot: every
     * field that is static for the sequence (slot position, decoded
     * instruction and its timing descriptor, expansion flags, slot 0's
     * prediction class) is stamped once, so the emitting interpreter
     * copies a record and fills in only the trigger PC, a missed
     * expansion's slot-0 outcome, and per-execution extras. Built by
     * the first emitting run, so functional runs never build them.
     */
    std::vector<DynInst> tmpl;
};

/**
 * A translated straight-line micro-trace. @c ops holds numInsts real
 * slots plus one OpHandler::End sentinel; numInsts == 0 marks an entry
 * whose first instruction is untranslatable (the table remembers the
 * decision and the PC goes through step() without re-probing).
 */
struct TransBlock
{
    /** Static instruction WORDS covered from the entry word (excludes
     *  the End sentinel). A fused slot covers two words, so this can
     *  exceed the slot count; text stores check overlap against it. */
    uint32_t numInsts = 0;
    std::vector<TransOp> ops;
    /** Side entries of the Engine slots, indexed by TransOp::side. */
    std::vector<SlotSide> side;
};

} // namespace dise

#endif // DISE_SIM_TRACE_HPP
