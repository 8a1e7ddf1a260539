/**
 * @file
 * Translated basic-block micro-traces: the functional simulator's
 * fast-path representation of straight-line guest code.
 *
 * A TransBlock pre-resolves one basic block of decoded instructions into
 * compact slots — a flat dispatch handler, operand register indices,
 * pre-sign-extended immediate, pre-computed direct-branch target —
 * executed by a direct-threaded interpreter in ExecCore (see core.cpp)
 * that bypasses the per-instruction fetch/decode/DISE-inspection
 * machinery of step(). Every slot ends in one computed-goto jump to its
 * handler, and every slot array ends in an OpHandler::End sentinel so
 * the inner loop needs no bounds check. The straight-line handlers are
 * generated from the op tables of src/isa/semantics.hpp, the same rows
 * step()'s execute() expands, so the tiers share one definition of each
 * instruction.
 *
 * Steady-state execution additionally follows **superblock chain
 * edges**: each terminator slot (and the block-level fall-through)
 * carries a patchable ChainEdge naming its successor block, stamped
 * with the trace epoch and engine generation at patch time. A valid
 * edge jumps block-to-block without consulting the dispatch cache or
 * the block map at all; a stale stamp falls back to a lookup and
 * re-patch. See DESIGN.md section 13 for the edge-invalidation rules
 * and the pointer-stability contract (every block erasure either bumps
 * the trace epoch or strictly advances the generation, and erased
 * blocks are parked on a graveyard until the interpreter is outside
 * any chain).
 *
 * Slots whose opcode the active DISE production set covers are kept as
 * Engine slots: they consult the engine at run time (exactly like the
 * slow path), so PT/RT residency state, miss events, and every engine
 * counter evolve bit-identically to a step()-driven run. A per-slot
 * ExpandMemo short-circuits the engine's pattern match and expansion-
 * cache hash lookup for repeated clean hits (see
 * DiseEngine::expandFast). Instructions the fast path cannot model
 * (syscalls, codewords, invalid encodings, DISE branches in the
 * application stream) terminate translation and execute through the
 * ordinary step() fallback.
 *
 * Invalidation (see DESIGN.md sections 9 and 13):
 *  - blocks are keyed by entry PC and stamped with the DISE engine's
 *    table generation; any production install, table flush, or injected
 *    table corruption bumps the generation and orphans stale blocks and
 *    chain edges;
 *  - stores into the text segment route through
 *    ExecCore::invalidateDecodedRange, which bumps the trace epoch
 *    (orphaning every chain edge and dispatch entry) and drops every
 *    block overlapping the written range;
 *  - cache-pressure eviction (the block map is bounded) also bumps the
 *    trace epoch, so no cached pointer ever outlives its target's
 *    residency unnoticed.
 */

#ifndef DISE_SIM_TRACE_HPP
#define DISE_SIM_TRACE_HPP

#include <cstdint>
#include <vector>

#include "src/dise/engine.hpp"
#include "src/isa/inst.hpp"
#include "src/isa/semantics.hpp"

namespace dise {

struct TransBlock;

/**
 * Flat dispatch handler of one translated slot: one indirect jump per
 * slot selects the full behavior (opcode and addressing mode folded
 * in), with no nested switch. Shared by the block interpreter and the
 * pre-translated replacement-sequence interpreter; each implements the
 * subset that can appear in its slot stream.
 */
enum class OpHandler : uint8_t {
    /** @name Straight-line compute and loads (both interpreters), one
     *  per semantics-table row. */
    /// @{
    Nop,
#define DISE_X(name, ...) name,
    DISE_ADDR_OPS(DISE_X)
    DISE_OPERATE_OPS(DISE_X)
    DISE_CMOV_OPS(DISE_X)
    DISE_LOAD_OPS(DISE_X)
#undef DISE_X
    /// @}
    /** Every store width (size pre-resolved; both interpreters). */
    Store,
    /** @name Control (block: terminators; sequence: trigger-relative). */
    /// @{
    CondBranch, DirBranch, Jump,
    /// @}
    /** Opcode covered by the DISE production set: consult the engine
     *  at run time (block interpreter only). */
    Engine,
    /** @name DISE branches (sequence interpreter only). */
    /// @{
    DiseCond, DiseBr,
    /// @}
    /** A fused pair (macro-op fusion ACF; block interpreter only —
     *  fused ops never appear in replacement sequences). */
    Fused,
    /** Sentinel closing every slot array: block fall-through exit /
     *  replacement-sequence end. */
    End,
    NUM,
};

/**
 * A patchable successor edge: the direct-threaded jump from one block
 * exit to the next block's first slot. Valid iff the stamped (epoch,
 * gen) pair still matches the core's live trace epoch and the engine's
 * table generation AND the recorded target PC equals the dynamic
 * successor PC (indirect jumps and expansion redirects patch a
 * monomorphic target; a mispredicted target re-patches). The pointer
 * is raw by design — it is only dereferenced after the stamps
 * validate, and the core guarantees no block is destroyed without
 * either a trace-epoch bump or a generation advance (see the
 * graveyard in ExecCore).
 */
struct ChainEdge
{
    const TransBlock *next = nullptr;
    uint64_t epoch = ~uint64_t(0);
    uint64_t gen = 0;
    Addr target = 0;
};

/**
 * One correct-path dynamic instruction with its execution outcome.
 *
 * Packed into exactly one cache line: the trace feed moves one record
 * per retired instruction from the emitting interpreters to the timing
 * model, so record size is ring and cache traffic. The narrow fields
 * are safe by construction — disepc/seqLen/diseTarget index into a
 * replacement sequence, and dictionary sequences are bounded far below
 * 64Ki slots.
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
     * Prediction class of the whole expansion (set on the first slot):
     * the front end predicts once per fetched trigger PC — the trigger's
     * own class when the trigger is a control instruction, else the
     * class of the sequence's final instruction when that is application
     * control (e.g. the compressed-out branch ending a dictionary
     * entry), else Nop (predict fall-through).
     */
    OpClass seqPredClass = OpClass::Nop;
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
};
static_assert(sizeof(DynInst) == 64,
              "DynInst must stay a single cache line — the trace feed "
              "streams one record per retired instruction");

/** One pre-translated slot of a memoized replacement sequence. */
struct SeqOp
{
    OpHandler handler = OpHandler::End;
    Opcode op = Opcode::NOP;
    RegIndex ra = 0;
    RegIndex rb = 0;
    RegIndex rc = 0;
    bool useLit = false;
    /** Slot retires as the application's own instruction (T.INSN /
     *  T.OP re-emission), not DISE-inserted work. */
    bool trigger = false;
    uint8_t size = 0;        ///< memory access size (Store)
    bool diseValid = false;  ///< DISE-branch target is within range
    int64_t imm = 0;         ///< pre-sign-extended immediate / literal
    uint32_t diseTarget = 0; ///< resolved DISE-branch target slot
};

/**
 * Pre-translated form of one memoized replacement sequence, cached per
 * Engine slot. Valid while the engine still hands out the same span
 * (same insts pointer/length) at the same table generation; expansions
 * that are not memoized (scratch-backed or fault-garbled) never use it.
 * @c ops holds numInsts real slots plus the End sentinel.
 */
struct SeqTrans
{
    const DecodedInst *insts = nullptr;
    uint32_t numInsts = 0;
    uint64_t gen = 0;
    /** False when a slot is outside the fast-path repertoire (e.g. a
     *  syscall): the generic per-slot path runs instead. */
    bool usable = false;
    std::vector<SeqOp> ops;
    /**
     * Pre-built trace records, one per real slot: every field that is
     * static for the sequence (slot position, decoded instruction,
     * expansion flags) is stamped at translation time, so the emitting
     * interpreter copies a record and fills in only the trigger PC,
     * the slot-0 expansion outcome, and per-execution extras. Same
     * validity as @c ops.
     */
    std::vector<DynInst> tmpl;
};

/** One pre-resolved slot of a translated basic block. */
struct TransOp
{
    OpHandler handler = OpHandler::End;
    Opcode op = Opcode::NOP;
    RegIndex ra = 0;
    RegIndex rb = 0;
    RegIndex rc = 0;
    bool useLit = false;
    uint8_t size = 0; ///< memory access size (Store)
    int64_t imm = 0;  ///< pre-sign-extended immediate / literal
    Addr target = 0;  ///< pre-computed direct-branch target
    /** Full decode, for Engine slots and diagnostics. */
    DecodedInst inst;
    /** @name Execution-time state of slots in a block the dispatcher
     *  otherwise treats as immutable (patched on first execution,
     *  validated by stamps on every use). */
    /// @{
    /** Terminators and Engine slots: the patched successor edge. */
    mutable ChainEdge chain;
    /** Engine slots: the engine-side expansion memo (skips the pattern
     *  match and cache hash on repeated clean hits). */
    mutable ExpandMemo memo;
    /** Engine slots: cached translation of this slot's memoized
     *  replacement sequence (see SeqTrans). */
    mutable SeqTrans seqCache;
    /// @}
};

/**
 * A translated straight-line micro-trace. @c ops holds numInsts real
 * slots plus one OpHandler::End sentinel; numInsts == 0 marks an entry
 * whose first instruction is untranslatable (the dispatcher remembers
 * the decision and routes the PC through step() without re-probing).
 */
struct TransBlock
{
    Addr entryPC = 0;
    /** Static instruction WORDS covered (excludes the End sentinel).
     *  A fused slot covers two words, so this can exceed the slot
     *  count; coveredEnd() depends on it for SMC overlap checks. */
    uint32_t numInsts = 0;
    /** DiseEngine::generation() at build time (0 without a controller). */
    uint64_t engineGen = 0;
    std::vector<TransOp> ops;
    /** Patched successor for the fall-through exit (End sentinel). */
    mutable ChainEdge fallChain;

    /** First address past the last static instruction word covered. */
    Addr
    coveredEnd() const
    {
        return entryPC + (numInsts == 0 ? 1 : numInsts) * 4;
    }
};

} // namespace dise

#endif // DISE_SIM_TRACE_HPP
