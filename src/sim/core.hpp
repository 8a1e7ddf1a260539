/**
 * @file
 * The architectural execution core: fetches through the DISE engine,
 * executes the (possibly expanded) instruction stream, and exposes the
 * resulting correct-path dynamic instruction trace one instruction at a
 * time. The functional simulator is a thin loop over this core; the
 * cycle-level pipeline model consumes the same trace and adds timing.
 *
 * Replacement-sequence control semantics implemented here (Section 2.1):
 *
 *  - Every dynamic instruction carries a PC:DISEPC pair; DISEPC is 0 for
 *    application instructions.
 *  - DISE branches (dbeq/dbne/...) move only the DISEPC: a taken DISE
 *    branch jumps within the current replacement sequence (a target equal
 *    to the sequence length ends the sequence).
 *  - An application branch that is NOT the trigger is never predicted;
 *    the replacement instructions after it belong to its non-taken path,
 *    so if it is taken the rest of the sequence is discarded and fetch
 *    resumes at its target. (Indirect jumps/calls in sequences are
 *    always "taken" in this sense; a call links to the trigger's PC+4.)
 *  - An application branch that IS the trigger keeps the instructions
 *    after it on its predicted path: with the core's oracle view, the
 *    remainder of the sequence executes and the branch's outcome is
 *    applied when the sequence ends.
 */

#ifndef DISE_SIM_CORE_HPP
#define DISE_SIM_CORE_HPP

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/acf/fusion.hpp"
#include "src/assembler/program.hpp"
#include "src/common/json.hpp"
#include "src/common/stats.hpp"
#include "src/dise/controller.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/syscalls.hpp"
#include "src/sim/trace.hpp"
#include "src/sim/trap.hpp"

namespace dise {

struct SimSnapshot;

/** Aggregate results of an architectural run. */
struct RunResult
{
    bool exited = false;
    int exitCode = 0;
    uint64_t dynInsts = 0;  ///< total retired (app + replacement)
    uint64_t appInsts = 0;  ///< application-stream instructions
    uint64_t diseInsts = 0; ///< extra instructions DISE inserted
    uint64_t expansions = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    std::string output;

    /** How the run terminated (Exit, Trap, Hang; Running mid-run). */
    RunOutcome outcome = RunOutcome::Running;
    /** The architected trap when outcome == Trap. */
    Trap trap;
    /**
     * Control transfers into the program's "error" symbol — the
     * landing pad fault-detecting ACFs (MFI segment matching, the
     * watchpoint assertion) branch to. A nonzero count means an ACF
     * *detected* a violation, distinguishing that exit from a normal
     * one even when the handler terminates cleanly.
     */
    uint64_t acfDetections = 0;

    /**
     * The one serializer for architectural results: `diserun
     * --stats-json` (functional runs), the batch NDJSON stream, and
     * campaign golden runs all emit this object. Keys are stable
     * snake_case; the trap record appears only when outcome == Trap.
     */
    Json toJson() const;
};

/** The architectural core. */
class ExecCore
{
  public:
    /**
     * @param prog The program image (loaded into a fresh memory).
     * @param controller Optional DISE controller; when null, the fetch
     *                   stream executes unmodified.
     */
    explicit ExecCore(const Program &prog,
                      DiseController *controller = nullptr);

    /**
     * Execute and emit the next correct-path dynamic instruction.
     * Like run(), a return mid-replacement-sequence pins the suspended
     * sequence, so the caller may install() or flushTables() before
     * the next step.
     * @return False when the program has terminated — exited or took an
     *         architected trap (out is untouched).
     */
    bool step(DynInst &out);

    /**
     * Run to completion (or @p maxInsts dynamic instructions; hitting
     * the cap yields a Hang outcome, the watchdog-expiry result).
     */
    RunResult run(uint64_t maxInsts = ~uint64_t(0));

    /**
     * Batched retire-trace feed: execute forward — through the
     * translated fast path when enabled, step() otherwise — filling
     * @p ring with the DynInst records the same number of step() calls
     * would have produced, bit-identical field for field. Stops at
     * ring capacity, at @p maxDyn retired dynamic instructions (an
     * absolute result().dynInsts bound, run()-style), at termination
     * (exit/trap), or at a cooperative-cancel poll; like run(), a
     * return mid-replacement-sequence pins the suspended sequence so
     * the next call can resume it (the sequence is torn across the two
     * fills), and a return mid-block leaves a resume cursor so the next
     * call continues in the same translated block.
     *
     * @return The number of records written. 0 means no progress:
     *         terminated, budget already spent, or cancelled. Unlike
     *         run(), a budget expiry is NOT classified as a Hang —
     *         the caller owns outcome classification (the timing
     *         model applies its own instruction/cycle budgets).
     *
     * A retirement can consume budget without emitting exactly where
     * step() retires without returning a record (the out-of-range
     * DISE-branch trap), so callers must consume by record count, not
     * by dynInsts delta.
     */
    size_t fillTrace(DynInst *ring, size_t cap,
                     uint64_t maxDyn = ~uint64_t(0));

    bool exited() const { return exited_; }
    /** True once an architected trap terminated the run. */
    bool trapped() const { return trapped_; }
    /** The trap (cause None when none fired). */
    const Trap &trap() const { return result_.trap; }
    const RunResult &result() const { return result_; }

    /** @name Architectural state access (tests, ACF setup). */
    /// @{
    uint64_t reg(RegIndex r) const { return regs_[r]; }
    void setReg(RegIndex r, uint64_t value);
    DiseRegFile diseRegs() const;
    void setDiseReg(unsigned i, uint64_t value);
    Memory &memory() { return memory_; }
    const Memory &memory() const { return memory_; }
    Addr pc() const { return pc_; }
    /// @}

    /** @name Precise state and interrupt resume (paper Section 2.1).
     *
     * Every dynamic instruction boundary is a precise PC:DISEPC point.
     * interruptPoint() reports where execution stands (the pair the OS
     * would save); copyArchStateFrom() transfers the architectural state
     * (registers, dedicated registers, memory, heap break) into a fresh
     * core — what survives across a context switch; resumeAt() restarts
     * fetch at a PC:DISEPC pair: the fetch engine re-fetches PC, the
     * DISE engine re-expands, and the first DISEPC-1 replacement
     * instructions are skipped without re-executing.
     */
    /// @{
    /** Current precise point: the PC:DISEPC of the NEXT instruction. */
    std::pair<Addr, uint32_t> interruptPoint() const;
    /** Adopt another core's architectural state (not its control). */
    void copyArchStateFrom(const ExecCore &other);
    /** Restart at a saved PC:DISEPC pair. */
    void resumeAt(Addr pc, uint32_t disepc);
    /// @}

    /** @name Copy-on-write snapshots (src/sim/snapshot.hpp).
     *
     * saveSnapshot/restoreSnapshot capture and reinstate the complete
     * execution state at an application-instruction boundary; unlike
     * resumeAt, restore is a pure state copy (no engine re-expansion),
     * so a restored run is bit-identical — every counter, PT/RT stamp
     * and statistic — to one that executed the prefix itself. The core
     * must be at an application boundary to snapshot (no in-flight
     * replacement sequence; its instantiated instructions are a
     * non-owning span into the engine's caches and cannot be captured
     * by value). advanceToAppInst runs — via the translated fast path
     * when enabled — until exactly @p target application instructions
     * have retired and the core is at such a boundary, without
     * classifying a budget expiry as a Hang the way run() does.
     */
    /// @{
    /** No replacement sequence in flight: snapshots are legal here. */
    bool atAppBoundary() const { return seqSpec_ == nullptr; }
    /** Execute until result().appInsts == @p target (or termination),
     *  draining any in-flight sequence to the next boundary. */
    void advanceToAppInst(uint64_t target);
    /** Capture the complete execution state into @p out. */
    void saveSnapshot(SimSnapshot &out) const;
    /** Reinstate a capture; the snapshot must come from a core running
     *  the same program (and the same controller-attached-or-not
     *  shape) as this one. */
    void restoreSnapshot(const SimSnapshot &snap);
    /// @}

    /**
     * Drop all pre-decoded instructions (and translated traces). The
     * core invalidates affected entries itself on stores into the text
     * segment; callers that mutate text through memory() directly must
     * call this.
     */
    void invalidateDecodeCache();

    /** @name Translated basic-block fast path (src/sim/trace.hpp).
     *
     * run() executes through pre-translated straight-line micro-traces
     * when enabled (the default). Architectural behavior and every
     * simulator/engine statistic are bit-identical to the step() path;
     * the switch exists as an escape hatch (diserun --no-trace-cache)
     * and for differential testing. step() itself always takes the
     * slow path, so the timing model's trace stream is unaffected.
     */
    /// @{
    void setTraceCacheEnabled(bool on) { traceEnabled_ = on; }
    bool traceCacheEnabled() const { return traceEnabled_; }

    /**
     * Translated-block residency cap (test hook; the default is ample
     * for every real workload). Translating past the cap retires every
     * resident block — with the epoch bump and graveyard parking that
     * make eviction safe mid-chain — so a tiny cap stress-tests the
     * invalidation machinery.
     */
    void setTraceBlockCap(size_t cap) { traceBlockCap_ = cap ? cap : 1; }

    /** Fast-path observability (bench/test only; not architectural). */
    struct TraceCacheStats
    {
        uint64_t blocksTranslated = 0;
        uint64_t evictions = 0; ///< whole-table cache-pressure evictions
        uint64_t chainFollows = 0;
    };
    TraceCacheStats traceCacheStats() const
    {
        return {statBlocksTranslated_, statTraceEvictions_,
                statChainFollows_};
    }
    /// @}

    /** @name Macro-op fusion ACF (src/acf/fusion).
     *
     * DISE run "in reverse": when enabled, the decode stage recognizes
     * adjacent dependent application pairs (cmp+branch, address
     * formation, shift+add, load-op) and executes them as one fused
     * internal op retiring both constituents — dynInsts/appInsts
     * advance by two, loads/stores count per constituent, so the
     * architectural RunResult is bit-identical to an unfused run; the
     * win is one trace record (one issue slot in PipelineSim) per
     * pair. Decisions are a pure per-PC function of the two text words
     * and production coverage (covered opcodes never fuse: expansion
     * takes priority), so the fast and slow paths agree by
     * construction. Off by default.
     *
     * Fusion retires two application instructions per boundary, which
     * breaks advanceToAppInst's exactly-N contract — the service layer
     * rejects fusion combined with warmup snapshots, sampling, and
     * campaigns.
     */
    /// @{
    void setFusionEnabled(bool on);
    bool fusionEnabled() const { return fusionEnabled_; }
    /** Fused-pair counters (total + per family), materialized into a
     *  StatGroup for single-walk registration as "acf.fusion". */
    const StatGroup &fusionStatGroup() const;
    uint64_t fusedPairs() const { return statFusedPairs_; }
    /// @}

    /** @name Cooperative cancellation.
     *
     * An external watchdog (the serving daemon's deadline monitor) may
     * point the core at an atomic flag; run() polls it at block-
     * dispatch boundaries (every ~1K instructions on the slow path)
     * and, when set, stops at the next precise instruction boundary
     * with a Hang outcome — the same architected classification a
     * budget expiry gets, so a wall-clock deadline and an instruction
     * watchdog are indistinguishable to the guest. Never consulted
     * when unset (the default), so batch and test runs are untouched.
     */
    /// @{
    void setCancelFlag(const std::atomic<bool> *flag)
    {
        cancelFlag_ = flag;
    }
    bool cancelRequested() const
    {
        return cancelFlag_ != nullptr &&
               cancelFlag_->load(std::memory_order_relaxed);
    }
    /// @}

  private:
    /**
     * step() without the pin: the dispatchers loop on it and pin once
     * at their own return.
     */
    bool stepUnpinned(DynInst &out);
    /**
     * Execute the fetched application instruction at pc_ and retire it.
     * Shared by step() (kEmit: fills @p out) and the translated fast
     * path (!kEmit: @p out unused). @return false on trap.
     */
    template <bool kEmit>
    bool execAppInst(const DecodedInst &fetched, DynInst *out);
    /**
     * Execute + retire the next slot of the in-flight replacement
     * sequence (seqSpec_ != nullptr). @return false on trap.
     */
    template <bool kEmit> bool execSeqSlot(DynInst *out);
    /** execSeqSlot body; @p dyn is caller-provided outcome storage. */
    template <bool kEmit> bool execSeqSlotBody(DynInst &dyn, DynInst *out);
    /**
     * Present the fetched instruction at pc_ to the DISE engine and set
     * up sequence state when it expands. Requires controller_.
     */
    bool beginExpansion(const DecodedInst &fetched);
    /** Adopt a just-produced expansion as the in-flight sequence. */
    void adoptExpansion(const ExpandResult &r);
    /** Drop the in-flight sequence: it ended, trapped, or was discarded. */
    void clearSeq();
    /**
     * Execute until termination, a cancel, or @p maxInsts retired
     * instructions: through the translated dispatcher when the trace
     * cache is on, through step() (polling for a cancel every 1K
     * retirements) otherwise. kEmit (fillTrace): every retirement also
     * writes its record through emit_. Shared by run(),
     * advanceToAppInst and fillTrace.
     */
    template <bool kEmit> void runUntil(uint64_t maxInsts);
    /**
     * The translated-path dispatcher (runUntil with the trace cache
     * on). Retires every block when the engine generation moved since
     * the last trip, and re-enters a block at the resume cursor when it
     * still applies (see ChainCursor).
     */
    template <bool kEmit> void runTranslated(uint64_t maxInsts);
    /**
     * Execute the superblock chain starting at slot @p start of
     * @p block, the slot of guest PC @p pc (pc_): the direct-threaded
     * interpreter runs the block's slots, jumps into the lowered slots
     * of every memoized expansion and back, and goes on block-to-block
     * through blockAt until a budget expiry, a cancellation poll, an
     * untranslatable successor, a text store, or termination.
     * Blocks removed meanwhile stay alive on the retired_ graveyard
     * until the dispatcher's next trip. A stop inside a block on the
     * budget, or inside a sequence (which it hands to the in-flight
     * sequence state execSeqSlot resumes from), leaves the resume
     * cursor behind.
     *
     * kEmit (the fillTrace feed): every retirement additionally writes
     * its DynInst record through the emit_ cursor, bit-identical to
     * what step() would have produced for the same instruction. The
     * caller bounds @p maxInsts so the ring cannot overrun (each
     * retired instruction emits at most one record).
     */
    template <bool kEmit>
    void runChain(TransBlock *block, const TransOp *start, Addr pc,
                  uint64_t maxInsts);
    /**
     * The block entered at @p pc, translating on a miss: null when @p pc
     * is unaligned or outside text, or its first instruction is
     * untranslatable (the caller goes through step()). The dispatcher's
     * lookup and every block exit's.
     */
    TransBlock *
    blockAt(Addr pc)
    {
        const Addr off = pc - prog_.textBase;
        if ((off & 3) != 0 || off >= prog_.textBytes())
            return nullptr;
        TransBlock *b = blocks_[static_cast<size_t>(off >> 2)].get();
        if (b == nullptr)
            b = translateBlock(pc);
        return b->numInsts != 0 ? b : nullptr;
    }
    /** Translate the block entered at @p entry into its table entry. */
    TransBlock *translateBlock(Addr entry);
    /** Park every resident block on the graveyard (bumps the epoch). */
    void retireBlocks();
    /** Drop translated blocks overlapping [addr, addr+size). */
    void invalidateTraceRange(Addr addr, unsigned size);
    /**
     * Rate-limited cooperative-cancel poll for the translated fast
     * path: cheap epoch arithmetic off the retired-instruction count,
     * touching the atomic only once per ~1K retirements — the same
     * stride the slow path polls at — so chained loops and spinning
     * replacement sequences observe a deadline within a bounded
     * overshoot.
     */
    bool
    cancelPollDue(uint64_t dynInsts)
    {
        if (dynInsts < nextCancelPoll_)
            return false;
        nextCancelPoll_ = dynInsts + 1024;
        return cancelRequested();
    }
    /**
     * Execute @p inst, recording outcome fields into @p dyn (the fast
     * path passes a scratch DynInst whose inst field is not populated;
     * @p inst is always the instruction to run).
     */
    void execute(const DecodedInst &inst, DynInst &dyn);

    /** @name Macro-op fusion internals. */
    /// @{
    /**
     * Do the words at @p pc and pc + 4 fuse? On true, @p fused holds
     * the synthesized instruction. Computed from the decode cache and
     * the engine's live coverage on every call; step() and
     * translateBlock both ask here, so both tiers see one decision.
     * Requires fusionEnabled_ and prog_.inText(pc).
     */
    bool fusionAt(Addr pc, DecodedInst &fused);
    /**
     * Execute the fused pair at pc_ and retire both constituents as
     * one record. Mirrors execAppInst's contract; @return false on a
     * trap (fused constituents cannot trap themselves, but the core
     * may have been cancelled at the boundary).
     */
    template <bool kEmit>
    bool execFusedPair(const DecodedInst &fz, DynInst *out);
    /**
     * Fused semantics shared by both interpreter tiers: register and
     * memory effects plus @p dyn outcome fields (isMem/memAddr/taken/
     * actualTarget/isAppControl/isStore) and the acfDetections counter.
     * Does NOT advance pc_, the retirement counters, or loads/stores
     * (the chain interpreter accumulates those in locals), and does NOT
     * invalidate decode state on text stores — callers handle all of
     * that.
     * @return For FCMPBR, the taken flag; false otherwise.
     */
    bool executeFused(const DecodedInst &fz, Addr pc, DynInst &dyn);
    /// @}
    /** Record an architected trap and halt the core (never throws). */
    void raiseTrap(TrapCause cause, Addr pc, uint32_t disepc,
                   uint64_t faultAddr, std::string message);
    /** Decode-once fetch: cached per static text PC. */
    const DecodedInst &fetchDecode(Addr pc);
    /** Drop cached decodes overlapping [addr, addr+size). */
    void invalidateDecodedRange(Addr addr, unsigned size);
    /**
     * Self-modifying code: drop the decodes and translations a
     * @p size-byte store at @p addr made stale.
     * @return Whether the store overlapped the text segment.
     */
    bool
    noteTextStore(Addr addr, unsigned size)
    {
        if (addr >= prog_.textEnd() || addr + size <= prog_.textBase)
            return false;
        invalidateDecodedRange(addr, size);
        return true;
    }
    void doSyscall(DynInst &dyn);
    /**
     * A taken control transfer to @p target: one into the program's
     * "error" symbol is the architected signature of an ACF-detected
     * violation (MFI segment matching, watchpoint assertions), counted
     * so callers can tell a detected fault from a normal exit.
     */
    void
    noteControlTarget(Addr target)
    {
        if (errorAddr_ != 0 && target == errorAddr_)
            ++result_.acfDetections;
    }
    /** A plain load: every write path (writeReg, setReg) skips the
     *  zero register, so regs_[kZeroReg] stays 0. */
    uint64_t readReg(RegIndex r) const { return regs_[r]; }
    void
    writeReg(RegIndex r, uint64_t value)
    {
        if (r != kZeroReg)
            regs_[r] = value;
    }
    /** @name Operands of instruction @p s. */
    /// @{
    /** Memory-format effective address: rb + displacement. */
    Addr effAddr(const DecodedInst &s) const
    {
        return readReg(s.rb) + static_cast<uint64_t>(s.imm);
    }
    /** Second operate operand: the rb value or the literal. */
    uint64_t operandB(const DecodedInst &s) const
    {
        return s.useLit ? static_cast<uint64_t>(s.imm) : readReg(s.rb);
    }
    /// @}

    const Program &prog_;
    DiseController *controller_;
    /** External cancellation request; null = never cancelled. */
    const std::atomic<bool> *cancelFlag_ = nullptr;
    Memory memory_;
    std::array<uint64_t, kNumLogicalRegs> regs_{};
    Addr pc_;
    Addr brk_;
    bool exited_ = false;
    bool trapped_ = false;
    /** The program's "error" symbol (ACF violation landing pad); 0 when
     *  the program defines none. */
    Addr errorAddr_ = 0;
    RunResult result_;

    /** @name Pre-decoded text image (decode once per static PC). */
    /// @{
    std::vector<DecodedInst> decoded_;
    std::vector<uint8_t> decodedValid_;
    /** Decode slot for out-of-image fetches (fatal upstream anyway). */
    DecodedInst decodeFallback_;
    /// @}

    /** @name In-flight replacement sequence.
     *
     * The state of the generic slot path (execSeqSlot): step()'s, and
     * the translated path's for an expansion it does not lower or a
     * lowered sequence it stops in (runChain runs a lowered sequence
     * in locals and writes these only then). The instantiated
     * instructions are a non-owning span into the DISE engine's
     * expansion cache (see ExpandResult); it stays valid for the whole
     * sequence because the engine is not consulted again until the
     * sequence retires. When a run RETURNS with the sequence still in
     * flight (budget expiry, cooperative cancel) that assumption
     * breaks — the caller may install productions or flush tables,
     * freeing the storage under the span — so every public entry point
     * that can exit mid-sequence calls pinSuspendedSeq() to copy the
     * span and spec into the core-owned backing below.
     */
    /// @{
    const DecodedInst *seqInsts_ = nullptr;
    uint32_t seqLen_ = 0;
    const ReplacementSeq *seqSpec_ = nullptr;
    uint32_t seqIdx_ = 0;
    Addr seqTriggerPC_ = 0;
    /** Where fetch resumes when the sequence runs off its end: the
     *  trigger's successor, or a trigger branch's deferred outcome. */
    Addr seqNext_ = 0;
    /** The expansion's miss outcome, carried by slot 0's record. */
    bool seqPtMiss_ = false;
    bool seqRtMiss_ = false;
    uint32_t seqMissPenalty_ = 0;
    /** Re-point a suspended sequence at core-owned copies (see the
     *  group comment). Idempotent; no-op at an app boundary. */
    void pinSuspendedSeq();
    /** Core-owned backing for a sequence suspended across an API
     *  return: engine mutations can free the original storage. */
    std::vector<DecodedInst> seqPinnedInsts_;
    ReplacementSeq seqPinnedSpec_;
    /** Outcome scratch for non-emitting sequence execution; only the
     *  fields execute() and the sequence-control logic read are reset
     *  per slot (cheaper than value-initializing a DynInst). */
    DynInst seqScratch_;
    /// @}

    /** @name Macro-op fusion state. */
    /// @{
    bool fusionEnabled_ = false;
    /** Executed fused pairs, total and per family (not architectural —
     *  identical across tiers within a regime, but fused-vs-native
     *  runs differ here by design). */
    uint64_t statFusedPairs_ = 0;
    std::array<uint64_t, kNumFusedFamilies> statFusedFamily_{};
    mutable StatGroup fusionGroup_{"acf.fusion"};
    /// @}

    /** @name Translated basic-block trace cache. */
    /// @{
    bool traceEnabled_ = true;
    /**
     * The translated blocks, one entry per text word: the block entered
     * at that word, or null when none is. The only record of what is
     * translated; the dispatcher and every block exit look their
     * successor up here (blockAt).
     */
    std::vector<std::unique_ptr<TransBlock>> blocks_;
    /** Non-null entries of blocks_ (the count setTraceBlockCap bounds). */
    size_t resident_ = 0;
    /** The engine generation every resident block was translated at. */
    uint64_t blockGen_ = 0;
    /** Bumped on every trace invalidation; a running block exits when
     *  it observes a change (a replacement-sequence store may have
     *  rewritten text the block itself covers). */
    uint64_t traceEpoch_ = 0;
    /**
     * Graveyard for blocks removed from blocks_ while translated code
     * may still be on the stack: SMC invalidation and cache-pressure
     * eviction both happen mid-chain, when the interpreter holds raw
     * pointers (the running block, its ops cursor) into blocks the
     * table no longer owns. Every removal parks the block here instead
     * of destroying it; the dispatcher clears the graveyard at the top
     * of its loop, the one point provably outside any chain. Nothing
     * finds a parked block again (the table entry is null, and the
     * epoch bump kills the resume cursor), so the graveyard only defers
     * destruction, never revival.
     */
    std::vector<std::unique_ptr<TransBlock>> retired_;
    /** translateBlock's slot buffer, reused across translations. */
    std::vector<TransOp> blockScratch_;
    /**
     * Cache-pressure bound on resident_ (see setTraceBlockCap). At the
     * default, fig-scale workloads never evict; the cap exists so a
     * pathological or adversarial text footprint cannot keep
     * translations without bound.
     */
    size_t traceBlockCap_ = 65536;
    /** Next dynInsts value at which the fast path polls cancelFlag_. */
    uint64_t nextCancelPoll_ = 0;
    /**
     * Resume cursor (DESIGN.md section 13.3): where runChain last
     * stopped inside a block — on its instruction budget, or just after
     * an Engine slot whose replacement sequence it left suspended (the
     * dispatcher drains the rest through execSeqSlot first). Stamped
     * with the trace epoch the block was ENTERED at, so a sequence
     * store that invalidated the running block leaves a dead cursor.
     * The dispatcher re-enters at @c op when pc_ and the epoch still
     * match, instead of translating a fresh suffix block at pc_ whose
     * expansion memos would start cold. A matching epoch proves the
     * block is still in the table (every removal, a generation change's
     * included, bumps it), so the raw pointers are safe to follow.
     */
    struct ChainCursor
    {
        TransBlock *block = nullptr;
        const TransOp *op = nullptr; ///< next slot to execute
        Addr pc = 0;                 ///< guest PC of @c op
        uint64_t epoch = ~uint64_t(0);
    };
    ChainCursor resume_;
    /**
     * fillTrace emission cursor: the next free ring slot. Non-null
     * only while a fillTrace call is on the stack; runChain<true>
     * keeps a local copy and syncs it here at every flush point
     * (CHAIN_FLUSH, before the calls that emit through it).
     */
    DynInst *emit_ = nullptr;
    /** @name Fast-path counters (traceCacheStats; not architectural). */
    /// @{
    uint64_t statBlocksTranslated_ = 0;
    uint64_t statTraceEvictions_ = 0;
    uint64_t statChainFollows_ = 0;
    /// @}
    /// @}
};

} // namespace dise

#endif // DISE_SIM_CORE_HPP
