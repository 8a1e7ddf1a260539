/**
 * @file
 * Cycle-level timing model of a MIPS R10000-like superscalar processor
 * with the DISE engine at decode — the substrate of the paper's
 * evaluation (Section 4): 4-wide, 12-stage, 128-entry reorder buffer,
 * 80 reservation stations, aggressive branch and load speculation, 32 KB
 * L1 caches and a unified 1 MB L2.
 *
 * The model executes the correct-path dynamic instruction trace produced
 * by the architectural core (ExecCore) and computes per-instruction
 * fetch, dispatch, issue, complete and commit timestamps in one pass:
 *
 *  - Front end: line-granular instruction fetch through the I-cache,
 *    width instructions per cycle, fetch groups broken by taken branches
 *    and line crossings; gshare+BTB+RAS prediction; mispredicted
 *    branches stall correct-path delivery until they resolve in the
 *    backend plus the front-end refill depth.
 *  - DISE at decode: replacement instructions consume front-end slots;
 *    engine placement is Free (no overhead), Stall (one-cycle stall per
 *    expansion) or Pipe (one extra front-end stage, deeper mispredict
 *    refill); PT/RT misses flush the front end and stall it for the
 *    controller's fill latency. Per the paper, DISE-internal branches
 *    and non-trigger application branches inside replacement sequences
 *    are never predicted: when taken they cost a full mispredict.
 *  - Back end: dataflow-limited issue via register ready-times (renaming
 *    removes false dependences), dispatch/commit bandwidth of the
 *    machine width, ROB and RS occupancy via ring buffers of commit and
 *    issue timestamps, loads access the D-cache at issue, stores at
 *    commit (store buffer hides their latency).
 *
 * Trace delivery (DESIGN.md Section 14): by default the model pulls the
 * dynamic stream in batches through ExecCore::fillTrace (the trace
 * feed), which keeps the architectural interpreter in its fast
 * dispatch loop and times each batch with inlined cache/predictor
 * accessors. setTraceFeed(false) falls back to per-instruction
 * ExecCore::step — the bit-identical reference path. On top of the
 * feed, setSampling enables SMARTS-style sampled timing: periodic
 * detailed windows with functional warming (caches + branch predictor
 * only, zero cycles) in between, reporting measured CPI over the
 * sampled windows and an extrapolated whole-run cycle estimate.
 *
 * Deliberate simplifications (documented in DESIGN.md): wrong-path fetch
 * consumes the mispredict shadow but does not pollute the I-cache;
 * issue-port contention is subsumed by dispatch/commit width.
 */

#ifndef DISE_PIPELINE_PIPELINE_HPP
#define DISE_PIPELINE_PIPELINE_HPP

#include <memory>

#include "src/branch/predictor.hpp"
#include "src/mem/cache.hpp"
#include "src/sim/core.hpp"
#include "src/sim/snapshot.hpp"

namespace dise {

/** Machine configuration (defaults = the paper's baseline). */
struct PipelineParams
{
    uint32_t width = 4;
    uint32_t robEntries = 128;
    uint32_t rsEntries = 80;
    /**
     * Fetch-to-dispatch depth in cycles; with the 5 back-end stages this
     * models the paper's 12-stage pipeline. The Pipe DISE placement adds
     * one stage.
     */
    uint32_t frontendDepth = 7;
    /** Cheap decode-stage redirect for direct branches that miss the BTB. */
    uint32_t decodeRedirectPenalty = 2;
    uint32_t intAluLatency = 1;
    uint32_t intMultLatency = 3;
    uint32_t syscallLatency = 30;
    MemHierarchyParams mem;
    PredictorParams bpred;
};

/**
 * Per-stage cycle accounting: every simulated cycle lands in exactly
 * one bucket, so the buckets always sum to TimingResult::cycles (the
 * simulator asserts this at the end of every run).
 *
 * Attribution happens on the in-order commit clock: each instruction's
 * commit-clock advance is charged to the stall causes observed along
 * its fetch→dispatch→issue→complete chain, clamped in the fixed
 * priority order DISE → I-miss → branch → drain → D-miss → hazard
 * (overlapped stalls are charged to the first cause only), and the
 * unattributed remainder — useful issue/commit bandwidth and pipeline
 * fill — goes to @c issue.
 */
struct CycleBreakdown
{
    uint64_t issue = 0;       ///< base bandwidth, latency, pipeline fill
    uint64_t imissStall = 0;  ///< I-cache miss latency gating fetch
    uint64_t dmissStall = 0;  ///< D-cache miss latency gating commit
    uint64_t branchFlush = 0; ///< mispredict/decode-redirect recovery
    uint64_t diseStall = 0;   ///< expansion stalls, PT/RT fills,
                              ///< unpredicted DISE-branch redirects
    uint64_t hazard = 0;      ///< RAW dependences, ROB/RS occupancy
    uint64_t drain = 0;       ///< syscall serialization
    uint64_t
    total() const
    {
        return issue + imissStall + dmissStall + branchFlush +
               diseStall + hazard + drain;
    }
};

/**
 * SMARTS-style sampling configuration and measurements. When enabled,
 * the dynamic stream alternates between detailed windows (@c detail
 * instructions timed by the full pipeline model) and warming gaps
 * (@c period - @c detail instructions that only touch the caches and
 * branch predictor, advancing the cycle clock by nothing). Windows
 * start and end on application-instruction boundaries, so a DISE
 * replacement sequence is never split across a phase switch; the run
 * always opens with a detailed window, making a period that covers the
 * whole run equivalent to full detailed timing.
 */
struct SamplingInfo
{
    bool enabled = false;
    uint64_t period = 0;         ///< sampling unit, in instructions
    uint64_t detail = 0;         ///< detailed instructions per unit
    uint64_t sampledInsts = 0;   ///< instructions timed in detail
    uint64_t warmedInsts = 0;    ///< instructions functionally warmed
    uint64_t measuredCycles = 0; ///< commit-clock cycles in the windows

    /** CPI measured over the detailed windows only. */
    double
    measuredCpi() const
    {
        return sampledInsts ? double(measuredCycles) / double(sampledInsts)
                            : 0.0;
    }
};

/** Timing results of one run. */
struct TimingResult
{
    uint64_t cycles = 0;
    /** Where every one of those cycles went (sums to cycles). */
    CycleBreakdown buckets;
    /**
     * Architectural results, including the run outcome: Exit, Trap
     * (with the trap record), or Hang when either watchdog budget —
     * instructions or cycles — expired before the program exited.
     */
    RunResult arch;
    uint64_t mispredicts = 0;
    uint64_t decodeRedirects = 0;
    uint64_t diseMispredicts = 0; ///< taken unpredicted (DISE/seq) branches
    uint64_t expansionStalls = 0;
    uint64_t missStallCycles = 0; ///< PT/RT fill stalls
    uint64_t icacheMisses = 0;
    uint64_t dcacheMisses = 0;
    uint64_t l2Misses = 0;
    /** Sampled-timing configuration and measurements (default: off). */
    SamplingInfo sampling;

    double
    ipc() const
    {
        return cycles ? double(arch.dynInsts) / double(cycles) : 0.0;
    }

    /**
     * Whole-run cycle estimate: the sampled-CPI extrapolation over all
     * retired instructions when sampling, the exact count otherwise.
     */
    uint64_t
    estimatedCycles() const
    {
        if (!sampling.enabled || sampling.sampledInsts == 0)
            return cycles;
        return uint64_t(sampling.measuredCpi() * double(arch.dynInsts) +
                        0.5);
    }
};

/**
 * Complete timing-simulator checkpoint: the architectural SimSnapshot
 * plus every piece of timing state — cache lines/LRU/stats (held in a
 * standalone same-geometry hierarchy), branch-predictor tables, the
 * accumulated TimingResult, and the pipeline's clock/occupancy
 * scalars. PipelineSim::run is resumable (all loop state lives in
 * members), so restoring a checkpoint and running on is bit-identical
 * — cycles, buckets, counters — to a run that never stopped. This
 * holds on the trace-feed path at any batch boundary and under
 * sampling at any point in the phase schedule (the sampling phase
 * position is part of the scalar state); the trace-feed and sampling
 * *configuration* is not checkpointed — configure the restored
 * simulator the same way before restoring.
 */
struct TimingSnapshot
{
    SimSnapshot core;
    TimingResult result;
    std::unique_ptr<MemHierarchy> mem;
    std::unique_ptr<BranchPredictor> bpred;
    /** Opaque pipeline scalar state (front end, accounting, back end,
     *  sequence-level prediction, sampling phase); filled by
     *  PipelineSim. */
    std::vector<uint64_t> scalars;
};

/** The timing simulator. */
class PipelineSim
{
  public:
    /**
     * @param prog Program image.
     * @param params Machine configuration.
     * @param controller Optional DISE controller (engine placement and
     *                   PT/RT geometry come from its DiseConfig).
     */
    PipelineSim(const Program &prog, const PipelineParams &params,
                DiseController *controller = nullptr);

    /**
     * Run to program exit, a trap, or watchdog expiry.
     *
     * @param maxInsts Dynamic-instruction budget; expiry yields a Hang
     *                 outcome in TimingResult::arch (mirrors
     *                 ExecCore::run).
     * @param maxCycles Cycle budget (0 = unlimited): the timing-level
     *                  watchdog — stops the run once the commit clock
     *                  passes the budget, also a Hang outcome.
     */
    TimingResult run(uint64_t maxInsts = ~uint64_t(0),
                     uint64_t maxCycles = 0);

    /**
     * Select the trace-delivery path (default: the batched trace feed).
     * The step-driven path is the reference: both produce bit-identical
     * cycles, buckets, and component statistics; the feed is simply
     * faster. Sampled timing requires the feed.
     */
    void setTraceFeed(bool enabled) { traceFeed_ = enabled; }
    bool traceFeedEnabled() const { return traceFeed_; }

    /**
     * Configure SMARTS-style sampled timing (see SamplingInfo).
     * @param period Sampling unit in instructions; 0 disables sampling.
     * @param detail Detailed instructions per unit; must be in
     *               [1, period] when period is nonzero. detail == period
     *               degenerates to full detailed timing.
     * Call before run(); re-arming mid-stream restarts the phase
     * schedule at a detailed window.
     */
    void setSampling(uint64_t period, uint64_t detail);

    ExecCore &core() { return core_; }
    MemHierarchy &mem() { return mem_; }
    BranchPredictor &predictor() { return bpred_; }

    /** @name Checkpoint/restore (see TimingSnapshot).
     *
     * Legal at any point between run() calls at an application
     * boundary — in practice: after a run(maxInsts) that stopped on
     * its instruction budget, or before the first run. A restored
     * simulator continues exactly where the checkpoint was taken.
     */
    /// @{
    void saveSnapshot(TimingSnapshot &out) const;
    void restoreSnapshot(const TimingSnapshot &snap);
    /// @}

    /**
     * Register every component's StatGroup (caches, predictor, engine
     * when present, the pipeline's own cycle accounting, and the
     * architectural run counters) into @p reg under hierarchical names,
     * plus the standard derived ratios (miss rates, IPC/CPI). When
     * sampled timing ran, a "sampling" group with the window
     * configuration, measured cycles and the CPI extrapolation is
     * included (never otherwise, so feed and step-driven runs serialize
     * identically). Call after run(); the registry reads the groups
     * lazily, so it must be serialized while this simulator is alive.
     */
    void registerStats(StatsRegistry &reg);

  private:
    /** What raised the pending front-end redirect (for accounting). */
    enum class StallCause : uint8_t { None, Branch, Dise, Drain };

    /** How a run loop stopped (shared epilogue input). */
    struct RunStop
    {
        uint64_t steps = 0;
        bool cycleBudgetExpired = false;
    };

    /**
     * Stall amounts observed while timing the current instruction; at
     * its commit they are charged against the commit-clock advance in
     * priority order and then cleared (unconsumed amounts overlapped
     * with older work and cost nothing). See CycleBreakdown.
     */
    struct PendingStalls
    {
        uint64_t imiss = 0;
        uint64_t dise = 0;
        uint64_t branch = 0;
        uint64_t drain = 0;
        uint64_t dmiss = 0;
        uint64_t hazard = 0;
    };

    /**
     * The per-instruction scalar state of the timing model. The feed's
     * timeBatch copies it into a local, so the record loop keeps it in
     * registers instead of reloading members after every store into the
     * ring buffers and component tables, and writes it back once per
     * batch; the reference, one record per call, works on the member.
     */
    struct Hot
    {
        /** @name Front end. */
        /// @{
        uint64_t feCycle = 0;
        uint32_t feSlots = 0;
        uint64_t curLine = ~uint64_t(0);
        uint64_t pendingRedirect = 0; ///< earliest next fetch cycle
        StallCause redirectCause = StallCause::None;
        /// @}
        PendingStalls pend;
        /** @name Back end. */
        /// @{
        uint64_t instIndex = 0;
        uint64_t dispatchCycleCur = 0;
        uint32_t dispatchSlots = 0;
        uint64_t commitCycleCur = 0;
        uint32_t commitSlots = 0;
        uint64_t lastCommit = 0;
        /**
         * Incremental commit/issue-ring cursors for the kFast hazard
         * walk: derived (instIndex mod ring size) at runFeed entry,
         * never checkpointed. The reference path keeps the plain modulo.
         */
        size_t robIdx = 0;
        size_t rsIdx = 0;
        /// @}
    };

    /**
     * Counters one timeBatch call accumulates in locals and adds to
     * result_ (and, kFast, to the cached component stat cells) once at
     * its end.
     */
    struct Tally
    {
        CycleBreakdown buckets;
        uint64_t mispredicts = 0;
        uint64_t decodeRedirects = 0;
        uint64_t diseMispredicts = 0;
        uint64_t expansionStalls = 0;
        uint64_t missStallCycles = 0;
        /** @name kFast stat-cell counts (see rebindHotCells). */
        /// @{
        uint64_t icAccesses = 0;
        uint64_t dcAccesses = 0;
        uint64_t dcWrites = 0;
        uint64_t predictions = 0;
        uint64_t updates = 0;
        /// @}
    };

    /**
     * @name The timing model proper, shared by both delivery paths.
     *
     * Every function is templated on kFast, which selects only the leaf
     * accessors: kFast = false uses the component's public stat-counting
     * entry points (Cache::access, BranchPredictor::predict/update,
     * DecodedInst::srcRegList) — the frozen reference; kFast = true uses
     * the inline hot variants plus the batch tally of the cached
     * StatGroup cells, leaving every timing decision byte-for-byte the
     * same. Identity between the two paths is by construction, not by
     * parallel maintenance. The helpers take the batch's local state by
     * reference and are forced inline, so it never escapes to memory.
     */
    /// @{
    /**
     * Time @p n consecutive dynamic instructions, each through the whole
     * per-instruction pass (frontend → dispatch → issue → complete →
     * commit → accounting → control resolution): the one model body of
     * the feed (a ring batch), the sampled loop (a detail run) and the
     * step-driven reference (n = 1).
     */
    template <bool kFast> void timeBatch(const DynInst *recs, size_t n);

    /** Front-end delivery: returns the decode cycle of @p dyn. */
    template <bool kFast>
    uint64_t frontendT(Hot &h, Tally &c, const DynInst &dyn);

    /** Start a new fetch group at @p cycle fetching @p pc. */
    template <bool kFast>
    void newFetchGroupT(Hot &h, Tally &c, uint64_t cycle, Addr pc,
                        bool accessICache);

    /**
     * Evaluate a resolved control transfer against its prediction,
     * charging redirects and training the predictor.
     */
    template <bool kFast>
    void resolveControlT(Hot &h, Tally &c, Addr pc, OpClass cls,
                         bool taken, Addr target, uint64_t resolveCycle,
                         uint64_t decodeCycle,
                         const BranchPredictor::Prediction &pred);

    /** Leaf accessors (see the group comment). */
    template <bool kFast> uint32_t fetchAccessT(Tally &c, Addr pc);
    template <bool kFast>
    uint32_t dataAccessT(Tally &c, Addr addr, bool write);
    template <bool kFast>
    BranchPredictor::Prediction predictT(Tally &c, Addr pc, OpClass cls,
                                         Addr fallThrough);
    template <bool kFast>
    void updateT(Tally &c, Addr pc, OpClass cls, bool taken, Addr target);
    /// @}

    /** The reference loop: ExecCore::step per instruction. */
    RunStop runStepDriven(uint64_t maxInsts, uint64_t maxCycles);

    /** The batched loop: ExecCore::fillTrace, timing or warming each
     *  record; owns the sampling phase schedule. */
    RunStop runFeed(uint64_t maxInsts, uint64_t maxCycles);

    /**
     * Advance the sampling phase schedule past @p dyn. Phase switches
     * wait for an application boundary, so a replacement sequence is
     * never split across modes. @return True when @p dyn is timed in
     * detail, false when it is functionally warmed.
     */
    bool samplePhase(const DynInst &dyn);

    /**
     * Functionally warm one instruction (sampling gaps): replicate
     * exactly the I-cache, D-cache and branch-predictor traffic the
     * detailed model would generate — including redirect-induced
     * refetches and sequence-level prediction — while advancing the
     * cycle clock by nothing.
     */
    void warmInst(const DynInst &dyn);

    /**
     * Re-resolve the cached StatGroup cell pointers the kFast leaves
     * bump. Must run after anything that replaces the components' stat
     * maps (construction, snapshot restore).
     */
    void rebindHotCells();

    /** Fetch-line number of @p pc (line-crossing detection). */
    uint64_t
    fetchLine(Addr pc) const
    {
        return feLinePow2_ ? (pc >> feLineShift_)
                           : pc / mem_.params().lineBytes;
    }

    static void raiseRedirect(Hot &h, uint64_t cycle, StallCause cause);
    uint32_t instLatency(const DynInst &dyn) const;

    PipelineParams params_;
    DiseController *controller_;
    ExecCore core_;
    MemHierarchy mem_;
    BranchPredictor bpred_;
    TimingResult result_;

    Hot hot_;
    /** @name Static machine shape derived at construction. */
    /// @{
    uint32_t feDepth_ = 7;
    bool stallPerExpansion_ = false;
    uint32_t feLineShift_ = 0;
    bool feLinePow2_ = false;
    /// @}

    StatGroup pipeStats_{"pipeline"};
    StatGroup runStats_{"run"};
    StatGroup samplingStats_{"sampling"};

    /** @name Back-end occupancy and dataflow state. */
    /// @{
    std::array<uint64_t, kNumLogicalRegs> regReady_{};
    std::vector<uint64_t> commitRing_; ///< ROB occupancy
    std::vector<uint64_t> issueRing_;  ///< RS occupancy
    /// @}

    /** @name Per-expansion (sequence-level) prediction state.
     *  Shared by detailed timing and functional warming (a sequence is
     *  never split across a phase switch, so exactly one mode owns it
     *  at a time). */
    /// @{
    OpClass seqPredCls_ = OpClass::Nop;
    BranchPredictor::Prediction seqPred_;
    Addr seqTriggerPC_ = 0;
    bool seqTrigTaken_ = false;
    Addr seqTrigTarget_ = 0;
    bool seqRedirected_ = false;
    Addr seqRedirTarget_ = 0;
    uint64_t seqResolve_ = 0;
    /// @}

    /** @name Trace-feed and sampling state. */
    /// @{
    bool traceFeed_ = true;     ///< delivery path selector (config)
    uint64_t samplePeriod_ = 0; ///< 0 = sampling off (config)
    uint64_t sampleDetail_ = 0; ///< detailed insts per period (config)
    bool phaseDetail_ = true;   ///< current phase: detailed vs warming
    uint64_t phaseLeft_ = 0;    ///< instructions left in current phase
    /** Commit clock at the last deadline-cancel poll: the step-driven
     *  loop also polls when the clock jumps far between the fixed
     *  instruction-stride polls (miss-heavy regions advance many cycles
     *  per instruction, which would otherwise stretch the wall-clock
     *  poll interval). */
    uint64_t lastCancelPollCommit_ = 0;
    /**
     * Static per-instruction commit-clock advance bound: on the feed
     * path a batch of n records is only timed when the cycle budget has
     * n * bound headroom, so the budget check can stay per-batch and
     * still stop on exactly the same instruction as the per-step
     * reference (the tail runs record-at-a-time). Asserted after every
     * bounded batch.
     */
    uint64_t perInstCycleBound_ = 0;
    std::vector<DynInst> ring_; ///< feed batch buffer (lazy)
    /** Cached component stat cells (rebindHotCells). */
    uint64_t *icAccCell_ = nullptr;
    uint64_t *dcAccCell_ = nullptr;
    uint64_t *dcWrCell_ = nullptr;
    uint64_t *bpPredCell_ = nullptr;
    uint64_t *bpUpdCell_ = nullptr;
    /// @}
};

} // namespace dise

#endif // DISE_PIPELINE_PIPELINE_HPP
