#include "src/pipeline/pipeline.hpp"

#include <algorithm>

#include "src/common/bits.hpp"
#include "src/common/logging.hpp"

namespace dise {

namespace {

/**
 * Records per ExecCore::fillTrace batch on the trace-feed path. Each
 * batch costs a fill prologue and epilogue, a switch between the two
 * loops, and (when sampling) a phase split, so the batch is large: on a
 * 4-vCPU Xeon VM the timing_sweep operations ran 0.88–0.93x the time of
 * 64-record batches at 1024–16384 records, with identical cycles,
 * buckets and counts. The ring (kFeedBatch * sizeof(DynInst) = 64 KB)
 * stays L2-resident and below glibc's 128 KB mmap threshold: a 256 KB
 * ring, allocated and freed once per timing run, raised that threshold
 * and grew serve_mix's peak RSS from ~20 MB to ~60 MB.
 */
constexpr size_t kFeedBatch = 1024;

/** Commit-clock advance between deadline-cancel polls (step path). */
constexpr uint64_t kCancelPollCycles = 0x10000;

/** Warming's current-line latch while a redirect is pending (no fetch
 *  line is this large). */
constexpr uint64_t kRedirect = ~uint64_t(1);

/**
 * Warming's current-line latch after resolving a control transfer
 * predicted as @p pred: a mispredict raises a redirect, a correctly
 * predicted taken branch starts a new fetch group, and a pending
 * redirect stays pending (as in PipelineSim::resolveControl).
 */
uint64_t
warmRedirect(uint64_t curLine, const BranchPredictor::Prediction &pred,
             bool taken, Addr target)
{
    if (pred.taken != taken ||
        (taken && (!pred.targetKnown || pred.target != target)))
        return kRedirect;
    return taken && curLine != kRedirect ? ~uint64_t(0) : curLine;
}

/**
 * Claim one of @p width slots of an in-order stage (dispatch, commit)
 * at @p cycle, no earlier than the stage's current cycle @p cur: a full
 * current cycle moves the claim to the next one. Branch-free; returns
 * the cycle granted.
 */
DISE_ALWAYS_INLINE uint64_t
claimSlot(uint64_t cycle, uint64_t &cur, uint32_t &slots, uint32_t width)
{
    const bool same = cycle == cur;
    const bool full = same && slots >= width;
    cycle += full;
    slots = same && !full ? slots + 1 : 1;
    cur = cycle;
    return cycle;
}

} // namespace

PipelineSim::PipelineSim(const Program &prog, const PipelineParams &params,
                         DiseController *controller)
    : params_(params), controller_(controller), core_(prog, controller),
      mem_(params.mem), bpred_(params.bpred)
{
    feDepth_ = params_.frontendDepth;
    uint64_t missPenMax = 0;
    if (controller_) {
        const DiseConfig &cfg = controller_->engine().config();
        if (cfg.placement == DisePlacement::Pipe)
            feDepth_ += 1;
        stallPerExpansion_ = cfg.placement == DisePlacement::Stall;
        missPenMax = std::max<uint64_t>(cfg.missPenalty,
                                        cfg.composedMissPenalty);
    }
    commitRing_.assign(params_.robEntries, 0);
    issueRing_.assign(params_.rsEntries, 0);
    regReady_.fill(0);
    latency_.fill(params_.intAluLatency);
    latency_[size_t(OpClass::IntMult)] = params_.intMultLatency;
    latency_[size_t(OpClass::Syscall)] = params_.syscallLatency;

    const uint32_t lb = params_.mem.lineBytes;
    feLinePow2_ = lb != 0 && isPow2(lb);
    feLineShift_ = feLinePow2_ ? log2i(lb) : 0;

    // Worst-case commit-clock advance for one instruction: a PT/RT fill
    // stall, plus an I-side and a D-side full miss chain (each at most
    // L1 + fill-from-L2 + fill-from-memory, doubled for the writeback
    // recursion), plus the deepest redirect refill and the longest
    // execution latency, all doubled with fixed slop so the bound stays
    // safe against bandwidth/occupancy rounding. Only batch sizing near
    // a cycle budget uses it; it is asserted, never trusted silently.
    const MemHierarchyParams &m = params_.mem;
    const uint64_t missChain =
        uint64_t(m.l1Latency) + 2 * (uint64_t(m.l2Latency) + m.memLatency);
    perInstCycleBound_ =
        2 * (missPenMax + 2 * missChain + feDepth_ +
             params_.syscallLatency + params_.intMultLatency +
             params_.decodeRedirectPenalty + params_.width + 16);
}

void
PipelineSim::setSampling(uint64_t period, uint64_t detail)
{
    if (period == 0) {
        samplePeriod_ = 0;
        sampleDetail_ = 0;
        phaseDetail_ = true;
        phaseLeft_ = 0;
        result_.sampling = SamplingInfo{};
        return;
    }
    DISE_ASSERT(detail > 0 && detail <= period,
                "sampling detail must be in [1, period]");
    samplePeriod_ = period;
    sampleDetail_ = detail;
    phaseDetail_ = true;
    phaseLeft_ = detail;
    result_.sampling.enabled = true;
    result_.sampling.period = period;
    result_.sampling.detail = detail;
}

// ---------------------------------------------------------------------
// The timing model proper (shared between both delivery paths).
// ---------------------------------------------------------------------

DISE_ALWAYS_INLINE void
PipelineSim::newFetchGroup(Hot &h, uint64_t cycle, Addr pc,
                           bool accessICache)
{
    h.feCycle = std::max(h.feCycle, cycle);
    h.feSlots = 0;
    const uint64_t line = fetchLine(pc);
    if (accessICache || line != h.curLine) {
        const uint32_t lat = mem_.fetchAccess(pc);
        if (lat > params_.mem.l1Latency) {
            h.feCycle += lat - params_.mem.l1Latency;
            h.pend.imiss += lat - params_.mem.l1Latency;
        }
        h.curLine = line;
    }
}

DISE_ALWAYS_INLINE void
PipelineSim::raiseRedirect(Hot &h, uint64_t cycle, StallCause cause)
{
    if (cycle > h.pendingRedirect) {
        h.pendingRedirect = cycle;
        h.redirectCause = cause;
    }
}

DISE_ALWAYS_INLINE uint64_t
PipelineSim::frontend(Hot &h, Tally &c, const DynInst &dyn)
{
    const bool appBoundary = !dyn.expanded || dyn.firstOfSeq;

    if (appBoundary) {
        // Honour any pending redirect (mispredict resolution, flush).
        if (h.pendingRedirect > 0) {
            if (h.pendingRedirect > h.feCycle) {
                const uint64_t wait = h.pendingRedirect - h.feCycle;
                switch (h.redirectCause) {
                  case StallCause::Branch:
                    h.pend.branch += wait;
                    break;
                  case StallCause::Dise:
                    h.pend.dise += wait;
                    break;
                  case StallCause::Drain:
                    h.pend.drain += wait;
                    break;
                  case StallCause::None:
                    break;
                }
            }
            newFetchGroup(h, std::max(h.pendingRedirect, h.feCycle), dyn.pc,
                          true);
            h.pendingRedirect = 0;
            h.redirectCause = StallCause::None;
        }
        // PT/RT miss: flush the front end and stall for the fill.
        if (dyn.missPenalty > 0) {
            c.missStallCycles += dyn.missPenalty;
            h.pend.dise += dyn.missPenalty;
            newFetchGroup(h, h.feCycle + dyn.missPenalty, dyn.pc, true);
        }
        // Expansion stall placement: one bubble per expansion.
        if (dyn.firstOfSeq && stallPerExpansion_) {
            ++c.expansionStalls;
            h.pend.dise += 1;
            h.feCycle += 1;
        }
        const uint64_t line = fetchLine(dyn.pc);
        if (line != h.curLine) {
            // Line crossing: new fetch group with an I-cache access.
            newFetchGroup(h, h.feSlots > 0 ? h.feCycle + 1 : h.feCycle,
                          dyn.pc, true);
        } else if (h.feSlots >= params_.width) {
            newFetchGroup(h, h.feCycle + 1, dyn.pc, false);
        }
    } else {
        // Replacement instruction: consumes a decode slot, no fetch.
        if (h.feSlots >= params_.width) {
            h.feCycle += 1;
            h.feSlots = 0;
        }
    }

    ++h.feSlots;
    return h.feCycle;
}

DISE_ALWAYS_INLINE void
PipelineSim::resolveControl(Hot &h, Tally &c, Addr pc, OpClass cls,
                            bool taken, Addr target, uint64_t resolveCycle,
                            uint64_t decodeCycle,
                            const BranchPredictor::Prediction &pred)
{
    const bool wrongDir = pred.taken != taken;
    const bool wrongTarget =
        taken && (!pred.targetKnown || pred.target != target);
    if (wrongDir || wrongTarget) {
        if ((cls == OpClass::UncondBranch || cls == OpClass::Call) &&
            !wrongDir) {
            // Direct target computable at decode: cheap redirect.
            ++c.decodeRedirects;
            raiseRedirect(h, decodeCycle + params_.decodeRedirectPenalty,
                          StallCause::Branch);
        } else {
            ++c.mispredicts;
            raiseRedirect(h, resolveCycle + 1, StallCause::Branch);
        }
    } else if (taken) {
        // Correctly predicted taken: fetch continues at the target in
        // the next cycle.
        h.feCycle += 1;
        h.feSlots = 0;
        h.curLine = ~uint64_t(0);
    }
    train(pc, cls, taken, target);
}

DISE_ALWAYS_INLINE void
PipelineSim::train(Addr pc, OpClass cls, bool taken, Addr target)
{
    if (cls != OpClass::Nop) {
        bpred_.update(pc, cls, taken, target);
        if (cls == OpClass::Call || cls == OpClass::CallIndirect)
            bpred_.pushReturn(pc + 4);
    }
}

DISE_ALWAYS_INLINE void
PipelineSim::seqOpen(const DynInst &dyn)
{
    seq_ = SeqPrediction{};
    seq_.cls = dyn.seqPredClass;
    seq_.triggerPC = dyn.pc;
    if (seq_.cls != OpClass::Nop) {
        seq_.pred = bpred_.predict(dyn.pc, seq_.cls, dyn.pc + 4);
    } else {
        seq_.pred.target = dyn.pc + 4;
        seq_.pred.targetKnown = true;
    }
}

DISE_ALWAYS_INLINE void
PipelineSim::addTally(const Tally &c)
{
    CycleBreakdown &b = result_.buckets;
    b.issue += c.buckets.issue;
    b.imissStall += c.buckets.imissStall;
    b.dmissStall += c.buckets.dmissStall;
    b.branchFlush += c.buckets.branchFlush;
    b.diseStall += c.buckets.diseStall;
    b.hazard += c.buckets.hazard;
    b.drain += c.buckets.drain;
    result_.mispredicts += c.mispredicts;
    result_.decodeRedirects += c.decodeRedirects;
    result_.diseMispredicts += c.diseMispredicts;
    result_.expansionStalls += c.expansionStalls;
    result_.missStallCycles += c.missStallCycles;
}

template <bool kFast>
void
PipelineSim::timeBatch(const DynInst *recs, size_t n)
{
    // The feed times a batch on a register-resident copy (see Hot),
    // written back once after the last record; the reference times one
    // record per call, where copying the state in and out would cost
    // more than it saves, and works on the members.
    Hot local;
    Hot &h = kFast ? (local = hot_) : hot_;
    Tally c;
    uint64_t *const regReady = regReady_.data();
    uint64_t *const commitRing = commitRing_.data();
    uint64_t *const issueRing = issueRing_.data();
    const uint32_t width = params_.width;
    const uint32_t robEntries = params_.robEntries;
    const uint32_t rsEntries = params_.rsEntries;
    const uint32_t l1Latency = params_.mem.l1Latency;
    const uint64_t feDepth = feDepth_;
    const uint32_t *const latency = latency_.data();

    for (const DynInst *rec = recs, *const end = recs + n; rec != end;
         ++rec) {
        const DynInst &dyn = *rec;

        // ---- Front end: decode timestamp. ----
        const uint64_t decodeCycle = frontend(h, c, dyn);

        // ---- Dispatch. ----
        uint64_t dispatch = decodeCycle + feDepth;
        // Ring slots for this instruction. The feed path keeps
        // incremental wraparound cursors (a runtime-divisor modulo
        // costs measurable time per instruction); the reference derives
        // the identical slot the original way.
        const size_t robIdx =
            kFast ? h.robIdx : size_t(h.instIndex % robEntries);
        const size_t rsIdx =
            kFast ? h.rsIdx : size_t(h.instIndex % rsEntries);
        // The ROB entry must be free, then the RS entry (freed at
        // issue). Each wait is a hazard; charging a zero wait changes
        // nothing and keeps both selects branch-free.
        const uint64_t robFree = std::max(dispatch, commitRing[robIdx]);
        const uint64_t rsFree = std::max(robFree, issueRing[rsIdx] + 1);
        h.pend.hazard += rsFree - dispatch;
        // In-order dispatch, width per cycle.
        dispatch = claimSlot(std::max(rsFree, h.dispatchCycleCur),
                             h.dispatchCycleCur, h.dispatchSlots, width);

        // ---- Issue: dataflow-limited. ----
        // The zero register is never a destination, so its ready time
        // stays 0: neither the walk nor the descriptor's padding needs
        // to skip it.
        uint64_t srcReady = 0;
        if constexpr (kFast) {
            // Pairwise, so GCC selects with cmov (a max over an
            // initializer list compiles to a branchy max_element).
            const TimingRegs &r = dyn.regs;
            srcReady = std::max(regReady[r.src[0]], regReady[r.src[1]]);
            srcReady = std::max(srcReady, regReady[r.src[2]]);
        } else {
            dyn.inst.visitSrcRegs([&srcReady, regReady](RegField, RegIndex s) {
                srcReady = std::max(srcReady, regReady[s]);
            });
        }
        const uint64_t issue = std::max(dispatch + 1, srcReady);
        h.pend.hazard += issue - (dispatch + 1);
        issueRing[rsIdx] = issue;

        // ---- Complete. ----
        uint64_t complete = issue + latency[size_t(dyn.inst.cls)];
        if (dyn.isMem && !dyn.isStore) {
            // Loads: AGU + D-cache access.
            const uint32_t lat = mem_.dataAccess(dyn.memAddr, false);
            if (lat > l1Latency)
                h.pend.dmiss += lat - l1Latency;
            complete = issue + 1 + lat;
        }
        const RegIndex dest = kFast ? dyn.regs.dest : dyn.inst.destReg();
        if (dest != kZeroReg)
            regReady[dest] = complete;

        // ---- Commit: in order, width per cycle. ----
        const uint64_t prevCommitClock = h.lastCommit;
        const uint64_t commit =
            claimSlot(std::max(complete + 1, h.lastCommit), h.lastCommit,
                      h.commitSlots, width);
        commitRing[robIdx] = commit;

        // ---- Cycle accounting (see CycleBreakdown): charge this
        // instruction's commit-clock advance to its observed stall
        // causes in priority order; the remainder is base issue work.
        // Amounts left unconsumed overlapped older work — drop them.
        {
            uint64_t remaining = commit - prevCommitClock;
            // Most instructions observe no stall at all: every charge
            // below would be a no-op, so short-circuit straight to the
            // issue bucket (bit-identical — charging zeros changes
            // nothing).
            const PendingStalls &p = h.pend;
            const uint64_t anyStall = p.dise | p.imiss | p.branch |
                                      p.drain | p.dmiss | p.hazard;
            if (anyStall == 0) {
                c.buckets.issue += remaining;
            } else {
                const auto charge = [&remaining](uint64_t &bucket,
                                                 uint64_t amount) {
                    const uint64_t take = std::min(remaining, amount);
                    bucket += take;
                    remaining -= take;
                };
                charge(c.buckets.diseStall, p.dise);
                charge(c.buckets.imissStall, p.imiss);
                charge(c.buckets.branchFlush, p.branch);
                charge(c.buckets.drain, p.drain);
                charge(c.buckets.dmissStall, p.dmiss);
                charge(c.buckets.hazard, p.hazard);
                c.buckets.issue += remaining;
                h.pend = PendingStalls{};
            }
        }

        if (dyn.isStore) {
            // Store buffer: D-cache updated at commit, off the critical
            // path.
            mem_.dataAccess(dyn.memAddr, true);
        }
        if (dyn.isSyscall) {
            // Syscalls serialize the pipeline.
            raiseRedirect(h, commit + 1, StallCause::Drain);
        }

        // ---- Control flow and prediction. ----
        //
        // The front end predicts once per fetched (application-level)
        // PC. For an expansion, that single prediction covers the whole
        // replacement sequence: internal branches are never predicted
        // separately (paper Section 2.2) — a sequence whose outcome
        // differs from the trigger-PC prediction costs a mispredict
        // resolved when its deciding branch executes.
        if (!dyn.expanded) {
            if (dyn.isAppControl) {
                const auto pred =
                    bpred_.predict(dyn.pc, dyn.inst.cls, dyn.pc + 4);
                resolveControl(h, c, dyn.pc, dyn.inst.cls, dyn.taken,
                               dyn.actualTarget, complete, decodeCycle, pred);
            }
        } else {
            if (dyn.firstOfSeq) {
                seqOpen(dyn);
                seq_.resolve = complete;
            }
            if (dyn.inst.isDiseBranch() && dyn.taken) {
                // Taken DISE branch: fetch restarts at the same PC, new
                // DISEPC — interpreted as a misprediction.
                ++c.diseMispredicts;
                raiseRedirect(h, complete + 1, StallCause::Dise);
            }
            if (dyn.isAppControl) {
                seq_.resolve = std::max(seq_.resolve, complete);
                if (dyn.taken)
                    seq_.noteTaken(dyn);
            }
            if (dyn.lastOfSeq) {
                resolveControl(h, c, seq_.triggerPC, seq_.cls, seq_.taken(),
                               seq_.nextPC(dyn),
                               std::max(seq_.resolve, complete), decodeCycle,
                               seq_.pred);
            }
        }

        ++h.instIndex;
        if constexpr (kFast) {
            if (++h.robIdx == robEntries)
                h.robIdx = 0;
            if (++h.rsIdx == rsEntries)
                h.rsIdx = 0;
        }
    }

    if constexpr (kFast)
        hot_ = h;
    addTally(c);
}

// ---------------------------------------------------------------------
// Functional warming (sampling gaps).
// ---------------------------------------------------------------------

void
PipelineSim::warmBatch(const DynInst *recs, size_t n)
{
    // The current-line latch lives in a local for the whole run, as
    // Hot does in timeBatch. A redirect still pending from a detail
    // window's last records becomes the latch's pending redirect here;
    // left pending, the next window would honour it with a stale cycle.
    uint64_t curLine = hot_.curLine;
    if (hot_.pendingRedirect != 0) {
        curLine = kRedirect;
        hot_.pendingRedirect = 0;
        hot_.redirectCause = StallCause::None;
    }
    for (const DynInst *rec = recs, *const end = recs + n; rec != end;
         ++rec) {
        const DynInst &dyn = *rec;

        // I-side: the detailed front end touches the I-cache once per
        // fetched line plus once per redirect target; a redirect (branch
        // flush, PT/RT fill, syscall drain) re-accesses even a same-line
        // target, and a PT/RT fill that lands on a pending redirect
        // refetches after the redirect's own fetch group. Model that
        // with the current-line latch: kRedirect marks a pending
        // redirect, ~0 a new fetch group after a correctly predicted
        // taken branch (as in resolveControlT); both force an access on
        // the next application boundary.
        if (!dyn.expanded || dyn.firstOfSeq) {
            if (dyn.missPenalty > 0) {
                if (curLine == kRedirect)
                    mem_.fetchAccess(dyn.pc);
                curLine = ~uint64_t(0); // PT/RT fill flushes front end
            }
            const uint64_t line = fetchLine(dyn.pc);
            if (line != curLine) {
                mem_.fetchAccess(dyn.pc);
                curLine = line;
            }
        }

        // D-side: loads and stores in program order, exactly as the
        // detailed model orders its calls (loads at issue, stores at
        // commit, both within the same per-instruction pass).
        if (dyn.isMem)
            mem_.dataAccess(dyn.memAddr, dyn.isStore);

        // Branch predictor: replicate the detailed model's predict/
        // update/RAS traffic, including sequence-level prediction for
        // expansions. A refetch happens iff the branch was taken (actual
        // redirect or correctly predicted taken) or predicted taken
        // (wrong-direction flush) — in all three cases the detailed
        // front end starts a new fetch group with an unconditional
        // I-cache access.
        if (!dyn.expanded) {
            if (dyn.isAppControl) {
                const auto pred =
                    bpred_.predict(dyn.pc, dyn.inst.cls, dyn.pc + 4);
                train(dyn.pc, dyn.inst.cls, dyn.taken, dyn.actualTarget);
                curLine = warmRedirect(curLine, pred, dyn.taken,
                                       dyn.actualTarget);
            }
        } else {
            if (dyn.firstOfSeq)
                seqOpen(dyn);
            if (dyn.inst.isDiseBranch() && dyn.taken)
                curLine = kRedirect; // unpredicted redirect, refetch
            if (dyn.isAppControl && dyn.taken)
                seq_.noteTaken(dyn);
            if (dyn.lastOfSeq) {
                train(seq_.triggerPC, seq_.cls, seq_.taken(),
                      seq_.nextPC(dyn));
                curLine = warmRedirect(curLine, seq_.pred, seq_.taken(),
                                       seq_.nextPC(dyn));
            }
        }
        if (dyn.isSyscall)
            curLine = kRedirect; // drain forces a refetch
    }
    hot_.curLine = curLine;
}

// ---------------------------------------------------------------------
// Delivery loops.
// ---------------------------------------------------------------------

PipelineSim::RunStop
PipelineSim::runStepDriven(uint64_t maxInsts, uint64_t maxCycles)
{
    DynInst dyn;
    RunStop stop;
    while (stop.steps < maxInsts && core_.step(dyn)) {
        ++stop.steps;
        timeBatch<false>(&dyn, 1);
        if (maxCycles != 0 && hot_.lastCommit > maxCycles) {
            stop.cycleBudgetExpired = true;
            break;
        }
        // External wall-clock deadline (the serving daemon): polled at
        // the same instruction cadence as the functional slow path, and
        // additionally whenever the commit clock has advanced far since
        // the last poll — miss-heavy regions cover many cycles (and
        // much wall time) per instruction, which would otherwise
        // stretch the poll interval. A trip is the cycle-watchdog
        // outcome.
        if ((stop.steps & 0x3ff) == 0 ||
            hot_.lastCommit - lastCancelPollCommit_ >=
                kCancelPollCycles) {
            lastCancelPollCommit_ = hot_.lastCommit;
            if (core_.cancelRequested()) {
                stop.cycleBudgetExpired = true;
                break;
            }
        }
    }
    return stop;
}

size_t
PipelineSim::samplePhaseRun(const DynInst *recs, size_t n)
{
    const auto appBoundary = [](const DynInst &d) {
        return !d.expanded || d.firstOfSeq;
    };
    if (phaseLeft_ == 0 && appBoundary(recs[0])) {
        // Detail -> warm -> detail; detail == period stays in detail.
        const uint64_t warmLen = samplePeriod_ - sampleDetail_;
        phaseDetail_ = !phaseDetail_ || warmLen == 0;
        phaseLeft_ = phaseDetail_ ? sampleDetail_ : warmLen;
    }
    size_t len = size_t(std::min<uint64_t>(n, phaseLeft_));
    phaseLeft_ -= len;
    // A used-up phase runs on to the next application boundary.
    while (len < n && !appBoundary(recs[len]))
        ++len;
    return len;
}

PipelineSim::RunStop
PipelineSim::runFeed(uint64_t maxInsts, uint64_t maxCycles)
{
    if (ring_.empty())
        ring_.resize(kFeedBatch);
    const bool sampling = samplePeriod_ != 0;
    // Derived ring cursors for the kFast structural-hazard walk (see
    // Hot).
    hot_.robIdx = size_t(hot_.instIndex % params_.robEntries);
    hot_.rsIdx = size_t(hot_.instIndex % params_.rsEntries);
    RunStop stop;
    while (stop.steps < maxInsts) {
        uint64_t want =
            std::min<uint64_t>(kFeedBatch, maxInsts - stop.steps);
        bool bounded = false;
        if (maxCycles != 0 && phaseDetail_) {
            // Size the batch so a full batch cannot overshoot the
            // budget; once the remaining headroom is under one
            // per-instruction bound — or gone, when a run resumes after
            // a cycle-budget stop — run record-at-a-time so the budget
            // check below stops on exactly the same instruction as the
            // per-step reference.
            const uint64_t headroom = hot_.lastCommit < maxCycles
                                          ? maxCycles - hot_.lastCommit
                                          : 0;
            const uint64_t allowed = headroom / perInstCycleBound_;
            if (allowed == 0) {
                want = 1;
            } else {
                want = std::min(want, allowed);
                bounded = true;
            }
        }
        const size_t n = core_.fillTrace(ring_.data(), size_t(want));
        if (n == 0) {
            // Program exit/trap, or a cancel before any progress.
            if (core_.cancelRequested())
                stop.cycleBudgetExpired = true;
            break;
        }
        const DynInst *const ring = ring_.data();
        if (!sampling) {
            timeBatch<true>(ring, n);
        } else {
            // Split the batch into same-phase runs: each detail run is
            // one timeBatch, each warm run one warmBatch.
            for (size_t i = 0; i < n;) {
                const size_t len = samplePhaseRun(ring + i, n - i);
                if (phaseDetail_) {
                    timeBatch<true>(ring + i, len);
                    result_.sampling.sampledInsts += len;
                } else {
                    warmBatch(ring + i, len);
                    result_.sampling.warmedInsts += len;
                }
                i += len;
            }
        }
        stop.steps += n;
        if (maxCycles != 0) {
            if (bounded) {
                // The batch was sized from perInstCycleBound_; a trip
                // here means the bound is wrong — fail loudly rather
                // than stop on a different instruction than the
                // reference would.
                DISE_ASSERT(hot_.lastCommit <= maxCycles,
                            "per-instruction cycle bound violated by a "
                            "trace-feed batch");
            } else if (hot_.lastCommit > maxCycles) {
                stop.cycleBudgetExpired = true;
                break;
            }
        }
        // Deadline poll once per batch. The fill polls on its own at
        // block boundaries (ExecCore::cancelPollDue, every ~1K
        // retirements) and returns early, so a batch this large does
        // not stretch the cancel latency.
        lastCancelPollCommit_ = hot_.lastCommit;
        if (core_.cancelRequested()) {
            stop.cycleBudgetExpired = true;
            break;
        }
    }
    return stop;
}

TimingResult
PipelineSim::run(uint64_t maxInsts, uint64_t maxCycles)
{
    DISE_ASSERT(samplePeriod_ == 0 || traceFeed_,
                "sampled timing requires the trace feed");
    const RunStop stop = traceFeed_ ? runFeed(maxInsts, maxCycles)
                                    : runStepDriven(maxInsts, maxCycles);

    result_.cycles = hot_.lastCommit;
    result_.arch = core_.result();
    // Watchdog expiry (instruction cap or cycle budget) with the core
    // still live is a Hang outcome, mirroring ExecCore::run.
    if (result_.arch.outcome == RunOutcome::Running &&
        (stop.cycleBudgetExpired || stop.steps >= maxInsts)) {
        result_.arch.outcome = RunOutcome::Hang;
    }
    result_.icacheMisses = mem_.icache().misses();
    result_.dcacheMisses = mem_.dcache().misses();
    result_.l2Misses = mem_.l2().misses();
    if (result_.sampling.enabled) {
        // Warming never advances the commit clock, so the cycle count
        // is exactly the cycles measured inside the detailed windows.
        result_.sampling.measuredCycles = hot_.lastCommit;
    }
    // The accounting identity: every commit-clock advance was charged
    // to exactly one bucket, so the buckets partition the cycle count.
    DISE_ASSERT(result_.buckets.total() == result_.cycles,
                strFormat("cycle buckets sum to %llu, not total %llu",
                          (unsigned long long)result_.buckets.total(),
                          (unsigned long long)result_.cycles));
    return result_;
}

void
PipelineSim::saveSnapshot(TimingSnapshot &out) const
{
    core_.saveSnapshot(out.core);
    out.result = result_;
    out.mem = std::make_unique<MemHierarchy>(params_.mem);
    out.mem->adoptState(mem_);
    out.bpred = std::make_unique<BranchPredictor>(bpred_);
    out.hot = hot_;
    out.seq = seq_;
    out.phaseDetail = phaseDetail_;
    out.phaseLeft = phaseLeft_;
    out.lastCancelPollCommit = lastCancelPollCommit_;
    out.regReady = regReady_;
    out.commitRing = commitRing_;
    out.issueRing = issueRing_;
}

void
PipelineSim::restoreSnapshot(const TimingSnapshot &snap)
{
    DISE_ASSERT(snap.commitRing.size() == commitRing_.size() &&
                    snap.issueRing.size() == issueRing_.size(),
                "timing snapshot of a machine with another ROB or RS size");
    core_.restoreSnapshot(snap.core);
    result_ = snap.result;
    mem_.adoptState(*snap.mem);
    bpred_ = *snap.bpred;
    hot_ = snap.hot;
    seq_ = snap.seq;
    phaseDetail_ = snap.phaseDetail;
    phaseLeft_ = snap.phaseLeft;
    lastCancelPollCommit_ = snap.lastCancelPollCommit;
    regReady_ = snap.regReady;
    commitRing_ = snap.commitRing;
    issueRing_ = snap.issueRing;
}

void
PipelineSim::registerStats(StatsRegistry &reg)
{
    // Materialize the pipeline's own counters from the timing result.
    pipeStats_.set("cycles", result_.cycles);
    pipeStats_.set("bucket.issue", result_.buckets.issue);
    pipeStats_.set("bucket.imiss_stall", result_.buckets.imissStall);
    pipeStats_.set("bucket.dmiss_stall", result_.buckets.dmissStall);
    pipeStats_.set("bucket.branch_flush", result_.buckets.branchFlush);
    pipeStats_.set("bucket.dise_stall", result_.buckets.diseStall);
    pipeStats_.set("bucket.hazard", result_.buckets.hazard);
    pipeStats_.set("bucket.drain", result_.buckets.drain);
    pipeStats_.set("mispredicts", result_.mispredicts);
    pipeStats_.set("decode_redirects", result_.decodeRedirects);
    pipeStats_.set("dise_mispredicts", result_.diseMispredicts);
    pipeStats_.set("expansion_stalls", result_.expansionStalls);
    pipeStats_.set("miss_stall_cycles", result_.missStallCycles);

    // Architectural run counters (trap/outcome scalars are strings and
    // are added by the caller, e.g. diserun, via reg.set()).
    const RunResult &arch = result_.arch;
    runStats_.set("dyn_insts", arch.dynInsts);
    runStats_.set("app_insts", arch.appInsts);
    runStats_.set("dise_insts", arch.diseInsts);
    runStats_.set("expansions", arch.expansions);
    runStats_.set("loads", arch.loads);
    runStats_.set("stores", arch.stores);
    runStats_.set("acf_detections", arch.acfDetections);

    reg.add("pipeline", &pipeStats_);
    reg.add("run", &runStats_);
    reg.add("mem.l1i", &mem_.icache().stats());
    reg.add("mem.l1d", &mem_.dcache().stats());
    reg.add("mem.l2", &mem_.l2().stats());
    reg.add("bpred", &bpred_.stats());
    if (controller_)
        reg.add("dise", &controller_->engine().stats());
    if (core_.fusionEnabled())
        reg.add("acf.fusion", &core_.fusionStatGroup());

    // Only present for sampled runs: full-detail feed and step-driven
    // runs must serialize identically.
    if (result_.sampling.enabled) {
        const SamplingInfo &s = result_.sampling;
        samplingStats_.set("period", s.period);
        samplingStats_.set("detail", s.detail);
        samplingStats_.set("sampled_insts", s.sampledInsts);
        samplingStats_.set("warmed_insts", s.warmedInsts);
        samplingStats_.set("measured_cycles", s.measuredCycles);
        samplingStats_.set("estimated_cycles", result_.estimatedCycles());
        reg.add("sampling", &samplingStats_);
        reg.addRatio("sampling.measured_cpi", "sampling.measured_cycles",
                     "sampling.sampled_insts");
    }

    reg.addRatio("mem.l1i.miss_rate", "mem.l1i.misses",
                 "mem.l1i.accesses");
    reg.addRatio("mem.l1d.miss_rate", "mem.l1d.misses",
                 "mem.l1d.accesses");
    reg.addRatio("mem.l2.miss_rate", "mem.l2.misses", "mem.l2.accesses");
    reg.addRatio("bpred.mispredict_rate", "pipeline.mispredicts",
                 "bpred.predictions");
    reg.addRatio("pipeline.ipc", "run.dyn_insts", "pipeline.cycles");
    reg.addRatio("pipeline.cpi", "pipeline.cycles", "run.dyn_insts");
    if (controller_) {
        reg.addRatio("dise.expansion_rate", "dise.expansions",
                     "dise.inspected");
    }
}

} // namespace dise
