#include "src/pipeline/pipeline.hpp"

#include <algorithm>

#include "src/common/bits.hpp"
#include "src/common/logging.hpp"

namespace dise {

namespace {

/** Records per ExecCore::fillTrace batch on the trace-feed path.
 *  Sized so the ring (kFeedBatch * sizeof(DynInst)) stays L1-resident:
 *  the producer writes and the consumer reads every record exactly
 *  once, so a larger ring only adds cache traffic. */
constexpr size_t kFeedBatch = 64;

/** Commit-clock advance between deadline-cancel polls (step path). */
constexpr uint64_t kCancelPollCycles = 0x10000;

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

    rebindHotCells();
}

void
PipelineSim::rebindHotCells()
{
    icAccCell_ = mem_.icache().statsMutable().cell("accesses");
    dcAccCell_ = mem_.dcache().statsMutable().cell("accesses");
    dcWrCell_ = mem_.dcache().statsMutable().cell("writes");
    bpPredCell_ = bpred_.stats().cell("predictions");
    bpUpdCell_ = bpred_.stats().cell("updates");
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
// Leaf accessors: the ONLY divergence between the step-driven reference
// (kFast = false: public stat-counting component entry points) and the
// trace-feed path (kFast = true: inline hot variants + the batch tally
// of the cached stat cells).
// ---------------------------------------------------------------------

template <bool kFast>
DISE_ALWAYS_INLINE uint32_t
PipelineSim::fetchAccessT(Tally &c, Addr pc)
{
    if constexpr (kFast) {
        ++c.icAccesses;
        return mem_.icache().accessHot(pc, false);
    } else {
        return mem_.fetchAccess(pc);
    }
}

template <bool kFast>
DISE_ALWAYS_INLINE uint32_t
PipelineSim::dataAccessT(Tally &c, Addr addr, bool write)
{
    if constexpr (kFast) {
        ++c.dcAccesses;
        c.dcWrites += write;
        return mem_.dcache().accessHot(addr, write);
    } else {
        return mem_.dataAccess(addr, write);
    }
}

template <bool kFast>
DISE_ALWAYS_INLINE BranchPredictor::Prediction
PipelineSim::predictT(Tally &c, Addr pc, OpClass cls, Addr fallThrough)
{
    if constexpr (kFast) {
        ++c.predictions;
        return bpred_.predictHot(pc, cls, fallThrough);
    } else {
        return bpred_.predict(pc, cls, fallThrough);
    }
}

template <bool kFast>
DISE_ALWAYS_INLINE void
PipelineSim::updateT(Tally &c, Addr pc, OpClass cls, bool taken,
                     Addr target)
{
    if constexpr (kFast) {
        ++c.updates;
        bpred_.updateHot(pc, cls, taken, target);
    } else {
        bpred_.update(pc, cls, taken, target);
    }
}

// ---------------------------------------------------------------------
// The timing model proper (shared between both delivery paths).
// ---------------------------------------------------------------------

template <bool kFast>
DISE_ALWAYS_INLINE void
PipelineSim::newFetchGroupT(Hot &h, Tally &c, uint64_t cycle, Addr pc,
                            bool accessICache)
{
    h.feCycle = std::max(h.feCycle, cycle);
    h.feSlots = 0;
    const uint64_t line = fetchLine(pc);
    if (accessICache || line != h.curLine) {
        const uint32_t lat = fetchAccessT<kFast>(c, pc);
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

template <bool kFast>
DISE_ALWAYS_INLINE uint64_t
PipelineSim::frontendT(Hot &h, Tally &c, const DynInst &dyn)
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
            newFetchGroupT<kFast>(h, c,
                                  std::max(h.pendingRedirect, h.feCycle),
                                  dyn.pc, true);
            h.pendingRedirect = 0;
            h.redirectCause = StallCause::None;
        }
        // PT/RT miss: flush the front end and stall for the fill.
        if (dyn.missPenalty > 0) {
            c.missStallCycles += dyn.missPenalty;
            h.pend.dise += dyn.missPenalty;
            newFetchGroupT<kFast>(h, c, h.feCycle + dyn.missPenalty,
                                  dyn.pc, true);
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
            newFetchGroupT<kFast>(
                h, c, h.feSlots > 0 ? h.feCycle + 1 : h.feCycle, dyn.pc,
                true);
        } else if (h.feSlots >= params_.width) {
            newFetchGroupT<kFast>(h, c, h.feCycle + 1, dyn.pc, false);
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

uint32_t
PipelineSim::instLatency(const DynInst &dyn) const
{
    switch (dyn.inst.cls) {
      case OpClass::IntMult:
        return params_.intMultLatency;
      case OpClass::Syscall:
        return params_.syscallLatency;
      default:
        return params_.intAluLatency;
    }
}

template <bool kFast>
DISE_ALWAYS_INLINE void
PipelineSim::resolveControlT(Hot &h, Tally &c, Addr pc, OpClass cls,
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
    if (cls != OpClass::Nop) {
        updateT<kFast>(c, pc, cls, taken, target);
        if (cls == OpClass::Call || cls == OpClass::CallIndirect)
            bpred_.pushReturn(pc + 4);
    }
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

    for (const DynInst *rec = recs, *const end = recs + n; rec != end;
         ++rec) {
        const DynInst &dyn = *rec;

        // ---- Front end: decode timestamp. ----
        const uint64_t decodeCycle = frontendT<kFast>(h, c, dyn);

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
        // ROB entry must be free.
        const uint64_t robFree = commitRing[robIdx];
        if (robFree > dispatch) {
            h.pend.hazard += robFree - dispatch;
            dispatch = robFree;
        }
        // RS entry must be free (freed at issue).
        const uint64_t rsFree = issueRing[rsIdx] + 1;
        if (rsFree > dispatch) {
            h.pend.hazard += rsFree - dispatch;
            dispatch = rsFree;
        }
        // In-order dispatch, width per cycle.
        if (dispatch < h.dispatchCycleCur)
            dispatch = h.dispatchCycleCur;
        if (dispatch == h.dispatchCycleCur) {
            if (h.dispatchSlots >= width) {
                ++dispatch;
                h.dispatchCycleCur = dispatch;
                h.dispatchSlots = 0;
            }
        } else {
            h.dispatchCycleCur = dispatch;
            h.dispatchSlots = 0;
        }
        ++h.dispatchSlots;

        // ---- Issue: dataflow-limited. ----
        uint64_t ready = dispatch + 1;
        if constexpr (kFast) {
            // The zero register is never a destination, so its ready
            // time stays 0 and the walk need not skip it.
            dyn.inst.visitSrcRegsFast([&ready, regReady](RegIndex src) {
                ready = std::max(ready, regReady[src]);
            });
        } else {
            for (const RegIndex src : dyn.inst.srcRegList())
                ready = std::max(ready, regReady[src]);
        }
        if (ready > dispatch + 1)
            h.pend.hazard += ready - (dispatch + 1);
        const uint64_t issue = ready;
        issueRing[rsIdx] = issue;

        // ---- Complete. ----
        uint64_t complete = issue + instLatency(dyn);
        if (dyn.isMem && !dyn.isStore) {
            // Loads: AGU + D-cache access.
            const uint32_t lat = dataAccessT<kFast>(c, dyn.memAddr, false);
            if (lat > l1Latency)
                h.pend.dmiss += lat - l1Latency;
            complete = issue + 1 + lat;
        }
        const RegIndex dest =
            kFast ? dyn.inst.destRegFast() : dyn.inst.destReg();
        if (dest != kZeroReg)
            regReady[dest] = complete;

        // ---- Commit: in order, width per cycle. ----
        const uint64_t prevCommitClock = h.lastCommit;
        uint64_t commit = std::max(complete + 1, h.lastCommit);
        if (commit == h.commitCycleCur) {
            if (h.commitSlots >= width) {
                ++commit;
                h.commitCycleCur = commit;
                h.commitSlots = 0;
            }
        } else {
            h.commitCycleCur = commit;
            h.commitSlots = 0;
        }
        ++h.commitSlots;
        h.lastCommit = commit;
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
            dataAccessT<kFast>(c, dyn.memAddr, true);
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
                    predictT<kFast>(c, dyn.pc, dyn.inst.cls, dyn.pc + 4);
                resolveControlT<kFast>(h, c, dyn.pc, dyn.inst.cls,
                                       dyn.taken, dyn.actualTarget,
                                       complete, decodeCycle, pred);
            }
        } else {
            if (dyn.firstOfSeq) {
                seqPredCls_ = dyn.seqPredClass;
                seqTriggerPC_ = dyn.pc;
                seqTrigTaken_ = false;
                seqTrigTarget_ = 0;
                seqRedirected_ = false;
                seqRedirTarget_ = 0;
                seqResolve_ = complete;
                if (seqPredCls_ != OpClass::Nop) {
                    seqPred_ = predictT<kFast>(c, dyn.pc, seqPredCls_,
                                               dyn.pc + 4);
                } else {
                    seqPred_ = BranchPredictor::Prediction{};
                    seqPred_.target = dyn.pc + 4;
                    seqPred_.targetKnown = true;
                }
            }
            if (dyn.inst.isDiseBranch() && dyn.taken) {
                // Taken DISE branch: fetch restarts at the same PC, new
                // DISEPC — interpreted as a misprediction.
                ++c.diseMispredicts;
                raiseRedirect(h, complete + 1, StallCause::Dise);
            }
            if (dyn.isAppControl) {
                seqResolve_ = std::max(seqResolve_, complete);
                if (dyn.taken) {
                    if (dyn.triggerSlot) {
                        // Deferred: applied at sequence end unless a
                        // later non-trigger branch redirects first.
                        seqTrigTaken_ = true;
                        seqTrigTarget_ = dyn.actualTarget;
                    } else {
                        seqRedirected_ = true;
                        seqRedirTarget_ = dyn.actualTarget;
                    }
                }
            }
            if (dyn.lastOfSeq) {
                const bool taken = seqRedirected_ || seqTrigTaken_;
                const Addr next = seqRedirected_
                                      ? seqRedirTarget_
                                      : (seqTrigTaken_ ? seqTrigTarget_
                                                       : dyn.pc + 4);
                resolveControlT<kFast>(h, c, seqTriggerPC_, seqPredCls_,
                                       taken, next,
                                       std::max(seqResolve_, complete),
                                       decodeCycle, seqPred_);
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
    if constexpr (kFast) {
        *icAccCell_ += c.icAccesses;
        *dcAccCell_ += c.dcAccesses;
        *dcWrCell_ += c.dcWrites;
        *bpPredCell_ += c.predictions;
        *bpUpdCell_ += c.updates;
    }
}

// ---------------------------------------------------------------------
// Functional warming (sampling gaps).
// ---------------------------------------------------------------------

void
PipelineSim::warmInst(const DynInst &dyn)
{
    // I-side: the detailed front end touches the I-cache once per
    // fetched line plus once per redirect target; a redirect (branch
    // flush, PT/RT fill, syscall drain) re-accesses even a same-line
    // target. Model that by invalidating the current-line latch on
    // every redirect cause and accessing on line change.
    const bool appBoundary = !dyn.expanded || dyn.firstOfSeq;
    if (appBoundary) {
        if (dyn.missPenalty > 0)
            hot_.curLine = ~uint64_t(0); // PT/RT fill flushes front end
        const uint64_t line = fetchLine(dyn.pc);
        if (line != hot_.curLine) {
            ++*icAccCell_;
            mem_.icache().accessHot(dyn.pc, false);
            hot_.curLine = line;
        }
    }

    // D-side: loads and stores in program order, exactly as the
    // detailed model orders its calls (loads at issue, stores at
    // commit, both within the same per-instruction pass).
    if (dyn.isMem) {
        ++*dcAccCell_;
        if (dyn.isStore)
            ++*dcWrCell_;
        mem_.dcache().accessHot(dyn.memAddr, dyn.isStore);
    }

    // Branch predictor: replicate the detailed model's predict/update/
    // RAS traffic, including sequence-level prediction for expansions.
    // A refetch happens iff the branch was taken (actual redirect or
    // correctly predicted taken) or predicted taken (wrong-direction
    // flush) — in all three cases the detailed front end starts a new
    // fetch group with an unconditional I-cache access.
    if (!dyn.expanded) {
        if (dyn.isAppControl) {
            ++*bpPredCell_;
            const auto pred =
                bpred_.predictHot(dyn.pc, dyn.inst.cls, dyn.pc + 4);
            ++*bpUpdCell_;
            bpred_.updateHot(dyn.pc, dyn.inst.cls, dyn.taken,
                             dyn.actualTarget);
            if (dyn.inst.cls == OpClass::Call ||
                dyn.inst.cls == OpClass::CallIndirect)
                bpred_.pushReturn(dyn.pc + 4);
            if (dyn.taken || pred.taken)
                hot_.curLine = ~uint64_t(0);
        }
    } else {
        if (dyn.firstOfSeq) {
            seqPredCls_ = dyn.seqPredClass;
            seqTriggerPC_ = dyn.pc;
            seqTrigTaken_ = false;
            seqTrigTarget_ = 0;
            seqRedirected_ = false;
            seqRedirTarget_ = 0;
            if (seqPredCls_ != OpClass::Nop) {
                ++*bpPredCell_;
                seqPred_ = bpred_.predictHot(dyn.pc, seqPredCls_,
                                             dyn.pc + 4);
            } else {
                seqPred_ = BranchPredictor::Prediction{};
                seqPred_.target = dyn.pc + 4;
                seqPred_.targetKnown = true;
            }
        }
        if (dyn.inst.isDiseBranch() && dyn.taken)
            hot_.curLine = ~uint64_t(0); // unpredicted redirect, refetch
        if (dyn.isAppControl && dyn.taken) {
            if (dyn.triggerSlot) {
                seqTrigTaken_ = true;
                seqTrigTarget_ = dyn.actualTarget;
            } else {
                seqRedirected_ = true;
                seqRedirTarget_ = dyn.actualTarget;
            }
        }
        if (dyn.lastOfSeq) {
            const bool taken = seqRedirected_ || seqTrigTaken_;
            const Addr next = seqRedirected_
                                  ? seqRedirTarget_
                                  : (seqTrigTaken_ ? seqTrigTarget_
                                                   : dyn.pc + 4);
            if (seqPredCls_ != OpClass::Nop) {
                ++*bpUpdCell_;
                bpred_.updateHot(seqTriggerPC_, seqPredCls_, taken, next);
                if (seqPredCls_ == OpClass::Call ||
                    seqPredCls_ == OpClass::CallIndirect)
                    bpred_.pushReturn(seqTriggerPC_ + 4);
            }
            if (taken || seqPred_.taken)
                hot_.curLine = ~uint64_t(0);
        }
    }
    if (dyn.isSyscall)
        hot_.curLine = ~uint64_t(0); // drain forces a refetch
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

bool
PipelineSim::samplePhase(const DynInst &dyn)
{
    if (phaseLeft_ == 0 && (!dyn.expanded || dyn.firstOfSeq)) {
        if (phaseDetail_) {
            const uint64_t warmLen = samplePeriod_ - sampleDetail_;
            if (warmLen > 0) {
                phaseDetail_ = false;
                phaseLeft_ = warmLen;
            } else {
                phaseLeft_ = sampleDetail_; // detail == period
            }
        } else {
            phaseDetail_ = true;
            phaseLeft_ = sampleDetail_;
        }
    }
    if (phaseLeft_ > 0)
        --phaseLeft_;
    return phaseDetail_;
}

PipelineSim::RunStop
PipelineSim::runFeed(uint64_t maxInsts, uint64_t maxCycles)
{
    if (ring_.empty())
        ring_.resize(kFeedBatch);
    const bool sampling = samplePeriod_ != 0;
    // Derived ring cursors for the kFast structural-hazard walk (see
    // Hot): recomputed here rather than checkpointed, so snapshot
    // layout stays independent of the feed implementation.
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
            // Split the batch into maximal same-phase runs: each detail
            // run is one timeBatch, each warm run goes record by record.
            // The phase schedule depends only on the records, so it can
            // run ahead of the timing of the run it closes.
            bool detail = samplePhase(ring[0]);
            for (size_t i = 0; i < n;) {
                size_t j = i + 1;
                bool next = detail;
                while (j < n && (next = samplePhase(ring[j])) == detail)
                    ++j;
                if (detail) {
                    timeBatch<true>(ring + i, j - i);
                    result_.sampling.sampledInsts += j - i;
                } else {
                    for (size_t k = i; k < j; ++k)
                        warmInst(ring[k]);
                    result_.sampling.warmedInsts += j - i;
                }
                i = j;
                detail = next;
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
        // Deadline poll once per batch (finer than the reference's
        // 1024-instruction stride).
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
    out.scalars = {hot_.feCycle,
                   hot_.feSlots,
                   hot_.curLine,
                   hot_.pendingRedirect,
                   uint64_t(hot_.redirectCause),
                   hot_.pend.imiss,
                   hot_.pend.dise,
                   hot_.pend.branch,
                   hot_.pend.drain,
                   hot_.pend.dmiss,
                   hot_.pend.hazard,
                   hot_.instIndex,
                   hot_.dispatchCycleCur,
                   hot_.dispatchSlots,
                   hot_.commitCycleCur,
                   hot_.commitSlots,
                   hot_.lastCommit,
                   uint64_t(seqPredCls_),
                   seqPred_.taken,
                   seqPred_.target,
                   seqPred_.targetKnown,
                   seqTriggerPC_,
                   seqTrigTaken_,
                   seqTrigTarget_,
                   seqRedirected_,
                   seqRedirTarget_,
                   seqResolve_,
                   uint64_t(phaseDetail_),
                   phaseLeft_,
                   lastCancelPollCommit_};
    out.scalars.insert(out.scalars.end(), regReady_.begin(),
                       regReady_.end());
    out.scalars.insert(out.scalars.end(), commitRing_.begin(),
                       commitRing_.end());
    out.scalars.insert(out.scalars.end(), issueRing_.begin(),
                       issueRing_.end());
}

void
PipelineSim::restoreSnapshot(const TimingSnapshot &snap)
{
    core_.restoreSnapshot(snap.core);
    result_ = snap.result;
    mem_.adoptState(*snap.mem);
    bpred_ = *snap.bpred;
    const uint64_t *p = snap.scalars.data();
    DISE_ASSERT(snap.scalars.size() == 30 + regReady_.size() +
                                           commitRing_.size() +
                                           issueRing_.size(),
                "timing snapshot shape mismatch (different machine "
                "configuration?)");
    hot_.feCycle = *p++;
    hot_.feSlots = uint32_t(*p++);
    hot_.curLine = *p++;
    hot_.pendingRedirect = *p++;
    hot_.redirectCause = StallCause(*p++);
    hot_.pend.imiss = *p++;
    hot_.pend.dise = *p++;
    hot_.pend.branch = *p++;
    hot_.pend.drain = *p++;
    hot_.pend.dmiss = *p++;
    hot_.pend.hazard = *p++;
    hot_.instIndex = *p++;
    hot_.dispatchCycleCur = *p++;
    hot_.dispatchSlots = uint32_t(*p++);
    hot_.commitCycleCur = *p++;
    hot_.commitSlots = uint32_t(*p++);
    hot_.lastCommit = *p++;
    seqPredCls_ = OpClass(*p++);
    seqPred_.taken = *p++ != 0;
    seqPred_.target = *p++;
    seqPred_.targetKnown = *p++ != 0;
    seqTriggerPC_ = *p++;
    seqTrigTaken_ = *p++ != 0;
    seqTrigTarget_ = *p++;
    seqRedirected_ = *p++ != 0;
    seqRedirTarget_ = *p++;
    seqResolve_ = *p++;
    phaseDetail_ = *p++ != 0;
    phaseLeft_ = *p++;
    lastCancelPollCommit_ = *p++;
    for (uint64_t &r : regReady_)
        r = *p++;
    for (uint64_t &r : commitRing_)
        r = *p++;
    for (uint64_t &r : issueRing_)
        r = *p++;
    // adoptState/copy-assignment above replaced the components' stat
    // maps; the cached cells point into the old ones.
    rebindHotCells();
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
