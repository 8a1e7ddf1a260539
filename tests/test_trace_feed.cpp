/**
 * @file
 * Trace-feed correctness tests: the batched retire-trace sink must be
 * a bit-identical replacement for step()-per-instruction delivery —
 * record-by-record at the ExecCore level, and cycles / buckets / every
 * registry stat at the PipelineSim level — across budgets expiring
 * mid-batch, resume cursors invalidated between and during fills,
 * snapshots at batch and sample boundaries, and sampled runs. Also pins
 * the inline fast register helpers the feed's hazard walk uses to their
 * out-of-line reference implementations over the whole opcode space.
 */

#include <gtest/gtest.h>

#include <functional>

#include "src/acf/mfi.hpp"
#include "src/assembler/assembler.hpp"
#include "src/common/logging.hpp"
#include "src/common/stats.hpp"
#include "src/dise/parser.hpp"
#include "src/pipeline/pipeline.hpp"
#include "src/service/runner.hpp"
#include "src/service/session.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/trace_streams.hpp"

namespace dise {
namespace {

const char *kEpilogue = "    li 0, v0\n    li 0, a0\n    syscall\n"
                        "error:\n"
                        "    li 0, v0\n    li 42, a0\n    syscall\n";

std::unique_ptr<DiseController>
mfiController(const Program &prog)
{
    auto controller = std::make_unique<DiseController>(DiseConfig{});
    controller->install(std::make_shared<const ProductionSet>(
        makeMfiProductions(prog, MfiOptions{})));
    return controller;
}

/**
 * Loads, stores (to a legal .data buffer — MFI checks them), a
 * multiply, a call/return pair, and a data-dependent branch that flips
 * direction as the stored value evolves: every DynInst field class and
 * both predictor outcomes get exercised.
 */
Program
mixedProgramWithHelper(int iters)
{
    return assemble(
        strFormat(".text\nmain:\n    laq buf, t5\n    li %d, t0\n",
                  iters) +
        "loop:\n"
        "    ldq t2, 0(t5)\n"
        "    mulq t2, 3, t3\n"
        "    stq t3, 0(t5)\n"
        "    cmplt t3, 100, t4\n"
        "    beq t4, skip\n"
        "    addq t6, 1, t6\n"
        "skip:\n"
        "    bsr ra, helper\n"
        "    subq t0, 1, t0\n"
        "    bne t0, loop\n" +
        std::string(kEpilogue) +
        "helper:\n"
        "    xor t7, t6, t7\n"
        "    ret\n"
        ".data\nbuf:\n    .quad 1\n");
}

void
expectSameStream(const Program &prog, bool mfi, size_t ringCap)
{
    std::unique_ptr<DiseController> cf, cs;
    if (mfi) {
        cf = mfiController(prog);
        cs = mfiController(prog);
    }
    ExecCore feed(prog, cf.get());
    ExecCore step(prog, cs.get());
    if (mfi) {
        initMfiRegisters(feed, prog);
        initMfiRegisters(step, prog);
    }
    const std::vector<DynInst> a = drainViaFill(feed, ringCap);
    const std::vector<DynInst> b = drainViaStep(step);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(sameRecord(a[i], b[i]))
            << "record " << i << " pc 0x" << std::hex << a[i].pc
            << " vs 0x" << b[i].pc;
    }
    EXPECT_EQ(feed.result().dynInsts, step.result().dynInsts);
    EXPECT_EQ(feed.result().outcome, step.result().outcome);
}

TEST(TraceFeed, FillMatchesStepPlain)
{
    expectSameStream(mixedProgramWithHelper(300), false, 7);
}

TEST(TraceFeed, FillMatchesStepMfi)
{
    // Ring smaller than a replacement sequence forces mid-sequence
    // ring-full exits: the torn sequence must resume bit-identically in
    // the next fill.
    expectSameStream(mixedProgramWithHelper(300), true, 3);
    expectSameStream(mixedProgramWithHelper(300), true, 64);
}

// ---------------------------------------------------------------------
// The resume cursor: a fill that stops inside a translated block (or
// just after a sequence it left suspended) re-enters that block in the
// next fill, unless something invalidated the block in between.
// ---------------------------------------------------------------------

/** Called after fill @p i, and on the step side after the same number
 *  of records, so both cores see it at the same retirement point. */
using FillHook =
    std::function<void(size_t i, ExecCore &core, DiseController *ctl)>;

struct CursorCase
{
    std::shared_ptr<const ProductionSet> set; ///< null: no controller
    bool mfiRegs = false; ///< initMfiRegisters on both cores
    size_t blockCap = 0;  ///< nonzero: setTraceBlockCap on the feed
    /** Makes one hook per side (hooks may keep per-core state). */
    std::function<FillHook()> makeHook;
};

/**
 * Drain @p prog through fillTrace at ring capacity @p cap and through
 * step(), applying the case's hook at identical points, and require
 * identical record streams and results. The step side runs step()
 * through fillTrace with the trace cache off, in batches of the feed's
 * sizes, so a hook runs after the same records on both sides, also
 * mid-sequence.
 */
void
expectSameStreamAcrossFills(const Program &prog, const CursorCase &cc,
                            size_t cap)
{
    std::unique_ptr<DiseController> cf, cs;
    if (cc.set) {
        cf = std::make_unique<DiseController>(DiseConfig{});
        cs = std::make_unique<DiseController>(DiseConfig{});
        cf->install(cc.set);
        cs->install(cc.set);
    }
    ExecCore feed(prog, cf.get());
    ExecCore step(prog, cs.get());
    step.setTraceCacheEnabled(false);
    if (cc.mfiRegs) {
        initMfiRegisters(feed, prog);
        initMfiRegisters(step, prog);
    }
    if (cc.blockCap != 0)
        feed.setTraceBlockCap(cc.blockCap);

    std::vector<DynInst> a, b;
    std::vector<size_t> sizes;
    std::vector<DynInst> ring(cap);
    FillHook hook = cc.makeHook ? cc.makeHook() : FillHook();
    for (size_t i = 0;; ++i) {
        const size_t n = feed.fillTrace(ring.data(), cap);
        if (n == 0)
            break;
        a.insert(a.end(), ring.begin(), ring.begin() + n);
        sizes.push_back(n);
        if (hook)
            hook(i, feed, cf.get());
    }
    hook = cc.makeHook ? cc.makeHook() : FillHook();
    for (size_t i = 0; i < sizes.size(); ++i) {
        ASSERT_EQ(step.fillTrace(ring.data(), sizes[i]), sizes[i])
            << "step stream ended early";
        b.insert(b.end(), ring.begin(), ring.begin() + sizes[i]);
        if (hook)
            hook(i, step, cs.get());
    }
    EXPECT_EQ(step.fillTrace(ring.data(), cap), 0u)
        << "step stream runs longer";

    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(sameRecord(a[i], b[i]))
            << "cap " << cap << " record " << i << " pc 0x" << std::hex
            << a[i].pc << " vs 0x" << b[i].pc;
    }
    EXPECT_EQ(feed.result().dynInsts, step.result().dynInsts);
    EXPECT_EQ(feed.result().outcome, step.result().outcome);
    EXPECT_EQ(feed.result().exitCode, step.result().exitCode);
}

/**
 * A loop that rewrites two instructions of its own block on every
 * iteration, alternating between two donor pairs, so a stale block (or
 * a resume cursor into one) adds the wrong amount: s1 ends at
 * 20 * (2 + 3) = 100 only when every rewrite takes effect.
 */
constexpr const char *kSmcLoop = R"(.text
main:
    laq patch, t1
    laq donora, t3
    laq donorb, t4
    li 40, t0
    li 0, s1
loop:
    ldq t2, 0(t3)
    stq t2, 0(t1)
patch:
    addq s1, 0, s1
    addq s1, 0, s1
    xor t3, t4, t6
    xor t3, t6, t3
    xor t4, t6, t4
    subq t0, 1, t0
    bne t0, loop
    mov s1, a0
    li 0, v0
    syscall
donora:
    addq s1, 2, s1
    addq s1, 0, s1
donorb:
    addq s1, 3, s1
    addq s1, 0, s1
)";

/**
 * Every store expands, so kSmcLoop's text store runs from inside a
 * replacement sequence, with slots after it: a fill can stop right
 * after the store, with the block that holds `patch` already
 * invalidated.
 */
std::shared_ptr<const ProductionSet>
storeSequenceSet(const Program &prog)
{
    return std::make_shared<ProductionSet>(parseProductions(
        "P1: class == store -> R1\n"
        "R1: lda $dr1, 1(zero)\n"
        "    T.INSN\n"
        "    lda $dr1, 2(zero)\n"
        "    lda $dr1, 3(zero)\n",
        prog.symbols));
}

TEST(TraceFeed, CursorInvalidatedBySmc)
{
    const Program prog = assemble(kSmcLoop);
    {
        ExecCore ref(prog);
        ref.setTraceCacheEnabled(false);
        ASSERT_EQ(ref.run().exitCode, 100);
    }
    CursorCase fromBlock;
    CursorCase fromSequence;
    fromSequence.set = storeSequenceSet(prog);
    for (const size_t cap : {1, 3, 7, 64}) {
        expectSameStreamAcrossFills(prog, fromBlock, cap);
        expectSameStreamAcrossFills(prog, fromSequence, cap);
    }
}

TEST(TraceFeed, CursorInvalidatedByTableChanges)
{
    // install() and flushTables() both advance the engine generation,
    // at fill boundaries inside blocks and inside sequences. The two
    // sets cover different opcodes (MFI: loads and stores; the other:
    // stores only), so resuming a block translated under one set after
    // installing the other would skip or invent expansions.
    const Program prog = mixedProgramWithHelper(300);
    MfiOptions dise3;
    dise3.variant = MfiVariant::Dise3;
    const auto mfi =
        std::make_shared<const ProductionSet>(makeMfiProductions(prog, dise3));
    const auto stores = storeSequenceSet(prog);

    CursorCase tables;
    tables.set = mfi;
    tables.mfiRegs = true;
    tables.makeHook = [mfi, stores] {
        return [mfi, stores](size_t i, ExecCore &, DiseController *ctl) {
            if (i % 11 == 5)
                ctl->install(i % 22 == 5 ? stores : mfi);
            else if (i % 7 == 3)
                ctl->engine().flushTables();
        };
    };
    for (const size_t cap : {1, 3, 7, 64})
        expectSameStreamAcrossFills(prog, tables, cap);
}

TEST(TraceFeed, BareStepSurvivesTableChangesMidSequence)
{
    // Step into an MFI sequence, then free the storage it was expanded
    // into: install() drops the production set and the expansion cache,
    // flushTables() the cache. The rest of the sequence must retire as
    // it would have uninterrupted.
    const Program prog = mixedProgramWithHelper(3);
    auto reference = mfiController(prog);
    ExecCore ref(prog, reference.get());
    initMfiRegisters(ref, prog);
    const std::vector<DynInst> want = drainViaStep(ref);

    for (const bool install : {true, false}) {
        auto ctl = mfiController(prog);
        ExecCore core(prog, ctl.get());
        initMfiRegisters(core, prog);
        std::vector<DynInst> got;
        DynInst dyn;
        while (core.step(dyn)) {
            got.push_back(dyn);
            if (dyn.firstOfSeq && !dyn.lastOfSeq)
                break;
        }
        ASSERT_TRUE(got.back().firstOfSeq && !got.back().lastOfSeq);
        if (install) {
            ctl->install(std::make_shared<const ProductionSet>(
                makeMfiProductions(prog, MfiOptions{})));
        } else {
            ctl->engine().flushTables();
        }
        while (!got.back().lastOfSeq && core.step(dyn))
            got.push_back(dyn);
        ASSERT_TRUE(got.back().lastOfSeq) << "install " << install;
        ASSERT_LE(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(sameRecord(got[i], want[i]))
                << "install " << install << " record " << i;
        }
    }
}

TEST(TraceFeed, CursorUnderEvictionPressure)
{
    // A one-block trace cache evicts on every translation: a cursor
    // left in a block is only valid until the next lookup.
    const Program mixed = mixedProgramWithHelper(300);
    CursorCase mfi;
    mfi.set = std::make_shared<const ProductionSet>(
        makeMfiProductions(mixed, MfiOptions{}));
    mfi.mfiRegs = true;
    mfi.blockCap = 1;
    const Program smc = assemble(kSmcLoop);
    CursorCase smcSeq;
    smcSeq.set = storeSequenceSet(smc);
    smcSeq.blockCap = 1;
    for (const size_t cap : {1, 3, 7, 64}) {
        expectSameStreamAcrossFills(mixed, mfi, cap);
        expectSameStreamAcrossFills(smc, smcSeq, cap);
    }
}

TEST(TraceFeed, CursorInvalidatedByRestoreSnapshot)
{
    // Snapshot at the first application boundary after fill 20, run on,
    // and rewind after fill 40: the cursor the rewound core holds points
    // at a block position of the abandoned future.
    const Program prog = mixedProgramWithHelper(300);
    CursorCase rewind;
    rewind.set = std::make_shared<const ProductionSet>(
        makeMfiProductions(prog, MfiOptions{}));
    rewind.mfiRegs = true;
    rewind.makeHook = [] {
        auto snap = std::make_shared<SimSnapshot>();
        auto state = std::make_shared<int>(0); // 0 none, 1 saved, 2 done
        return [snap, state](size_t i, ExecCore &core, DiseController *) {
            if (*state == 0 && i >= 20 && core.atAppBoundary()) {
                core.saveSnapshot(*snap);
                *state = 1;
            } else if (*state == 1 && i >= 40) {
                core.restoreSnapshot(*snap);
                *state = 2;
            }
        };
    };
    for (const size_t cap : {1, 3, 7, 64})
        expectSameStreamAcrossFills(prog, rewind, cap);
}

TEST(TraceFeed, FillTranslatesNoMoreBlocksThanRun)
{
    // Every 64-record fill stops mid-block. The next fill must resume in
    // that block: a fresh suffix block at the stop PC is a block run()
    // never builds, with cold expansion memos.
    for (const char *name : {"bzip2", "gcc"}) {
        const Program prog =
            buildWorkload(scaledSpec(workloadSpec(name), 0.05));
        auto cr = mfiController(prog);
        auto cf = mfiController(prog);
        ExecCore ran(prog, cr.get());
        ExecCore filled(prog, cf.get());
        initMfiRegisters(ran, prog);
        initMfiRegisters(filled, prog);
        ran.run();
        const std::vector<DynInst> stream = drainViaFill(filled, 64);
        ASSERT_EQ(filled.result().dynInsts, ran.result().dynInsts) << name;
        EXPECT_GT(ran.traceCacheStats().blocksTranslated, 0u) << name;
        EXPECT_EQ(filled.traceCacheStats().blocksTranslated,
                  ran.traceCacheStats().blocksTranslated)
            << name;
    }
}

// ---------------------------------------------------------------------
// PipelineSim: feed vs step, full registry equality.
// ---------------------------------------------------------------------

/**
 * Full registry document minus the "sampling" group: its presence is
 * the one legitimate difference between a sampled run and its
 * full-detail reference (sampling fields are compared explicitly where
 * a test cares about them).
 */
std::string
registryDump(PipelineSim &sim)
{
    StatsRegistry reg;
    sim.registerStats(reg);
    const Json full = reg.toJson();
    Json doc = Json::object();
    for (const auto &kv : full.members()) {
        if (kv.first != "sampling")
            doc[kv.first] = kv.second;
    }
    return doc.dump();
}

struct TimingRun
{
    TimingResult t;
    std::string registry;
};

TimingRun
runPipeline(const Program &prog, bool traceFeed, bool mfi,
            uint64_t maxInsts = ~uint64_t(0), uint64_t maxCycles = 0,
            uint64_t period = 0, uint64_t detail = 0)
{
    std::unique_ptr<DiseController> controller;
    if (mfi)
        controller = mfiController(prog);
    PipelineParams params;
    params.mem.l1dSize = 2048; // small caches: real miss traffic
    params.mem.l1iSize = 2048;
    PipelineSim sim(prog, params, controller.get());
    sim.setTraceFeed(traceFeed);
    if (period != 0)
        sim.setSampling(period, detail);
    if (mfi)
        initMfiRegisters(sim.core(), prog);
    TimingRun run;
    run.t = sim.run(maxInsts, maxCycles);
    run.registry = registryDump(sim);
    return run;
}

void
expectSameTiming(const TimingRun &feed, const TimingRun &step)
{
    EXPECT_EQ(feed.t.cycles, step.t.cycles);
    EXPECT_EQ(feed.t.arch.dynInsts, step.t.arch.dynInsts);
    EXPECT_EQ(feed.t.arch.outcome, step.t.arch.outcome);
    EXPECT_EQ(feed.t.buckets.issue, step.t.buckets.issue);
    EXPECT_EQ(feed.t.buckets.imissStall, step.t.buckets.imissStall);
    EXPECT_EQ(feed.t.buckets.dmissStall, step.t.buckets.dmissStall);
    EXPECT_EQ(feed.t.buckets.branchFlush, step.t.buckets.branchFlush);
    EXPECT_EQ(feed.t.buckets.diseStall, step.t.buckets.diseStall);
    EXPECT_EQ(feed.t.buckets.hazard, step.t.buckets.hazard);
    EXPECT_EQ(feed.t.buckets.drain, step.t.buckets.drain);
    EXPECT_EQ(feed.t.mispredicts, step.t.mispredicts);
    EXPECT_EQ(feed.t.decodeRedirects, step.t.decodeRedirects);
    EXPECT_EQ(feed.t.diseMispredicts, step.t.diseMispredicts);
    EXPECT_EQ(feed.t.expansionStalls, step.t.expansionStalls);
    EXPECT_EQ(feed.t.missStallCycles, step.t.missStallCycles);
    EXPECT_EQ(feed.registry, step.registry);
}

TEST(TraceFeed, PipelineFeedMatchesStep)
{
    const Program prog = mixedProgramWithHelper(400);
    for (const bool mfi : {false, true}) {
        const TimingRun feed = runPipeline(prog, true, mfi);
        const TimingRun step = runPipeline(prog, false, mfi);
        ASSERT_EQ(feed.t.arch.outcome, RunOutcome::Exit);
        expectSameTiming(feed, step);
    }
}

TEST(TraceFeed, MaxInstsExpiresMidBatch)
{
    // 501 is not a multiple of any batch size: the feed must stop on
    // exactly the same instruction as the per-step reference.
    const Program prog = mixedProgramWithHelper(400);
    for (const uint64_t cap : {501ull, 63ull, 64ull, 65ull, 1ull}) {
        const TimingRun feed = runPipeline(prog, true, true, cap);
        const TimingRun step = runPipeline(prog, false, true, cap);
        ASSERT_EQ(feed.t.arch.dynInsts, cap);
        ASSERT_EQ(feed.t.arch.outcome, RunOutcome::Hang);
        expectSameTiming(feed, step);
    }
}

TEST(TraceFeed, ResumedRunPastCycleBudgetMatchesStep)
{
    // run() again with the cycle budget that stopped the first call: the
    // commit clock is already past it, so the step path times exactly
    // one more instruction and stops with Hang. The feed must do the
    // same, not size a bounded batch from a headroom that wrapped below
    // zero (its per-batch bound check then panics).
    const Program prog =
        buildWorkload(scaledSpec(workloadSpec("bzip2"), 0.05));
    PipelineSim feed(prog, PipelineParams{});
    PipelineSim step(prog, PipelineParams{});
    step.setTraceFeed(false);
    uint64_t prevInsts = 0;
    for (int call = 0; call < 2; ++call) {
        TimingRun f, s;
        f.t = feed.run(~uint64_t(0), 500);
        f.registry = registryDump(feed);
        s.t = step.run(~uint64_t(0), 500);
        s.registry = registryDump(step);
        ASSERT_EQ(s.t.arch.outcome, RunOutcome::Hang);
        expectSameTiming(f, s);
        if (call == 1) {
            EXPECT_EQ(s.t.arch.dynInsts, prevInsts + 1);
        }
        prevInsts = s.t.arch.dynInsts;
    }
}

TEST(TraceFeed, MaxCyclesExpiresMidBatch)
{
    const Program prog = mixedProgramWithHelper(400);
    for (const uint64_t budget : {97ull, 501ull, 1999ull}) {
        const TimingRun feed =
            runPipeline(prog, true, true, ~uint64_t(0), budget);
        const TimingRun step =
            runPipeline(prog, false, true, ~uint64_t(0), budget);
        ASSERT_EQ(feed.t.arch.outcome, RunOutcome::Hang);
        expectSameTiming(feed, step);
    }
}

// ---------------------------------------------------------------------
// TimingSnapshot across batch and sample boundaries.
// ---------------------------------------------------------------------

TEST(TraceFeed, SnapshotMidBatchMatchesUninterrupted)
{
    const Program prog = mixedProgramWithHelper(400);
    const TimingRun want = runPipeline(prog, true, true);
    ASSERT_EQ(want.t.arch.outcome, RunOutcome::Exit);

    // Stop at instruction counts that land inside (501) and exactly on
    // (512) a feed batch, snapshot, restore into a fresh simulator,
    // finish there, and require the uninterrupted numbers.
    for (const uint64_t splitAt : {501ull, 512ull}) {
        auto controller = mfiController(prog);
        PipelineParams params;
        params.mem.l1dSize = 2048;
        params.mem.l1iSize = 2048;
        PipelineSim split(prog, params, controller.get());
        split.setTraceFeed(true);
        initMfiRegisters(split.core(), prog);
        const TimingResult mid = split.run(splitAt);
        ASSERT_EQ(mid.arch.outcome, RunOutcome::Hang);
        TimingSnapshot snap;
        split.saveSnapshot(snap);

        auto controller2 = mfiController(prog);
        PipelineSim fresh(prog, params, controller2.get());
        fresh.setTraceFeed(true);
        TimingRun got;
        fresh.restoreSnapshot(snap);
        got.t = fresh.run();
        got.registry = registryDump(fresh);
        expectSameTiming(got, want);
    }
}

TEST(TraceFeed, SnapshotAtSampleBoundaryMatchesUninterrupted)
{
    // No MFI here: a dyn-inst split point may land inside a replacement
    // sequence, where saveSnapshot (correctly) refuses to run. The
    // sampling phase machine is what's under test and is orthogonal.
    const Program prog = mixedProgramWithHelper(400);
    const uint64_t period = 300, detail = 100;
    const TimingRun want =
        runPipeline(prog, true, false, ~uint64_t(0), 0, period, detail);
    ASSERT_EQ(want.t.arch.outcome, RunOutcome::Exit);

    // Split exactly at a phase edge (detail -> warm at 100) and inside
    // a warm gap (170): the phase machine state must survive the
    // snapshot so the resumed run samples the same windows.
    for (const uint64_t splitAt : {100ull, 170ull, 350ull}) {
        PipelineParams params;
        params.mem.l1dSize = 2048;
        params.mem.l1iSize = 2048;
        PipelineSim split(prog, params);
        split.setTraceFeed(true);
        split.setSampling(period, detail);
        const TimingResult mid = split.run(splitAt);
        ASSERT_EQ(mid.arch.outcome, RunOutcome::Hang);
        TimingSnapshot snap;
        split.saveSnapshot(snap);

        PipelineSim fresh(prog, params);
        fresh.setTraceFeed(true);
        fresh.setSampling(period, detail);
        TimingRun got;
        fresh.restoreSnapshot(snap);
        got.t = fresh.run();
        got.registry = registryDump(fresh);
        expectSameTiming(got, want);
        EXPECT_EQ(got.t.sampling.sampledInsts, want.t.sampling.sampledInsts);
        EXPECT_EQ(got.t.sampling.warmedInsts, want.t.sampling.warmedInsts);
        EXPECT_EQ(got.t.sampling.measuredCycles,
                  want.t.sampling.measuredCycles);
    }
}

// ---------------------------------------------------------------------
// Sampling semantics.
// ---------------------------------------------------------------------

TEST(TraceFeed, SampledEqualsFullWhenFirstWindowCoversRun)
{
    // detail == period and period >= run length: every instruction is
    // timed in detail, so the "sampled" run IS the full run — same
    // cycles, same buckets, same registry.
    const Program prog = mixedProgramWithHelper(200);
    const TimingRun full = runPipeline(prog, true, true);
    ASSERT_EQ(full.t.arch.outcome, RunOutcome::Exit);
    const uint64_t huge = 1ull << 40;
    const TimingRun sampled =
        runPipeline(prog, true, true, ~uint64_t(0), 0, huge, huge);
    EXPECT_EQ(sampled.t.arch.outcome, RunOutcome::Exit);
    EXPECT_EQ(sampled.t.cycles, full.t.cycles);
    EXPECT_EQ(sampled.t.buckets.issue, full.t.buckets.issue);
    EXPECT_EQ(sampled.t.mispredicts, full.t.mispredicts);
    EXPECT_EQ(sampled.t.sampling.warmedInsts, 0u);
    EXPECT_EQ(sampled.t.sampling.sampledInsts, sampled.t.arch.dynInsts);
    EXPECT_EQ(sampled.t.estimatedCycles(), full.t.cycles);
    EXPECT_EQ(sampled.registry, full.registry);
}

TEST(TraceFeed, SampledRetirementMatchesFull)
{
    // Sampling changes timing only: the architectural stream (and
    // therefore retirement counts and the run outcome) is untouched.
    const Program prog = mixedProgramWithHelper(300);
    const TimingRun full = runPipeline(prog, true, true);
    const TimingRun sampled =
        runPipeline(prog, true, true, ~uint64_t(0), 0, 500, 100);
    EXPECT_EQ(sampled.t.arch.dynInsts, full.t.arch.dynInsts);
    EXPECT_EQ(sampled.t.arch.outcome, full.t.arch.outcome);
    EXPECT_EQ(sampled.t.sampling.sampledInsts +
                  sampled.t.sampling.warmedInsts,
              sampled.t.arch.dynInsts);
    EXPECT_LT(sampled.t.cycles, full.t.cycles);
}

/** Detail JSON with the wall-clock-dependent "host" section removed. */
Json
stripHost(const Json &detail)
{
    Json out = Json::object();
    for (const auto &kv : detail.members()) {
        if (kv.first != "host")
            out[kv.first] = kv.second;
    }
    return out;
}

TEST(TraceFeed, SampledBatchDeterministicAcrossWorkers)
{
    // The same sampled timing job must produce identical results under
    // --jobs 1 and --jobs 4 (sampling state is per-simulator, never
    // shared): run a 4-job batch serially and in parallel and compare
    // everything but the host section.
    std::vector<RunRequest> reqs(4);
    for (size_t i = 0; i < reqs.size(); ++i) {
        RunRequest &req = reqs[i];
        req.id = strFormat("sampled-%zu", i);
        req.workload = "bzip2";
        req.scale = 0.02;
        req.mode = RunMode::Timing;
        req.mfi = true;
        req.samplePeriod = 1000;
        req.sampleDetail = 200;
    }
    SessionConfig serial{1};
    SessionConfig parallel{4};
    const std::vector<RunResponse> a = SimSession(serial).runBatch(reqs);
    const std::vector<RunResponse> b =
        SimSession(parallel).runBatch(reqs);
    ASSERT_EQ(a.size(), reqs.size());
    ASSERT_EQ(b.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        ASSERT_TRUE(a[i].ok) << a[i].error;
        ASSERT_TRUE(b[i].ok) << b[i].error;
        EXPECT_EQ(a[i].cycles, b[i].cycles);
        EXPECT_EQ(a[i].arch.dynInsts, b[i].arch.dynInsts);
        EXPECT_EQ(stripHost(a[i].detail).dump(),
                  stripHost(b[i].detail).dump());
        // And the batch is internally deterministic: same job, same
        // sampled result.
        EXPECT_EQ(a[i].cycles, a[0].cycles);
    }
    // The sampling section made it into the artifact entry.
    ASSERT_TRUE(a[0].detail.isObject());
    const Json &sampling = a[0].detail.at("sampling");
    EXPECT_EQ(sampling.at("period").asUInt(), 1000u);
    EXPECT_EQ(sampling.at("detail").asUInt(), 200u);
}

// ---------------------------------------------------------------------
// Fast register helpers: exhaustive equivalence.
// ---------------------------------------------------------------------

TEST(TraceFeed, FastRegHelpersMatchReferenceExhaustively)
{
    // The feed's hazard walk uses destRegFast()/srcRegListFast();
    // sweep every primary opcode with a dense pattern of operand
    // fields (registers, literal bit, function codes) and require
    // equality with the out-of-line reference on every decodable word.
    uint64_t lcg = 0x2545F4914F6CDD1Dull;
    uint64_t checked = 0;
    for (uint32_t op6 = 0; op6 < 64; ++op6) {
        for (uint32_t k = 0; k < 4096; ++k) {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            const Word w =
                (op6 << 26) | (Word(lcg >> 32) & 0x03ffffffu);
            const DecodedInst inst = decode(w);
            const RegIndex slowDest = inst.destReg();
            const RegIndex fastDest = inst.destRegFast();
            ASSERT_EQ(slowDest, fastDest)
                << strFormat("word 0x%08x: destReg %u vs fast %u", w,
                             unsigned(slowDest), unsigned(fastDest));
            const SrcRegList slow = inst.srcRegList();
            const SrcRegList fast = inst.srcRegListFast();
            ASSERT_EQ(slow.size(), fast.size())
                << strFormat("word 0x%08x", w);
            for (size_t s = 0; s < slow.size(); ++s) {
                ASSERT_EQ(slow.regs[s], fast.regs[s])
                    << strFormat("word 0x%08x src %zu", w, s);
            }
            ++checked;
        }
    }
    EXPECT_EQ(checked, 64u * 4096u);
}

} // namespace
} // namespace dise
