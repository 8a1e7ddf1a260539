/**
 * @file
 * Timing-model tests: basic cycle accounting, bandwidth and dependence
 * limits, cache and mispredict penalties, machine-width and cache-size
 * scaling, the three DISE engine placements, and PT/RT fill stalls.
 */

#include <gtest/gtest.h>

#include "src/acf/mfi.hpp"
#include "src/common/logging.hpp"
#include "src/assembler/assembler.hpp"
#include "src/dise/parser.hpp"
#include "src/pipeline/pipeline.hpp"

namespace dise {
namespace {

const char *kEpilogue = "    li 0, v0\n    li 0, a0\n    syscall\n"
                        "error:\n"
                        "    li 0, v0\n    li 42, a0\n    syscall\n";

Program
loopProgram(int iters, const std::string &body)
{
    return assemble(strFormat(".text\nmain:\n    li %d, t0\n", iters) +
                    "loop:\n" + body +
                    "    subq t0, 1, t0\n"
                    "    bne t0, loop\n" +
                    kEpilogue);
}

TimingResult
runTiming(const Program &prog, PipelineParams params = {},
          DiseController *controller = nullptr)
{
    PipelineSim sim(prog, params, controller);
    if (controller)
        initMfiRegisters(sim.core(), prog);
    return sim.run();
}

TEST(Pipeline, CyclesScaleWithInstructions)
{
    // Cold-start effects dominate tiny runs, so compare 100 vs 4000
    // iterations and only require rough proportionality.
    const auto small = runTiming(loopProgram(100, "    nop\n"));
    const auto large = runTiming(loopProgram(4000, "    nop\n"));
    EXPECT_GT(large.cycles, small.cycles * 10);
    EXPECT_TRUE(large.arch.exited);
}

TEST(Pipeline, IpcBoundedByWidth)
{
    const auto result = runTiming(
        loopProgram(2000, "    addq t1, 1, t1\n    addq t2, 1, t2\n"));
    EXPECT_LE(result.ipc(), 4.0);
    EXPECT_GT(result.ipc(), 0.5);
}

TEST(Pipeline, DependenceChainsLimitIpc)
{
    // Eight independent adds vs eight chained adds.
    std::string indep, chained;
    for (int i = 0; i < 8; ++i) {
        indep += strFormat("    addq t%d, 1, t%d\n", i % 4 + 1,
                           i % 4 + 1);
        chained += "    addq t1, 1, t1\n";
    }
    // Make the independent ones truly independent.
    indep = "    addq t1, 1, t1\n    addq t2, 1, t2\n"
            "    addq t3, 1, t3\n    addq t4, 1, t4\n"
            "    addq t5, 1, t5\n    addq t6, 1, t6\n"
            "    addq t7, 1, t7\n    addq t8, 1, t8\n";
    const auto fast = runTiming(loopProgram(2000, indep));
    const auto slow = runTiming(loopProgram(2000, chained));
    EXPECT_LT(fast.cycles, slow.cycles);
}

TEST(Pipeline, MultiplyLatencyCosts)
{
    const auto add =
        runTiming(loopProgram(2000, "    addq t1, 1, t1\n"));
    const auto mul =
        runTiming(loopProgram(2000, "    mulq t1, 1, t1\n"));
    EXPECT_GT(mul.cycles, add.cycles);
}

TEST(Pipeline, WidthScalingHelpsParallelCode)
{
    const std::string body =
        "    addq t1, 1, t1\n    addq t2, 1, t2\n"
        "    addq t3, 1, t3\n    addq t4, 1, t4\n";
    PipelineParams narrow;
    narrow.width = 1;
    PipelineParams wide;
    wide.width = 8;
    const auto n = runTiming(loopProgram(2000, body), narrow);
    const auto w = runTiming(loopProgram(2000, body), wide);
    EXPECT_GT(double(n.cycles) / double(w.cycles), 1.8);
}

TEST(Pipeline, MispredictsCostCycles)
{
    // A data-dependent unpredictable branch pattern (xorshift-driven;
    // an LCG's low bit alternates and gshare would learn it) vs a fixed
    // one. The loop program seeds t1 via an earlier li in the body.
    const char *flaky =
        "    bne t1, seeded\n"
        "    li 88675123, t1\n"
        "seeded:\n"
        "    sll t1, 13, t4\n"
        "    xor t1, t4, t1\n"
        "    srl t1, 7, t4\n"
        "    xor t1, t4, t1\n"
        "    sll t1, 17, t4\n"
        "    xor t1, t4, t1\n"
        "    blbs t1, skip\n"
        "    addq t2, 1, t2\n"
        "skip:\n";
    const char *steady = "    blbs zero, skip\n"
                         "    addq t2, 1, t2\n"
                         "skip:\n";
    const auto f = runTiming(loopProgram(3000, flaky));
    const auto s = runTiming(loopProgram(3000, steady));
    EXPECT_GT(f.mispredicts, s.mispredicts + 500);
}

TEST(Pipeline, ICacheMissesStallFetch)
{
    // A code footprint larger than a tiny I-cache, looped.
    std::string big = ".text\nmain:\n    li 30, t0\nloop:\n";
    for (int i = 0; i < 2048; ++i)
        big += "    addq t1, 1, t1\n";
    big += "    subq t0, 1, t0\n    bne t0, loop\n";
    big += kEpilogue;
    const Program prog = assemble(big);
    PipelineParams tiny;
    tiny.mem.l1iSize = 2 * 1024;
    PipelineParams fits;
    fits.mem.l1iSize = 64 * 1024;
    const auto t = runTiming(prog, tiny);
    const auto f = runTiming(prog, fits);
    EXPECT_GT(t.icacheMisses, f.icacheMisses * 4);
    EXPECT_GT(t.cycles, f.cycles);
}

TEST(Pipeline, PerfectICacheConfigWorks)
{
    PipelineParams params;
    params.mem.l1iSize = 0;
    const auto result =
        runTiming(loopProgram(500, "    addq t1, 1, t1\n"), params);
    EXPECT_EQ(result.icacheMisses, 0u);
}

TEST(Pipeline, DCacheMissesSlowLoads)
{
    // Stride through 1MB: every load misses a 32KB D-cache.
    const Program prog = assemble(
        ".text\nmain:\n"
        "    laq arr, t5\n"
        "    li 4000, t0\n"
        "loop:\n"
        "    ldq t1, 0(t5)\n"
        "    lda t5, 256(t5)\n"
        "    subq t0, 1, t0\n"
        "    bne t0, loop\n" +
        std::string(kEpilogue) + ".data\narr:\n    .space 1048576\n");
    const auto result = runTiming(prog);
    EXPECT_GT(result.dcacheMisses, 3000u);
    const auto denseProg = assemble(
        ".text\nmain:\n"
        "    laq arr, t5\n"
        "    li 4000, t0\n"
        "loop:\n"
        "    ldq t1, 0(t5)\n"
        "    subq t0, 1, t0\n"
        "    bne t0, loop\n" +
        std::string(kEpilogue) + ".data\narr:\n    .space 1048576\n");
    const auto dense = runTiming(denseProg);
    EXPECT_GT(result.cycles, dense.cycles);
}

TEST(Pipeline, RobOccupancyLimitsMemoryParallelism)
{
    // A stream of independent missing loads: a large ROB overlaps many
    // misses; a tiny ROB serializes them.
    std::string src = ".text\nmain:\n    laq arr, t5\n    li 500, t0\n"
                      "    li 32768, t7\n"
                      "loop:\n";
    for (int i = 0; i < 8; ++i)
        src += strFormat("    ldq t%d, %d(t5)\n", i % 4 + 1, i * 4096);
    src += "    addq t5, t7, t5\n"
           "    subq t0, 1, t0\n"
           "    bne t0, loop\n";
    src += kEpilogue;
    src += ".data\narr:\n    .space 16777216\n";
    const Program prog = assemble(src);
    PipelineParams big;
    big.robEntries = 128;
    PipelineParams tiny;
    tiny.robEntries = 8;
    tiny.rsEntries = 8;
    const auto b = runTiming(prog, big);
    const auto t = runTiming(prog, tiny);
    EXPECT_GT(double(t.cycles), double(b.cycles) * 1.3);
}

TEST(Pipeline, RsOccupancyLimitsIssueWindow)
{
    // A long multiply chain with independent work behind it: a large RS
    // lets the independent adds issue past the stalled chain.
    std::string body;
    body += "    mulq t1, 3, t1\n    mulq t1, 5, t1\n";
    for (int i = 0; i < 6; ++i)
        body += strFormat("    addq t%d, 1, t%d\n", i % 3 + 2,
                          i % 3 + 2);
    const Program prog = loopProgram(2000, body);
    PipelineParams big;
    PipelineParams tiny;
    tiny.rsEntries = 4;
    const auto b = runTiming(prog, big);
    const auto t = runTiming(prog, tiny);
    EXPECT_GE(t.cycles, b.cycles);
}

TEST(Pipeline, DeterministicAcrossRuns)
{
    const Program prog = loopProgram(1000, "    addq t1, 1, t1\n");
    const auto a = runTiming(prog);
    const auto b = runTiming(prog);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
}

TEST(Pipeline, InstructionCapYieldsHangOutcome)
{
    const Program prog =
        assemble(".text\nmain:\n    br zero, main\n");
    PipelineSim sim(prog, PipelineParams{});
    const auto result = sim.run(500);
    EXPECT_EQ(result.arch.outcome, RunOutcome::Hang);
    EXPECT_FALSE(result.arch.exited);
    EXPECT_EQ(result.arch.dynInsts, 500u);
}

TEST(Pipeline, CycleBudgetYieldsHangOutcome)
{
    const Program prog =
        assemble(".text\nmain:\n    br zero, main\n");
    PipelineSim sim(prog, PipelineParams{});
    const auto result = sim.run(~uint64_t(0), /*maxCycles=*/2000);
    EXPECT_EQ(result.arch.outcome, RunOutcome::Hang);
    // The run stopped within a commit-group of the budget, not at the
    // instruction cap.
    EXPECT_GT(result.cycles, 2000u);
    EXPECT_LT(result.cycles, 4000u);
}

TEST(Pipeline, ArchResultsMatchFunctionalRun)
{
    const Program prog = loopProgram(100, "    addq t1, 3, t1\n");
    ExecCore core(prog);
    const RunResult func = core.run();
    const auto timing = runTiming(prog);
    EXPECT_EQ(timing.arch.dynInsts, func.dynInsts);
    EXPECT_EQ(timing.arch.output, func.output);
    EXPECT_EQ(timing.arch.exitCode, func.exitCode);
}

// ---- DISE engine placement and miss modeling. ----

Program
memLoop()
{
    return assemble(".text\nmain:\n"
                    "    laq buf, t5\n"
                    "    li 2000, t0\n"
                    "loop:\n"
                    "    stq t0, 0(t5)\n"
                    "    ldq t1, 0(t5)\n"
                    "    subq t0, 1, t0\n"
                    "    bne t0, loop\n" +
                    std::string(kEpilogue) +
                    ".data\nbuf:\n    .quad 0\n");
}

TimingResult
runMfiPlacement(DisePlacement placement, uint32_t rtEntries = 0,
                uint32_t rtAssoc = 2)
{
    const Program prog = memLoop();
    MfiOptions mopts;
    auto set =
        std::make_shared<ProductionSet>(makeMfiProductions(prog, mopts));
    DiseConfig config;
    config.placement = placement;
    config.rtEntries = rtEntries;
    config.rtAssoc = rtAssoc;
    DiseController controller(config);
    controller.install(set);
    PipelineParams params;
    PipelineSim sim(prog, params, &controller);
    initMfiRegisters(sim.core(), prog);
    return sim.run();
}

TEST(PipelineDise, ExpansionAddsWork)
{
    const auto base = runTiming(memLoop());
    const auto mfi = runMfiPlacement(DisePlacement::Free);
    EXPECT_GT(mfi.cycles, base.cycles);
    EXPECT_GT(mfi.arch.diseInsts, 0u);
    EXPECT_EQ(mfi.arch.exitCode, 0);
}

TEST(PipelineDise, PlacementOrdering)
{
    const auto free = runMfiPlacement(DisePlacement::Free);
    const auto stall = runMfiPlacement(DisePlacement::Stall);
    const auto pipe = runMfiPlacement(DisePlacement::Pipe);
    // One stall per expansion is the most expensive option under heavy
    // expansion; the extra pipe stage sits between.
    EXPECT_GT(stall.cycles, pipe.cycles);
    EXPECT_GE(pipe.cycles, free.cycles);
    EXPECT_GT(stall.expansionStalls, 0u);
}

TEST(PipelineDise, PipePlacementTaxesMispredicts)
{
    // With an unpredictable branch, the deeper pipe costs more even
    // without any expansions (ACF-free code).
    const Program prog = loopProgram(
        3000, "    mulq t1, 97, t1\n    addq t1, 13, t1\n"
              "    blbs t1, skip\n    addq t2, 1, t2\nskip:\n");
    auto emptySet = std::make_shared<ProductionSet>();
    DiseConfig pipeCfg;
    pipeCfg.placement = DisePlacement::Pipe;
    DiseController pipeCtl(pipeCfg);
    pipeCtl.install(emptySet);
    PipelineParams params;
    const auto pipe = runTiming(prog, params, &pipeCtl);

    DiseConfig stallCfg;
    stallCfg.placement = DisePlacement::Stall;
    DiseController stallCtl(stallCfg);
    stallCtl.install(emptySet);
    const auto stall = runTiming(prog, params, &stallCtl);

    // No expansions happen in either: stall-mode then costs nothing,
    // pipe-mode pays on every mispredict.
    EXPECT_EQ(stall.expansionStalls, 0u);
    EXPECT_GT(pipe.cycles, stall.cycles);
}

TEST(PipelineDise, RtMissesFlushAndStall)
{
    // Two distinct length-4 sequences (ids 1 and 2) whose RT sets fully
    // overlap in an 8-entry direct-mapped RT: the alternating store/load
    // triggers of the loop thrash it, while a perfect RT pays only the
    // cold PT fills.
    const Program prog = memLoop();
    auto makeSet = [&]() {
        return std::make_shared<ProductionSet>(parseProductions(
            "P1: class == store -> R1\n"
            "P2: class == load -> R2\n"
            "R1: srl T.RS, #26, $dr1\n"
            "    cmpeq $dr1, $dr2, $dr1\n"
            "    beq $dr1, @error\n"
            "    T.INSN\n"
            "R2: srl T.RS, #26, $dr4\n"
            "    cmpeq $dr4, $dr2, $dr4\n"
            "    beq $dr4, @error\n"
            "    T.INSN\n",
            prog.symbols));
    };
    auto runWith = [&](uint32_t rtEntries) {
        DiseConfig config;
        config.placement = DisePlacement::Pipe;
        config.rtEntries = rtEntries;
        config.rtAssoc = 1;
        DiseController controller(config);
        controller.install(makeSet());
        PipelineParams params;
        PipelineSim sim(prog, params, &controller);
        initMfiRegisters(sim.core(), prog);
        return sim.run();
    };
    const auto perfect = runWith(0);
    const auto tiny = runWith(8);
    EXPECT_GT(tiny.missStallCycles, perfect.missStallCycles + 1000);
    EXPECT_GT(tiny.cycles, perfect.cycles);
}

TEST(PipelineDise, UnpredictedSequenceBranchesCost)
{
    // An expansion with an internal always-taken DISE branch pays a
    // mispredict-like redirect on every expansion.
    const Program prog = memLoop();
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == store -> R1\n"
        "R1: dbr zero, +1\n"
        "    nop\n"
        "    T.INSN\n",
        prog.symbols));
    DiseConfig config;
    DiseController controller(config);
    controller.install(set);
    PipelineParams params;
    PipelineSim sim(prog, params, &controller);
    const auto result = sim.run();
    EXPECT_GT(result.diseMispredicts, 1900u);
}

TEST(PipelineDise, SequenceLevelPredictionLearnsLoopBranches)
{
    // A production that expands the loop's own conditional branch: the
    // trigger-PC prediction must learn it just like the unexpanded one.
    const Program prog = memLoop();
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == condbranch -> R1\n"
        "R1: lda $dr4, 1($dr4)\n"
        "    T.INSN\n",
        prog.symbols));
    DiseController controller;
    controller.install(set);
    PipelineParams params;
    PipelineSim sim(prog, params, &controller);
    const auto result = sim.run();
    // ~2000 loop iterations: a handful of mispredicts at most.
    EXPECT_LT(result.mispredicts + result.diseMispredicts, 100u);
    EXPECT_EQ(result.arch.exitCode, 0);
}

// ---- Cycle-accounting breakdown (CycleBreakdown). ----

TEST(PipelineBuckets, SumToTotalAcrossFixtures)
{
    // run() asserts buckets.total() == cycles internally on every run;
    // re-check the reported struct across fixtures whose dominant
    // stall sources differ (compute, memory, the DISE placements).
    const TimingResult fixtures[] = {
        runTiming(loopProgram(2000, "    addq t1, 1, t1\n")),
        runTiming(memLoop()),
        runMfiPlacement(DisePlacement::Free),
        runMfiPlacement(DisePlacement::Stall),
        runMfiPlacement(DisePlacement::Pipe),
        runMfiPlacement(DisePlacement::Pipe, 8, 1), // RT thrash
    };
    for (const TimingResult &t : fixtures) {
        EXPECT_EQ(t.buckets.total(), t.cycles);
        EXPECT_GT(t.buckets.issue, 0u);
    }
}

TEST(PipelineBuckets, BranchFlushChargedForMispredicts)
{
    // Same xorshift-driven unpredictable branch as
    // Pipeline.MispredictsCostCycles.
    const char *flaky =
        "    bne t1, seeded\n"
        "    li 88675123, t1\n"
        "seeded:\n"
        "    sll t1, 13, t4\n"
        "    xor t1, t4, t1\n"
        "    srl t1, 7, t4\n"
        "    xor t1, t4, t1\n"
        "    sll t1, 17, t4\n"
        "    xor t1, t4, t1\n"
        "    blbs t1, skip\n"
        "    addq t2, 1, t2\n"
        "skip:\n";
    const char *steady = "    blbs zero, skip\n"
                         "    addq t2, 1, t2\n"
                         "skip:\n";
    const auto f = runTiming(loopProgram(3000, flaky));
    const auto s = runTiming(loopProgram(3000, steady));
    EXPECT_GT(f.mispredicts, s.mispredicts + 500);
    EXPECT_GT(f.buckets.branchFlush, s.buckets.branchFlush);
    EXPECT_EQ(f.buckets.total(), f.cycles);
}

TEST(PipelineBuckets, DmissStallChargedForMissingLoads)
{
    // Strided dependent loads: every load misses a 32KB D-cache and
    // its consumer puts the miss latency on the commit critical path.
    const Program prog = assemble(
        ".text\nmain:\n"
        "    laq arr, t5\n"
        "    li 2000, t0\n"
        "loop:\n"
        "    ldq t1, 0(t5)\n"
        "    addq t1, t1, t2\n"
        "    lda t5, 256(t5)\n"
        "    subq t0, 1, t0\n"
        "    bne t0, loop\n" +
        std::string(kEpilogue) + ".data\narr:\n    .space 1048576\n");
    const auto t = runTiming(prog);
    EXPECT_GT(t.dcacheMisses, 1000u);
    EXPECT_GT(t.buckets.dmissStall, 0u);
    EXPECT_EQ(t.buckets.total(), t.cycles);
}

TEST(PipelineBuckets, ImissStallChargedForColdCode)
{
    // A code footprint much larger than a 2KB I-cache, looped.
    std::string big = ".text\nmain:\n    li 30, t0\nloop:\n";
    for (int i = 0; i < 2048; ++i)
        big += "    addq t1, 1, t1\n";
    big += "    subq t0, 1, t0\n    bne t0, loop\n";
    big += kEpilogue;
    PipelineParams tiny;
    tiny.mem.l1iSize = 2 * 1024;
    const auto t = runTiming(assemble(big), tiny);
    EXPECT_GT(t.icacheMisses, 1000u);
    EXPECT_GT(t.buckets.imissStall, 0u);
    EXPECT_EQ(t.buckets.total(), t.cycles);
}

TEST(PipelineBuckets, DiseStallChargedForExpansionOverheads)
{
    // Stall placement: one front-end stall per expansion.
    const auto stall = runMfiPlacement(DisePlacement::Stall);
    EXPECT_GT(stall.expansionStalls, 0u);
    EXPECT_GT(stall.buckets.diseStall, 0u);
    // RT thrashing: PT/RT fill stalls land in the same bucket.
    const auto thrash = runMfiPlacement(DisePlacement::Pipe, 8, 1);
    EXPECT_GT(thrash.missStallCycles, 0u);
    EXPECT_GT(thrash.buckets.diseStall, 0u);
    EXPECT_EQ(thrash.buckets.total(), thrash.cycles);
}

/**
 * Timing checkpoints: stopping a run on its instruction budget, saving
 * a TimingSnapshot, and resuming — in the same simulator or a freshly
 * constructed one — must reproduce the uninterrupted run bit for bit:
 * cycles, every accounting bucket, cache misses, mispredicts, and all
 * architectural counters.
 */
TEST(Pipeline, TimingSnapshotSplitRunMatchesUninterrupted)
{
    const Program prog = loopProgram(800,
                                     "    ldq t2, 0(t5)\n"
                                     "    addq t3, t2, t3\n"
                                     "    stq t3, 0(t5)\n");
    PipelineParams params;
    params.mem.l1dSize = 1024; // small caches: real miss traffic
    params.mem.l1iSize = 1024;

    PipelineSim ref(prog, params);
    const TimingResult want = ref.run();
    ASSERT_EQ(want.arch.outcome, RunOutcome::Exit);

    // Split run in one simulator: budget expiry, then resume.
    PipelineSim split(prog, params);
    const TimingResult mid = split.run(1000);
    ASSERT_EQ(mid.arch.outcome, RunOutcome::Hang); // budget, not exit
    TimingSnapshot snap;
    split.saveSnapshot(snap);
    const TimingResult got = split.run();

    // Restore into a fresh simulator and finish there too.
    PipelineSim fresh(prog, params);
    fresh.restoreSnapshot(snap);
    const TimingResult got2 = fresh.run();

    for (const TimingResult *r : {&got, &got2}) {
        EXPECT_EQ(r->cycles, want.cycles);
        EXPECT_EQ(r->buckets.issue, want.buckets.issue);
        EXPECT_EQ(r->buckets.imissStall, want.buckets.imissStall);
        EXPECT_EQ(r->buckets.dmissStall, want.buckets.dmissStall);
        EXPECT_EQ(r->buckets.branchFlush, want.buckets.branchFlush);
        EXPECT_EQ(r->buckets.diseStall, want.buckets.diseStall);
        EXPECT_EQ(r->buckets.hazard, want.buckets.hazard);
        EXPECT_EQ(r->buckets.drain, want.buckets.drain);
        EXPECT_EQ(r->mispredicts, want.mispredicts);
        EXPECT_EQ(r->icacheMisses, want.icacheMisses);
        EXPECT_EQ(r->dcacheMisses, want.dcacheMisses);
        EXPECT_EQ(r->l2Misses, want.l2Misses);
        EXPECT_EQ(r->arch.outcome, want.arch.outcome);
        EXPECT_EQ(r->arch.dynInsts, want.arch.dynInsts);
        EXPECT_EQ(r->arch.output, want.arch.output);
    }
}

/**
 * A timing checkpoint holds the ROB and RS occupancy rings at the size
 * of the machine that saved it, so restoring it into a machine with
 * another ROB or RS size must panic — before the restore changes any
 * state: the refused machine then runs exactly as a fresh one.
 */
TEST(Pipeline, TimingSnapshotRefusesOtherMachineShape)
{
    const Program prog = loopProgram(300,
                                     "    ldq t2, 0(t5)\n"
                                     "    addq t3, t2, t3\n"
                                     "    stq t3, 0(t5)\n");
    const PipelineParams params; // 128-entry ROB, 80 RS entries
    PipelineSim saved(prog, params);
    ASSERT_EQ(saved.run(500).arch.outcome, RunOutcome::Hang);
    TimingSnapshot snap;
    saved.saveSnapshot(snap);

    PipelineParams smallRob = params;
    smallRob.robEntries = 64;
    PipelineParams smallRs = params;
    smallRs.rsEntries = 40;
    for (const PipelineParams &other : {smallRob, smallRs}) {
        PipelineSim refused(prog, other);
        EXPECT_THROW(refused.restoreSnapshot(snap), PanicError);
        const TimingResult got = refused.run();
        const TimingResult want = PipelineSim(prog, other).run();
        EXPECT_EQ(got.arch.outcome, RunOutcome::Exit);
        EXPECT_EQ(got.arch.dynInsts, want.arch.dynInsts);
        EXPECT_EQ(got.cycles, want.cycles);
    }

    PipelineSim same(prog, params);
    EXPECT_NO_THROW(same.restoreSnapshot(snap));
}

} // namespace
} // namespace dise
