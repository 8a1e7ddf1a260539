/**
 * @file
 * Translated basic-block engine tests (src/sim/trace.hpp, DESIGN.md
 * section 9): self-modifying code invalidation inside one block and
 * across block boundaries, engine-generation invalidation on table
 * installs and injected table corruption, full fast-vs-slow-path
 * bit-identity (architectural result, engine counters, register file,
 * memory image) on a generated MFI workload, the same identity under
 * tiny RTs and a tiny PT (the expansion memo's stale cases), per-op
 * edge-value identity across the step(), block and replacement-sequence
 * tiers, fusion decisions invalidated by a store just past a block, and
 * a store into the last word of the longest block a translation holds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/acf/mfi.hpp"
#include "src/assembler/assembler.hpp"
#include "src/common/scheduler.hpp"
#include "src/dise/controller.hpp"
#include "src/dise/parser.hpp"
#include "src/service/request.hpp"
#include "src/service/runner.hpp"
#include "src/sim/core.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/trace_streams.hpp"

namespace dise {
namespace {

/**
 * A program that patches a later instruction of its own basic block:
 * the stq overwrites both words of `target`'s li expansion (still
 * straight-line ahead of the store — no intervening control), so a
 * stale translated block would execute the original `li 0, a0` and
 * exit 0 instead of 42.
 */
constexpr const char *kSmcInBlock = R"(.text
main:
    laq donor, t0
    laq target, t1
    ldq t2, 0(t0)
    stq t2, 0(t1)
target:
    li 0, a0
    li 0, v0
    syscall
donor:
    li 42, a0
)";

/**
 * A program that patches an already-executed *other* block: `target` is
 * called once (so its block is translated and cached), then an 8-byte
 * stq rewrites both of its first two instructions, and it is called
 * again. Correct invalidation yields s1 = 0 + 5 = 5; a stale block
 * replays the original add-zero pair and exits 0.
 */
constexpr const char *kSmcCrossBlock = R"(.text
main:
    laq donor, t0
    laq target, t1
    li 0, s0
    li 0, s1
again:
    call target
    addq s0, 1, s0
    cmpeq s0, 2, t2
    beq t2, patch
    mov s1, a0
    li 0, v0
    syscall
patch:
    ldq t2, 0(t0)
    stq t2, 0(t1)
    br zero, again
target:
    addq s1, 0, s1
    addq s1, 0, s1
    ret
donor:
    addq s1, 5, s1
    addq s1, 0, s1
)";

/** Everything two runs must agree on to count as bit-identical. */
struct RunSnapshot
{
    RunResult result;
    std::map<std::string, uint64_t> engineStats;
    std::vector<uint64_t> regs;
    uint64_t memChecksum = 0;
};

void
expectIdentical(const RunSnapshot &fast, const RunSnapshot &slow)
{
    EXPECT_EQ(fast.result.outcome, slow.result.outcome);
    EXPECT_EQ(fast.result.exitCode, slow.result.exitCode);
    EXPECT_EQ(fast.result.output, slow.result.output);
    EXPECT_EQ(fast.result.dynInsts, slow.result.dynInsts);
    EXPECT_EQ(fast.result.appInsts, slow.result.appInsts);
    EXPECT_EQ(fast.result.diseInsts, slow.result.diseInsts);
    EXPECT_EQ(fast.result.expansions, slow.result.expansions);
    EXPECT_EQ(fast.result.loads, slow.result.loads);
    EXPECT_EQ(fast.result.stores, slow.result.stores);
    EXPECT_EQ(fast.result.acfDetections, slow.result.acfDetections);
    EXPECT_EQ(fast.result.trap.cause, slow.result.trap.cause);
    EXPECT_EQ(fast.engineStats, slow.engineStats);
    EXPECT_EQ(fast.regs, slow.regs);
    EXPECT_EQ(fast.memChecksum, slow.memChecksum);
}

/**
 * Run @p prog under MFI productions with the trace cache on or off.
 * When @p midRun is set, the run pauses after @p phase1Insts retired
 * instructions and the callback mutates the engine (table install,
 * corruption, ...) before the run finishes — at an identical point on
 * both paths, since the budget counts retired instructions.
 */
/** Optional fast-path knobs for runMfi (all defaults = stock core). */
struct MfiKnobs
{
    size_t blockCap = 0; ///< nonzero: setTraceBlockCap (eviction)
};

RunSnapshot
runMfi(const Program &prog, bool traceCache,
       const std::function<void(ExecCore &, DiseController &)> &midRun =
           nullptr,
       uint64_t phase1Insts = 0, const MfiKnobs &knobs = {})
{
    MfiOptions opts;
    opts.variant = MfiVariant::Dise3;
    auto set = std::make_shared<const ProductionSet>(
        makeMfiProductions(prog, opts));
    DiseController controller;
    controller.install(set);
    ExecCore core(prog, &controller);
    initMfiRegisters(core, prog);
    core.setTraceCacheEnabled(traceCache);
    if (knobs.blockCap)
        core.setTraceBlockCap(knobs.blockCap);
    if (midRun) {
        core.run(phase1Insts);
        midRun(core, controller);
    }
    RunSnapshot snap;
    snap.result = core.run();
    snap.engineStats = controller.engine().stats().counters();
    for (RegIndex r = 0; r < kNumLogicalRegs; ++r)
        snap.regs.push_back(core.reg(r));
    snap.memChecksum =
        core.memory().checksum(prog.dataBase, uint64_t(1) << 20);
    return snap;
}

Program
smallWorkload(const char *name)
{
    WorkloadSpec spec = workloadSpec(name);
    spec.targetDynInsts = 60000;
    spec.kernelIters = std::max(1u, spec.kernelIters / 16);
    return buildWorkload(spec);
}

TEST(Trace, SmcWithinBlockReexecutesPatchedCode)
{
    const Program prog = assemble(kSmcInBlock);

    ExecCore fast(prog);
    EXPECT_EQ(fast.run().exitCode, 42);

    ExecCore slow(prog);
    slow.setTraceCacheEnabled(false);
    const RunResult ref = slow.run();
    EXPECT_EQ(ref.exitCode, 42);
    EXPECT_EQ(fast.result().dynInsts, ref.dynInsts);
}

TEST(Trace, SmcAcrossBlockBoundaryInvalidatesCachedBlock)
{
    const Program prog = assemble(kSmcCrossBlock);

    ExecCore fast(prog);
    EXPECT_EQ(fast.run().exitCode, 5);

    ExecCore slow(prog);
    slow.setTraceCacheEnabled(false);
    const RunResult ref = slow.run();
    EXPECT_EQ(ref.exitCode, 5);
    EXPECT_EQ(fast.result().dynInsts, ref.dynInsts);
}

TEST(Trace, FastAndSlowPathsBitIdenticalOnMfiWorkload)
{
    const Program prog = smallWorkload("bzip2");
    const RunSnapshot fast = runMfi(prog, true);
    const RunSnapshot slow = runMfi(prog, false);
    EXPECT_GT(fast.result.expansions, 0u);
    expectIdentical(fast, slow);
}

TEST(Trace, NoControllerFastSlowParity)
{
    const Program prog = smallWorkload("gzip");

    ExecCore fast(prog);
    const RunResult a = fast.run();
    ExecCore slow(prog);
    slow.setTraceCacheEnabled(false);
    const RunResult b = slow.run();

    EXPECT_EQ(a.exitCode, b.exitCode);
    EXPECT_EQ(a.dynInsts, b.dynInsts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(fast.memory().checksum(prog.dataBase, uint64_t(1) << 20),
              slow.memory().checksum(prog.dataBase, uint64_t(1) << 20));
}

TEST(Trace, ProductionInstallBumpsGenerationAndStaysIdentical)
{
    const Program prog = smallWorkload("bzip2");

    // Swap the installed production set mid-run (Dise3 -> Dise4): the
    // engine generation must advance, stale traces must be dropped,
    // and both paths must agree on everything that follows.
    uint64_t genBefore = 0, genAfter = 0;
    const auto swapSet = [&](ExecCore &core, DiseController &controller) {
        (void)core;
        genBefore = controller.engine().generation();
        MfiOptions opts;
        opts.variant = MfiVariant::Dise4;
        controller.install(std::make_shared<const ProductionSet>(
            makeMfiProductions(prog, opts)));
        genAfter = controller.engine().generation();
    };

    const RunSnapshot fast = runMfi(prog, true, swapSet, 20000);
    EXPECT_GT(genAfter, genBefore);
    const RunSnapshot slow = runMfi(prog, false, swapSet, 20000);
    expectIdentical(fast, slow);
}

TEST(Trace, ReplacementCorruptionBumpsGenerationAndStaysIdentical)
{
    const Program prog = smallWorkload("bzip2");

    // Flip a bit in a resident RT entry mid-run. The generation bump
    // orphans every translated block, so the garbled replacement is
    // delivered through a fresh expansion on both paths alike.
    uint64_t genBefore = 0, genAfter = 0;
    bool corrupted = false;
    const auto corrupt = [&](ExecCore &core, DiseController &controller) {
        (void)core;
        genBefore = controller.engine().generation();
        corrupted = controller.engine().corruptReplacementEntry(0, 7);
        genAfter = controller.engine().generation();
    };

    const RunSnapshot fast = runMfi(prog, true, corrupt, 20000);
    EXPECT_TRUE(corrupted); // 20k MFI insts leave resident RT entries
    EXPECT_GT(genAfter, genBefore);
    const RunSnapshot slow = runMfi(prog, false, corrupt, 20000);
    expectIdentical(fast, slow);
}

TEST(Trace, FlushTablesBumpsGenerationAndStaysIdentical)
{
    const Program prog = smallWorkload("bzip2");

    uint64_t genBefore = 0, genAfter = 0;
    const auto flush = [&](ExecCore &core, DiseController &controller) {
        (void)core;
        genBefore = controller.engine().generation();
        controller.engine().flushTables();
        genAfter = controller.engine().generation();
    };

    const RunSnapshot fast = runMfi(prog, true, flush, 20000);
    EXPECT_GT(genAfter, genBefore);
    const RunSnapshot slow = runMfi(prog, false, flush, 20000);
    expectIdentical(fast, slow);
}

TEST(Trace, SequenceTrapsIdenticalAcrossPaths)
{
    // Productions whose DISE branch jumps out of range when taken: the
    // pre-translated sequence path must raise the same trap at the
    // same retirement point as the generic path. The second is the
    // longest sequence setProductions accepts, trapping at its last
    // slot: the 16-bit DISEPC record fields must hold that position.
    const Program prog = assemble(".text\n"
                                  "main:\n"
                                  "    laq buf, t5\n"
                                  "    ldq t0, 0(t5)\n"
                                  "    li 0, v0\n    li 0, a0\n"
                                  "    syscall\n"
                                  ".data\n"
                                  "buf:\n    .quad 7\n");
    std::string longest = "P1: class == load -> R1\nR1:";
    for (uint32_t s = 0; s + 1 < kMaxSeqLen; ++s)
        longest += "    lda $dr1, 1($dr1)\n";
    longest += "    dbr zero, +5\n";
    const struct
    {
        std::string productions;
        uint32_t disepc; ///< the trapping slot + 1
    } cases[] = {
        {"P1: class == load -> R1\n"
         "R1: lda $dr1, 1(zero)\n"
         "    dbne $dr1, +9\n"
         "    T.INSN\n",
         2},
        {longest, kMaxSeqLen},
    };

    for (const auto &c : cases) {
        auto set = std::make_shared<ProductionSet>(
            parseProductions(c.productions, prog.symbols));
        RunResult results[2];
        for (int traceCache = 0; traceCache < 2; ++traceCache) {
            DiseController controller;
            controller.install(set);
            ExecCore core(prog, &controller);
            core.setTraceCacheEnabled(traceCache != 0);
            results[traceCache] = core.run();
            EXPECT_EQ(results[traceCache].outcome, RunOutcome::Trap);
            EXPECT_EQ(results[traceCache].trap.cause,
                      TrapCause::DiseBranchOutOfRange);
            EXPECT_EQ(results[traceCache].trap.disepc, c.disepc)
                << "trace cache " << traceCache;
        }
        EXPECT_EQ(results[1].trap.pc, results[0].trap.pc);
        EXPECT_EQ(results[1].trap.faultAddr, results[0].trap.faultAddr);
        EXPECT_EQ(results[1].dynInsts, results[0].dynInsts);
    }
}

TEST(Trace, ChainingEngages)
{
    // The stats counters prove the fast path did what it claims: blocks
    // were translated and block exits went on to their successors.
    const Program prog = smallWorkload("bzip2");
    ExecCore probe(prog);
    probe.run();
    EXPECT_GT(probe.traceCacheStats().chainFollows, 0u);
    EXPECT_GT(probe.traceCacheStats().blocksTranslated, 0u);
}

TEST(Trace, SmcInChainedSuccessorRetranslatesBlock)
{
    // kSmcCrossBlock under chaining: the `call target` exit chains into
    // target's block on the first call; the patch loop then rewrites
    // target's first two instructions, which drops that block from the
    // table, so the second call must translate it afresh instead of
    // running the stale one.
    const Program prog = assemble(kSmcCrossBlock);

    ExecCore fast(prog);
    const RunResult r = fast.run();
    EXPECT_EQ(r.exitCode, 5);
    EXPECT_GT(fast.traceCacheStats().chainFollows, 0u);
    // The rewrite forces a second translation of the target block.
    EXPECT_GT(fast.traceCacheStats().blocksTranslated,
              uint64_t(4)); // distinct static blocks alone would be ~4

    ExecCore slow(prog);
    slow.setTraceCacheEnabled(false);
    const RunResult ref = slow.run();
    EXPECT_EQ(ref.exitCode, 5);
    EXPECT_EQ(r.dynInsts, ref.dynInsts);
}

TEST(Trace, EvictionPressureMidChainStaysIdentical)
{
    // A two-block trace cache capacity forces a whole-cache eviction
    // on nearly every translation — including at a block exit, i.e.
    // *inside* a live chain, where the interpreter still holds raw
    // pointers into the just-evicted blocks (kept alive by the
    // graveyard). Everything must still be bit-identical.
    const Program prog = smallWorkload("bzip2");

    MfiKnobs pressure;
    pressure.blockCap = 2;
    const RunSnapshot fast = runMfi(prog, true, nullptr, 0, pressure);
    const RunSnapshot slow = runMfi(prog, false);
    expectIdentical(fast, slow);

    ExecCore probe(prog);
    probe.setTraceBlockCap(2);
    probe.run();
    EXPECT_GT(probe.traceCacheStats().evictions, 0u);
}

TEST(Trace, MidRunTraceCacheToggleStaysIdentical)
{
    const Program prog = smallWorkload("bzip2");
    const RunSnapshot slow = runMfi(prog, false);

    // Fast start, drop to the slow path mid-run: the translated blocks
    // and the resume cursor become unreachable and must not leak into
    // the rest of the run.
    const RunSnapshot fastThenSlow = runMfi(
        prog, true,
        [](ExecCore &core, DiseController &) {
            core.setTraceCacheEnabled(false);
        },
        20000);
    expectIdentical(fastThenSlow, slow);

    // Slow start, enable the trace cache mid-run: blocks translate
    // and chains form from a mid-program machine state.
    const RunSnapshot slowThenFast = runMfi(
        prog, false,
        [](ExecCore &core, DiseController &) {
            core.setTraceCacheEnabled(true);
        },
        20000);
    expectIdentical(slowThenFast, slow);
}

TEST(Trace, CancelDeadlineStopsTightChainedLoop)
{
    // A two-instruction infinite loop that chains into itself: without
    // the bounded-interval cancel poll, run() would never return (the
    // chain never revisits the dispatcher). ~1k-retirement polling
    // must observe the flag and classify the run as a Hang.
    const Program prog = assemble(".text\n"
                                  "main:\n"
                                  "    li 0, s0\n"
                                  "loop:\n"
                                  "    addq s0, 1, s0\n"
                                  "    br zero, loop\n");
    ExecCore core(prog);
    std::atomic<bool> cancel{false};
    core.setCancelFlag(&cancel);
    std::thread killer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        cancel.store(true, std::memory_order_relaxed);
    });
    const RunResult r = core.run(); // unbounded budget
    killer.join();
    EXPECT_EQ(r.outcome, RunOutcome::Hang);
    EXPECT_FALSE(r.exited);
    EXPECT_GT(r.dynInsts, 0u);
}

TEST(Trace, CancelDeadlineStopsDiseBranchLoop)
{
    // A replacement sequence that is itself an infinite loop (dbr
    // self-branch): the poll after each taken backward DISE branch must
    // observe the deadline — chain-boundary polling alone never fires
    // because the sequence never ends.
    const Program prog = assemble(".text\n"
                                  "main:\n"
                                  "    laq buf, t5\n"
                                  "    ldq t0, 0(t5)\n"
                                  "    li 0, v0\n    li 0, a0\n"
                                  "    syscall\n"
                                  ".data\n"
                                  "buf:\n    .quad 7\n");
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: dbr zero, -1\n"
        "    T.INSN\n",
        prog.symbols));
    DiseController controller;
    controller.install(set);
    ExecCore core(prog, &controller);
    std::atomic<bool> cancel{false};
    core.setCancelFlag(&cancel);
    std::thread killer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        cancel.store(true, std::memory_order_relaxed);
    });
    const RunResult r = core.run();
    killer.join();
    EXPECT_EQ(r.outcome, RunOutcome::Hang);
    EXPECT_GT(r.diseInsts, 0u);
}

TEST(Trace, FastSlowIdentityAcrossWorkerCounts)
{
    // The chained fast path keeps all its state (block table,
    // graveyard, memo slots) inside the core, so concurrent
    // cores on a worker pool must reproduce the single-threaded
    // snapshot exactly.
    const Program prog = smallWorkload("gcc");
    const RunSnapshot referenceFast = runMfi(prog, true);
    const RunSnapshot referenceSlow = runMfi(prog, false);
    expectIdentical(referenceFast, referenceSlow);

    for (unsigned workers : {1u, 4u}) {
        SimScheduler scheduler(workers);
        const std::vector<int> lanes = {0, 1, 2, 3};
        const auto snaps = scheduler.map(lanes, [&](int lane) {
            return runMfi(prog, (lane & 1) == 0);
        });
        for (const RunSnapshot &snap : snaps)
            expectIdentical(snap, referenceFast);
    }
}

/** Run a prepared job under engine configuration @p dise. */
RunSnapshot
runJob(const PreparedJob &job, const DiseConfig &dise, bool traceCache)
{
    DiseController controller(dise);
    controller.install(job.productions);
    ExecCore core(*job.prog, &controller);
    core.setTraceCacheEnabled(traceCache);
    if (job.initCore)
        job.initCore(core);
    RunSnapshot snap;
    snap.result = core.run(job.maxInsts);
    snap.engineStats = controller.engine().stats().counters();
    for (RegIndex r = 0; r < kNumLogicalRegs; ++r)
        snap.regs.push_back(core.reg(r));
    snap.memChecksum =
        core.memory().checksum(job.prog->dataBase, uint64_t(1) << 20);
    return snap;
}

/** Engine counter @p name of @p snap (0 when never incremented). */
uint64_t
counter(const RunSnapshot &snap, const std::string &name)
{
    const auto it = snap.engineStats.find(name);
    return it == snap.engineStats.end() ? 0 : it->second;
}

TEST(Trace, RtResidencyStaysExactUnderEviction)
{
    // expandFast skips the RT probe while a sequence's residency epoch
    // is the live RT content epoch. The default 2048-entry RT never
    // evicts on these workloads, so only tiny RTs reach the stale-epoch
    // cases (a fill evicting a resident slot, one sequence's slots
    // evicting each other). The chained run must match the step()
    // reference in the result, every register and every engine
    // counter.
    struct AcfCase
    {
        const char *name;
        void (*apply)(RunRequest &);
    };
    const AcfCase acfs[] = {
        {"mfi", [](RunRequest &r) { r.mfi = true; }},
        {"compress", [](RunRequest &r) { r.compress = true; }},
        {"mfi:dise4+watchpoint",
         [](RunRequest &r) {
             r.mfi = true;
             r.mfiVariant = MfiVariant::Dise4;
             r.watchpoint = true;
         }},
    };
    const std::pair<uint32_t, uint32_t> rts[] = {{8, 1}, {16, 2}, {64, 4}};
    uint64_t rtMisses = 0;
    for (const char *workload : {"bzip2", "gcc", "mcf"}) {
        for (const AcfCase &acf : acfs) {
            RunRequest req;
            req.workload = workload;
            req.scale = 0.05;
            acf.apply(req);
            const PreparedJob job = prepareJob(req);
            for (const auto &[entries, assoc] : rts) {
                SCOPED_TRACE(std::string(workload) + " " + acf.name +
                             " rt " + std::to_string(entries) + "/" +
                             std::to_string(assoc));
                DiseConfig dise = job.dise;
                dise.rtEntries = entries;
                dise.rtAssoc = assoc;
                const RunSnapshot fast = runJob(job, dise, true);
                const RunSnapshot slow = runJob(job, dise, false);
                EXPECT_GT(fast.result.expansions, 0u);
                expectIdentical(fast, slow);
                rtMisses += counter(fast, "rt_misses");
            }
        }
    }
    EXPECT_GT(rtMisses, 10000u); // the RTs really do thrash

    // A 2-entry PT: PT misses evict patterns between dynamic triggers,
    // so the memo's PT-residency check fails as well.
    RunRequest req;
    req.workload = "gcc";
    req.scale = 0.05;
    acfs[2].apply(req);
    const PreparedJob job = prepareJob(req);
    DiseConfig dise = job.dise;
    dise.ptEntries = 2;
    const RunSnapshot fast = runJob(job, dise, true);
    const RunSnapshot slow = runJob(job, dise, false);
    EXPECT_GT(counter(fast, "pt_misses"), 1000u);
    expectIdentical(fast, slow);
}


/**
 * Macro-op fusion under self-modifying code. `sll s0, 3, t3` at `loop`
 * ends its block (the syscall after it is untranslatable) after
 * deciding "no fuse" by reading `patch`, the word past the block. The
 * first pass rewrites `patch` into `addq t3, s0, t3`, which fuses with
 * the sll as a shift_add pair from then on. The store drops the fusion
 * decision, so it must drop the block too, or the chained path replays
 * the stale unfused slot while step() fuses.
 */
constexpr const char *kFusionSmc = R"(.text
main:
    laq donor, t0
    laq patch, t1
    li 3, s0
    li 2, v0
    br zero, loop
loop:
    sll s0, 3, t3
patch:
    syscall
    ldl t2, 0(t0)
    stl t2, 0(t1)
    subq s0, 1, s0
    bne s0, loop
    mov t3, a0
    li 0, v0
    syscall
donor:
    addq t3, s0, t3
)";

TEST(Trace, FusionSmcPastBlockEndMatchesStep)
{
    const Program prog = assemble(kFusionSmc);

    ExecCore step(prog);
    step.setFusionEnabled(true);
    step.setTraceCacheEnabled(false);
    const std::vector<DynInst> want = drainViaStep(step);
    EXPECT_EQ(step.result().exitCode, 9);
    // Five constant formations plus the shift_add on the two patched
    // passes.
    EXPECT_EQ(step.fusedPairs(), 7u);

    ExecCore chained(prog);
    chained.setFusionEnabled(true);
    const RunResult r = chained.run();
    EXPECT_EQ(r.exitCode, 9);
    EXPECT_EQ(r.dynInsts, step.result().dynInsts);
    EXPECT_EQ(chained.fusedPairs(), step.fusedPairs());

    for (const size_t cap : {size_t(3), size_t(64)}) {
        ExecCore feed(prog);
        feed.setFusionEnabled(true);
        const std::vector<DynInst> got = drainViaFill(feed, cap);
        EXPECT_EQ(feed.fusedPairs(), step.fusedPairs()) << "cap " << cap;
        ASSERT_EQ(got.size(), want.size()) << "cap " << cap;
        for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(sameRecord(got[i], want[i]))
                << "cap " << cap << " record " << i;
        }
    }
}

/**
 * A loop whose first block is as long as a translated block gets: 128
 * slots (the interpreter's kMaxBlockLen) of one word each, or, with
 * @p fused, of one shift_add pair (two words) each. The next block
 * stores into the first one's last word, `patch`, 127 or 255 words past
 * its entry, turning `addq s2, 1, s2` into `addq s2, 11, s2`. The store
 * must drop the long block, so the next two passes add 138 each and s2
 * ends at 128 + 2 * 138 = 404; a stale block replays the old word and
 * ends at 384.
 */
Program
longBlockSmcProgram(bool fused)
{
    const std::string slot = std::string(fused ? "    sll s2, 0, s2\n" : "") +
                             "    addq s2, 1, s2\n";
    std::string body;
    for (int i = 0; i < 127; ++i)
        body += slot;
    return assemble(".text\n"
                    "main:\n"
                    "    laq patch, t0\n"
                    "    laq donor, t3\n"
                    "    ldl t1, 0(t3)\n"
                    "    li 0, s0\n"
                    "    li 0, s2\n"
                    "    br zero, loop\n"
                    "loop:\n" +
                    body + (fused ? "    sll s2, 0, s2\n" : "") +
                    "patch:\n"
                    "    addq s2, 1, s2\n"
                    "    stl t1, 0(t0)\n"
                    "    addq s0, 1, s0\n"
                    "    cmplt s0, 3, t2\n"
                    "    bne t2, loop\n"
                    "    mov s2, a0\n"
                    "    li 0, v0\n"
                    "    syscall\n"
                    "donor:\n"
                    "    addq s2, 11, s2\n");
}

TEST(Trace, SmcIntoLongestBlockRetranslatesIt)
{
    // A text store drops only the blocks whose entries lie within one
    // block's reach before it; the longest blocks sit at the edge of
    // that window.
    for (const bool fused : {false, true}) {
        const Program prog = longBlockSmcProgram(fused);
        const Addr loop = prog.symbols.at("loop");
        ASSERT_EQ(prog.symbols.at("patch") - loop,
                  fused ? 255u * 4 : 127u * 4);

        ExecCore step(prog);
        step.setFusionEnabled(fused);
        step.setTraceCacheEnabled(false);
        const std::vector<DynInst> want = drainViaStep(step);
        EXPECT_EQ(step.result().exitCode, 404) << "fused " << fused;
        // Three passes over 128 pairs, plus the pairs outside the loop.
        EXPECT_GE(step.fusedPairs(), fused ? 3u * 128 : 0u);

        ExecCore chained(prog);
        chained.setFusionEnabled(fused);
        const RunResult r = chained.run();
        EXPECT_EQ(r.exitCode, 404) << "fused " << fused;
        EXPECT_EQ(r.dynInsts, step.result().dynInsts);
        EXPECT_EQ(chained.fusedPairs(), step.fusedPairs());

        ExecCore feed(prog);
        feed.setFusionEnabled(fused);
        const std::vector<DynInst> got = drainViaFill(feed, 1);
        EXPECT_EQ(feed.result().exitCode, 404) << "fused " << fused;
        ASSERT_EQ(got.size(), want.size()) << "fused " << fused;
        for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(sameRecord(got[i], want[i]))
                << "fused " << fused << " record " << i;
        }
    }
}

/**
 * The per-op edge-value body: every op of the translated repertoire
 * (operate ops in register and literal form, cmov, lda/ldah, every
 * load and store width) applied to a0 = vals[i], a1 = vals[j] (t0 =
 * &vals[j]), each result stored to its own slot at s1. Returns the
 * body and writes the bytes it stores per pass to @p passBytes.
 */
std::string
perOpBody(int &passBytes)
{
    std::string body;
    int slot = 0;
    const auto line = [&body](const std::string &inst) {
        body += "    " + inst + "\n";
    };
    const auto result = [&](const std::string &inst) {
        line(inst);
        line("stq t1, " + std::to_string(8 * slot++) + "(s1)");
    };
    for (const char *op :
         {"addq", "subq", "mulq", "and", "bic", "or", "ornot", "xor", "sll",
          "srl", "sra", "cmpeq", "cmplt", "cmple", "cmpult", "cmpule"}) {
        result(std::string(op) + " a0, a1, t1");
        for (const int lit : {0, 1, 63, 64, 255})
            result(std::string(op) + " a0, #" + std::to_string(lit) +
                   ", t1");
    }
    for (const char *op : {"cmoveq", "cmovne"}) {
        // A cmov that does not move leaves t1's old value: seed it.
        line("or s2, zero, t1");
        result(std::string(op) + " a0, a1, t1");
        line("or s3, zero, t1");
        result(std::string(op) + " a0, #7, t1");
    }
    for (const int disp : {0, 1, -1, 32767, -32768}) {
        result("lda t1, " + std::to_string(disp) + "(a0)");
        result("ldah t1, " + std::to_string(disp) + "(a0)");
    }
    // ldl at offset 4 of INT64_MIN, and at 0 of -1 and 0x80000000,
    // reads a word with bit 31 set.
    for (const char *load : {"ldbu t1, 0(t0)", "ldbu t1, 7(t0)",
                             "ldl t1, 0(t0)", "ldl t1, 4(t0)",
                             "ldq t1, 0(t0)"})
        result(load);
    for (const char *store : {"stb", "stl", "stq"})
        line(std::string(store) + " a0, " + std::to_string(8 * slot++) +
             "(s1)");
    passBytes = 8 * slot;
    return body;
}

/**
 * Loop the per-op body over all 8 x 8 edge-operand pairs. The body
 * runs inline (@p inSequence false) or as the non-trigger slots of the
 * replacement sequence of the `xor zero, zero, zero` marker, which
 * follows it either way.
 */
Program
perOpProgram(const std::string &body, int passBytes, bool inSequence)
{
    return assemble(
        ".text\n"
        "main:\n"
        "    laq vals, s0\n"
        "    laq out, s1\n"
        "    li 0, s2\n"
        "outer:\n"
        "    li 0, s3\n"
        "inner:\n"
        "    addq s0, s2, t0\n"
        "    ldq a0, 0(t0)\n"
        "    addq s0, s3, t0\n"
        "    ldq a1, 0(t0)\n" +
        (inSequence ? std::string() : body) +
        "    xor zero, zero, zero\n"
        "    lda s1, " + std::to_string(passBytes) + "(s1)\n"
        "    lda s3, 8(s3)\n"
        "    cmpult s3, 64, t1\n"
        "    bne t1, inner\n"
        "    lda s2, 8(s2)\n"
        "    cmpult s2, 64, t1\n"
        "    bne t1, outer\n"
        "    li 0, v0\n"
        "    li 0, a0\n"
        "    syscall\n"
        ".data\n"
        "vals:\n"
        "    .quad 0, 1, -1, 0x8000000000000000, 0x7fffffffffffffff\n"
        "    .quad 63, 64, 0x80000000\n"
        "out:\n"
        "    .space " + std::to_string(64 * passBytes) + "\n");
}

RunSnapshot
runTier(const Program &prog, bool traceCache,
        std::shared_ptr<const ProductionSet> set = nullptr)
{
    DiseController controller;
    if (set)
        controller.install(set);
    ExecCore core(prog, set ? &controller : nullptr);
    core.setTraceCacheEnabled(traceCache);
    RunSnapshot snap;
    snap.result = core.run();
    snap.engineStats = controller.engine().stats().counters();
    for (RegIndex r = 0; r < kNumLogicalRegs; ++r)
        snap.regs.push_back(core.reg(r));
    snap.memChecksum =
        core.memory().checksum(prog.dataBase, uint64_t(1) << 20);
    return snap;
}

TEST(Trace, PerOpEdgeValuesIdenticalAcrossTiers)
{
    int passBytes = 0;
    const std::string body = perOpBody(passBytes);
    const Program inlineProg = perOpProgram(body, passBytes, false);
    const Program seqProg = perOpProgram(body, passBytes, true);
    const auto set = std::make_shared<const ProductionSet>(
        parseProductions("P1: op == xor -> R1\nR1:\n" + body +
                             "    T.INSN\n",
                         seqProg.symbols));

    // Tier 1: step() with the trace cache off (the oracle).
    const RunSnapshot oracle = runTier(inlineProg, false);
    ASSERT_EQ(oracle.result.outcome, RunOutcome::Exit);
    // Tier 2: the chained block interpreter.
    expectIdentical(runTier(inlineProg, true), oracle);
    // Tier 3: the lowered sequence slots, on the memoized expansion of
    // the marker (every pass after the first hits the expansion cache),
    // checked against the same program on the step() path.
    const RunSnapshot seq = runTier(seqProg, true, set);
    expectIdentical(seq, runTier(seqProg, false, set));
    EXPECT_EQ(seq.result.expansions, 64u);
    EXPECT_GT(seq.engineStats.at("expand_cache_hits"), 0u);

    // The sequence tier computes what the application tiers computed;
    // only the application/DISE split of the retirements differs.
    EXPECT_EQ(seq.regs, oracle.regs);
    EXPECT_EQ(seq.memChecksum, oracle.memChecksum);
    EXPECT_EQ(seq.result.outcome, oracle.result.outcome);
    EXPECT_EQ(seq.result.exitCode, oracle.result.exitCode);
    EXPECT_EQ(seq.result.dynInsts, oracle.result.dynInsts);
    EXPECT_EQ(seq.result.appInsts + seq.result.diseInsts,
              oracle.result.appInsts);
    EXPECT_EQ(seq.result.loads, oracle.result.loads);
    EXPECT_EQ(seq.result.stores, oracle.result.stores);
    EXPECT_EQ(seq.result.acfDetections, oracle.result.acfDetections);
}

} // namespace
} // namespace dise
