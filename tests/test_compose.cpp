/**
 * @file
 * Composition tests: nested composition (Figure 5 left), non-nested
 * merging (Figure 5 right), dedicated-register renaming, composed-fill
 * flags, and the end-to-end property that composeNested(Y, X) executes
 * exactly Y(X(application)).
 */

#include <gtest/gtest.h>

#include "src/common/logging.hpp"
#include "src/acf/compose.hpp"
#include "src/acf/compress.hpp"
#include "src/acf/mfi.hpp"
#include "src/acf/tracing.hpp"
#include "src/assembler/assembler.hpp"
#include "src/dise/parser.hpp"
#include "src/sim/core.hpp"

namespace dise {
namespace {

Program
storeProgram()
{
    return assemble(".text\n"
                    "main:\n"
                    "    laq buf, t5\n"
                    "    li 7, t0\n"
                    "    stq t0, 8(t5)\n"
                    "    stq t0, 16(t5)\n"
                    "    li 0, v0\n    li 0, a0\n    syscall\n"
                    "error:\n"
                    "    li 0, v0\n    li 42, a0\n    syscall\n"
                    ".data\n"
                    "buf:\n    .space 64\n"
                    "trace:\n    .space 256\n");
}

TEST(Compose, Figure5NestedTracingWithinMfi)
{
    // Fault-isolate traced code: MFI applied over tracing.
    const Program prog = storeProgram();
    MfiOptions mopts;
    mopts.checkJumps = false;
    const ProductionSet mfi = makeMfiProductions(prog, mopts);
    const ProductionSet tracing = makeTracingProductions();

    const ProductionSet composed = composeNested(mfi, tracing);
    // The composed store production: tracing's sequence with both of its
    // stores (the trace append and T.INSN) wrapped in MFI checks:
    // lda + (3 MFI + stq) + lda + (3 MFI + T.INSN) = 10 instructions.
    const DecodedInst st = decode(makeMemory(Opcode::STQ, 1, 2, 0));
    const auto id = composed.match(st);
    ASSERT_TRUE(id.has_value());
    const ReplacementSeq *seq = composed.sequence(*id);
    ASSERT_NE(seq, nullptr);
    EXPECT_EQ(seq->length(), 10u);

    // Functional equivalence: both trace entries written AND checked.
    DiseController controller;
    controller.install(
        std::make_shared<ProductionSet>(composed));
    ExecCore core(prog, &controller);
    initMfiRegisters(core, prog);
    initTracingRegisters(core, prog.symbol("trace"));
    const RunResult result = core.run(10000);
    EXPECT_EQ(result.exitCode, 0);
    const Addr trace = prog.symbol("trace");
    EXPECT_EQ(core.memory().readQuad(trace), prog.symbol("buf") + 8);
    EXPECT_EQ(core.memory().readQuad(trace + 8), prog.symbol("buf") + 16);
    EXPECT_EQ(core.diseRegs()[5], trace + 16);
}

TEST(Compose, NestedCompositionCatchesViolationsInAcfCode)
{
    // When tracing is nested within MFI, even the *tracing* stores are
    // checked: pointing the trace cursor outside the data segment traps.
    const Program prog = storeProgram();
    MfiOptions mopts;
    mopts.checkJumps = false;
    const ProductionSet composed = composeNested(
        makeMfiProductions(prog, mopts), makeTracingProductions());
    DiseController controller;
    controller.install(std::make_shared<ProductionSet>(composed));
    ExecCore core(prog, &controller);
    initMfiRegisters(core, prog);
    initTracingRegisters(core, prog.textBase); // illegal trace buffer
    EXPECT_EQ(core.run(10000).exitCode, 42);
}

TEST(Compose, MergedTracesWithoutCheckingTraceStores)
{
    // Figure 5 right: non-nested composition traces and fault-isolates
    // application stores but not the tracing stores.
    const Program prog = storeProgram();
    MfiOptions mopts;
    mopts.checkJumps = false;
    const ProductionSet merged = composeMerged(
        makeTracingProductions(), makeMfiProductions(prog, mopts));

    // Merged store sequence: 3 tracing + 3 MFI + one shared T.INSN = 7.
    const DecodedInst st = decode(makeMemory(Opcode::STQ, 1, 2, 0));
    const auto id = merged.match(st);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(merged.sequence(*id)->length(), 7u);

    // An out-of-segment trace cursor is NOT caught (tracing stores are
    // unchecked), yet application stores still are.
    DiseController controller;
    controller.install(std::make_shared<ProductionSet>(merged));
    ExecCore core(prog, &controller);
    initMfiRegisters(core, prog);
    initTracingRegisters(core, prog.symbol("trace"));
    const RunResult result = core.run(10000);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_EQ(core.memory().readQuad(prog.symbol("trace")),
              prog.symbol("buf") + 8);

    // Load production from MFI survives unmerged.
    const DecodedInst ld = decode(makeMemory(Opcode::LDQ, 1, 2, 0));
    EXPECT_TRUE(merged.match(ld).has_value());
}

TEST(Compose, MergeRequiresTrailingTriggers)
{
    ProductionSet a = parseProductions("P1: class == load -> R1\n"
                                       "R1: T.INSN\n"
                                       "    lda $dr1, 1($dr1)\n");
    ProductionSet b = parseProductions("P1: class == load -> R2\n"
                                       "R2: T.INSN\n");
    EXPECT_THROW(composeMerged(a, b), FatalError);
}

TEST(Compose, MergeKeepsDisjointProductions)
{
    ProductionSet a = parseProductions("P1: class == load -> R1\n"
                                       "R1: T.INSN\n");
    ProductionSet b = parseProductions("P1: class == store -> R2\n"
                                       "R2: T.INSN\n");
    const ProductionSet merged = composeMerged(a, b);
    EXPECT_EQ(merged.productions().size(), 2u);
}

TEST(Compose, DedicatedScratchRenamedOnCollision)
{
    // Outer uses $dr1 as scratch; inner also uses $dr1 as a live value.
    ProductionSet outer =
        parseProductions("P1: class == store -> R1\n"
                         "R1: srl T.RS, #26, $dr1\n"
                         "    beq $dr1, @0x4000f00\n"
                         "    T.INSN\n");
    ProductionSet inner =
        parseProductions("P1: class == load -> R2\n"
                         "R2: stq $dr1, 0($dr2)\n"
                         "    T.INSN\n");
    const ProductionSet composed = composeNested(outer, inner);
    const DecodedInst ld = decode(makeMemory(Opcode::LDQ, 1, 2, 0));
    const auto id = composed.match(ld);
    ASSERT_TRUE(id.has_value());
    const ReplacementSeq *seq = composed.sequence(*id);
    // Inlined MFI-like check around the inner store must NOT clobber the
    // inner's $dr1.
    for (const auto &rinst : seq->insts) {
        if (rinst.isTriggerInsn)
            continue;
        if (rinst.templ.op == Opcode::SRL) {
            EXPECT_NE(rinst.templ.rc, kDiseRegBase + 1);
        }
    }
}

TEST(Compose, DedicatedRegisterReadByCmovIsNotScratch)
{
    // cmov reads its destination, so the outer $dr1 is read first: a
    // global input that keeps its name even though inner uses $dr1.
    ProductionSet outer =
        parseProductions("P1: class == store -> R1\n"
                         "R1: cmoveq T.RS, $dr3, $dr1\n"
                         "    T.INSN\n");
    ProductionSet inner =
        parseProductions("P1: class == load -> R2\n"
                         "R2: stq $dr1, 0($dr2)\n"
                         "    T.INSN\n");
    const ProductionSet composed = composeNested(outer, inner);
    const auto id =
        composed.match(decode(makeMemory(Opcode::LDQ, 1, 2, 0)));
    ASSERT_TRUE(id.has_value());
    const ReplacementSeq *seq = composed.sequence(*id);
    ASSERT_NE(seq, nullptr);
    ASSERT_EQ(seq->length(), 3u);
    EXPECT_EQ(seq->insts[0].toString(), "cmoveq $dr2, $dr3, $dr1");
}

TEST(Compose, TriggerRolesResolveToTheFieldsTheyName)
{
    // Over every opcode a replacement sequence may hold (all encodable
    // ones but codewords), in register and literal form: an outer
    // "addq T.RS, T.RT, T.RD" inlined over the inner instruction must
    // take the fields DecodedInst::triggerRS/RT/RD() name.
    for (unsigned i = 0; i < unsigned(Opcode::NUM_OPCODES); ++i) {
        const OpInfo &info = opInfo(Opcode(i));
        if (!info.valid || info.cls == OpClass::Codeword)
            continue;
        for (const bool lit : {false, true}) {
            if (lit && info.format != InstFormat::Operate)
                continue;
            DecodedInst t;
            t.op = info.op;
            t.cls = info.cls;
            t.ra = 1;
            t.rb = lit ? 0 : 2;
            t.rc = 3;
            t.useLit = lit;
            ReplacementSeq innerSeq;
            innerSeq.insts = {rLiteral(t), rTriggerInsn()};
            PatternSpec innerPat;
            innerPat.opcode = Opcode::RES0;
            ProductionSet inner;
            inner.addPattern(innerPat,
                             inner.addSequence(std::move(innerSeq)));

            ReplacementInst roles;
            roles.templ.op = Opcode::ADDQ;
            roles.templ.cls = OpClass::IntAlu;
            roles.raDir = RegDirective::TriggerRS;
            roles.rbDir = RegDirective::TriggerRT;
            roles.rcDir = RegDirective::TriggerRD;
            ReplacementSeq outerSeq;
            outerSeq.insts = {roles, rTriggerInsn()};
            PatternSpec outerPat;
            outerPat.opcode = info.op;
            ProductionSet outer;
            outer.addPattern(outerPat,
                             outer.addSequence(std::move(outerSeq)));

            const ProductionSet composed = composeNested(outer, inner);
            const ReplacementSeq *seq =
                composed.sequence(composed.productions()[0].seqId);
            ASSERT_NE(seq, nullptr);
            const ReplacementInst &got = seq->insts[0];
            const std::string what =
                std::string(info.mnemonic) + (lit ? " (literal)" : "");
            EXPECT_EQ(got.raDir, RegDirective::Literal) << what;
            EXPECT_EQ(got.rbDir, RegDirective::Literal) << what;
            EXPECT_EQ(got.rcDir, RegDirective::Literal) << what;
            EXPECT_EQ(unsigned(got.templ.ra), unsigned(t.triggerRS()))
                << what << " T.RS";
            EXPECT_EQ(unsigned(got.templ.rb), unsigned(t.triggerRT()))
                << what << " T.RT";
            EXPECT_EQ(unsigned(got.templ.rc), unsigned(t.triggerRD()))
                << what << " T.RD";
        }
    }
}

TEST(Compose, ComposedSequencesCarryMissHandlerFlag)
{
    // Synthetic aware dictionary with one entry containing a store.
    ProductionSet dict;
    ReplacementSeq entry;
    entry.name = "D0";
    entry.insts.push_back(
        rLiteral(decode(makeMemory(Opcode::STQ, 1, 2, 0))));
    entry.insts.push_back(
        rLiteral(decode(makeOperate(Opcode::ADDQ, 1, 2, 3))));
    dict.addSequenceWithId(0, entry);
    PatternSpec cw;
    cw.opcode = Opcode::RES0;
    dict.addTagPattern(cw, 0);

    const Program prog = storeProgram();
    MfiOptions mopts;
    ComposeOptions copts;
    copts.viaMissHandler = true;
    const ProductionSet composed =
        composeNested(makeMfiProductions(prog, mopts), dict, copts);

    const DecodedInst trigger =
        decode(makeCodeword(Opcode::RES0, 0, 0, 0, 0));
    const auto id = composed.match(trigger);
    ASSERT_TRUE(id.has_value());
    const ReplacementSeq *seq = composed.sequence(*id);
    ASSERT_NE(seq, nullptr);
    EXPECT_TRUE(seq->composeOnFill);
    // MFI was inlined around the entry's store: 3 + 1 + 1 = 5 slots.
    EXPECT_EQ(seq->length(), 5u);
}

TEST(Compose, SamePatternHelper)
{
    PatternSpec a, b;
    a.opclass = OpClass::Load;
    b.opclass = OpClass::Load;
    EXPECT_TRUE(samePattern(a, b));
    b.rs = kSpReg;
    EXPECT_FALSE(samePattern(a, b));
}

/**
 * End-to-end property: composing MFI over the decompression dictionary
 * and running the compressed image retires exactly the same stream as
 * running MFI over the uncompressed program.
 */
TEST(Compose, EqualsFunctionalCompositionOnRealWorkload)
{
    const Program prog = storeProgram();
    MfiOptions mopts;
    const ProductionSet mfi = makeMfiProductions(prog, mopts);

    DiseController refCtl;
    refCtl.install(std::make_shared<ProductionSet>(mfi));
    ExecCore ref(prog, &refCtl);
    initMfiRegisters(ref, prog);
    const RunResult rres = ref.run(100000);

    const auto comp = compressProgram(prog);
    ComposeOptions copts;
    copts.viaMissHandler = true;
    const ProductionSet composed =
        composeNested(mfi, *comp.dictionary, copts);
    DiseController ctl;
    ctl.install(std::make_shared<ProductionSet>(composed));
    ExecCore core(comp.compressed, &ctl);
    initMfiRegisters(core, prog);
    const RunResult cres = core.run(100000);

    EXPECT_EQ(cres.output, rres.output);
    EXPECT_EQ(cres.exitCode, rres.exitCode);
    EXPECT_EQ(cres.dynInsts, rres.dynInsts);
}

TEST(Compose, SandboxComposesOverDictionaries)
{
    // The sandboxing variant re-emits triggers via T.OP/T.RAW; its
    // composition over a decompression dictionary must rewrite the
    // dictionary's memory instructions into masked-base form and behave
    // exactly like sandboxing the uncompressed program.
    const Program prog = storeProgram();
    MfiOptions mopts;
    mopts.variant = MfiVariant::Sandbox;
    const ProductionSet sandbox = makeMfiProductions(prog, mopts);

    DiseController refCtl;
    refCtl.install(std::make_shared<ProductionSet>(sandbox));
    ExecCore ref(prog, &refCtl);
    initMfiRegisters(ref, prog);
    const RunResult rres = ref.run(100000);
    ASSERT_EQ(rres.exitCode, 0);

    const auto comp = compressProgram(prog);
    const ProductionSet composed =
        composeNested(sandbox, *comp.dictionary);
    DiseController ctl;
    ctl.install(std::make_shared<ProductionSet>(composed));
    ExecCore core(comp.compressed, &ctl);
    initMfiRegisters(core, prog);
    const RunResult cres = core.run(100000);
    EXPECT_EQ(cres.output, rres.output);
    EXPECT_EQ(cres.dynInsts, rres.dynInsts);
}

TEST(Compose, TagBlockCompositionPreservesTagLookup)
{
    // A program with enough redundancy to yield several dictionary
    // entries.
    std::string src = ".text\nmain:\n    laq buf, t5\n";
    for (int i = 0; i < 4; ++i) {
        src += "    ldq t0, 0(t5)\n    addq t0, 3, t0\n"
               "    stq t0, 0(t5)\n    nop\n";
        src += "    ldq t1, 8(t5)\n    xor t1, t0, t1\n"
               "    stq t1, 8(t5)\n    nop\n";
    }
    src += "    li 0, v0\n    li 0, a0\n    syscall\n"
           "error:\n    li 0, v0\n    li 42, a0\n    syscall\n"
           ".data\nbuf:\n    .space 64\n";
    const Program prog = assemble(src);
    const auto comp = compressProgram(prog);
    ASSERT_GT(comp.dictEntries, 0u);
    MfiOptions mopts;
    const ProductionSet composed = composeNested(
        makeMfiProductions(prog, mopts), *comp.dictionary);
    // Every original tag must still resolve through the composed set.
    for (uint32_t tag = 0; tag < comp.dictEntries; ++tag) {
        const DecodedInst cw = decode(
            makeCodeword(Opcode::RES0, static_cast<uint16_t>(tag), 0, 0,
                         0));
        const auto id = composed.match(cw);
        ASSERT_TRUE(id.has_value()) << tag;
        EXPECT_NE(composed.sequence(*id), nullptr) << tag;
    }
}

} // namespace
} // namespace dise
