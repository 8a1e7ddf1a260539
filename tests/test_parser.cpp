/**
 * @file
 * Production-DSL parser tests, using the paper's figures as inputs.
 */

#include <gtest/gtest.h>

#include "src/common/logging.hpp"
#include "src/dise/parser.hpp"

namespace dise {
namespace {

TEST(Parser, Figure1MemoryFaultIsolation)
{
    const std::map<std::string, Addr> symbols = {{"error", 0x4000800}};
    const ProductionSet set = parseProductions(
        "P1: class == store -> R1\n"
        "P2: class == load -> R1\n"
        "R1: srl T.RS, #26, $dr1\n"
        "    cmpeq $dr1, $dr2, $dr1\n"
        "    beq $dr1, @error\n"
        "    T.INSN\n",
        symbols);
    EXPECT_EQ(set.productions().size(), 2u);
    ASSERT_EQ(set.sequences().size(), 1u);
    const ReplacementSeq &seq = set.sequences().begin()->second;
    ASSERT_EQ(seq.length(), 4u);
    EXPECT_EQ(seq.insts[0].raDir, RegDirective::TriggerRS);
    EXPECT_TRUE(seq.insts[0].templ.useLit);
    EXPECT_EQ(seq.insts[0].templ.imm, 26);
    EXPECT_EQ(seq.insts[1].templ.ra, kDiseRegBase + 1);
    EXPECT_EQ(seq.insts[1].templ.rb, kDiseRegBase + 2);
    EXPECT_EQ(seq.insts[2].immDir, ImmDirective::AbsTarget);
    EXPECT_EQ(seq.insts[2].templ.imm, 0x4000800);
    EXPECT_TRUE(seq.insts[3].isTriggerInsn);

    // The two patterns share the sequence.
    const DecodedInst st = decode(makeMemory(Opcode::STQ, 1, 2, 0));
    const DecodedInst ld = decode(makeMemory(Opcode::LDQ, 1, 2, 0));
    EXPECT_EQ(*set.match(st), *set.match(ld));
}

TEST(Parser, OpcodeAndRoleConditions)
{
    const ProductionSet set = parseProductions(
        "P1: op == ldq && rs == sp && imm >= 0 -> R1\n"
        "R1: T.INSN\n");
    const auto &pattern = set.productions()[0].pattern;
    EXPECT_EQ(*pattern.opcode, Opcode::LDQ);
    EXPECT_EQ(*pattern.rs, kSpReg);
    EXPECT_EQ(*pattern.immSign, SignConstraint::NonNegative);
}

TEST(Parser, PaperStyleFieldNames)
{
    // Figure 1 spells conditions with T.OPCLASS.
    const ProductionSet set = parseProductions(
        "P1: T.OPCLASS == store -> R1\n"
        "R1: T.INSN\n");
    EXPECT_EQ(*set.productions()[0].pattern.opclass, OpClass::Store);
}

TEST(Parser, ImmediateConditions)
{
    const ProductionSet set = parseProductions(
        "P1: class == condbranch && imm < 0 -> R1\n"
        "P2: imm == 8 -> R1\n"
        "R1: T.INSN\n");
    EXPECT_EQ(*set.productions()[0].pattern.immSign,
              SignConstraint::Negative);
    EXPECT_EQ(*set.productions()[1].pattern.immValue, 8);
}

TEST(Parser, TagTarget)
{
    const ProductionSet set = parseProductions(
        "P1: op == res0 -> tag\n"
        "P2: op == res1 -> tag+100\n");
    EXPECT_TRUE(set.productions()[0].explicitTag);
    EXPECT_EQ(set.productions()[0].seqId, 0u);
    EXPECT_EQ(set.productions()[1].seqId, 100u);
}

TEST(Parser, Figure5StoreAddressTracing)
{
    const ProductionSet set = parseProductions(
        "P3: T.OPCLASS == store -> R3\n"
        "R3: lda $dr4, T.IMM(T.RS)\n"
        "    stq $dr4, 0($dr5)\n"
        "    lda $dr5, 8($dr5)\n"
        "    T.INSN\n");
    const ReplacementSeq &seq = set.sequences().begin()->second;
    ASSERT_EQ(seq.length(), 4u);
    EXPECT_EQ(seq.insts[0].immDir, ImmDirective::TriggerImm);
    EXPECT_EQ(seq.insts[0].rbDir, RegDirective::TriggerRS);
    EXPECT_EQ(seq.insts[0].templ.ra, kDiseRegBase + 4);
}

TEST(Parser, DiseBranches)
{
    const ProductionSet set = parseProductions(
        "P1: class == load -> R1\n"
        "R1: dbne $dr1, +2\n"
        "    nop\n"
        "    nop\n"
        "    T.INSN\n");
    const ReplacementSeq &seq = set.sequences().begin()->second;
    EXPECT_EQ(seq.insts[0].templ.op, Opcode::DBNE);
    EXPECT_EQ(seq.insts[0].templ.imm, 2);
    EXPECT_EQ(seq.insts[0].templ.ra, kDiseRegBase + 1);
}

TEST(Parser, CodewordParamsInSequences)
{
    // Figure 4: lda T.P1, T.P2(T.P1).
    const ProductionSet set = parseProductions(
        "P1: op == res0 -> tag\n"
        "D0: lda T.P1, T.P2(T.P1)\n"
        "    ldq a4, 0(T.P1)\n");
    const ReplacementSeq &seq = set.sequences().begin()->second;
    EXPECT_EQ(seq.insts[0].raDir, RegDirective::Param1);
    EXPECT_EQ(seq.insts[0].rbDir, RegDirective::Param1);
    EXPECT_EQ(seq.insts[0].immDir, ImmDirective::Param2);
    EXPECT_EQ(seq.insts[1].rbDir, RegDirective::Param1);
}

TEST(Parser, ParseSingleReplacementInst)
{
    const ReplacementInst rinst =
        parseReplacementInst("addq T.RS, T.RT, $dr3");
    EXPECT_EQ(rinst.raDir, RegDirective::TriggerRS);
    EXPECT_EQ(rinst.rbDir, RegDirective::TriggerRT);
    EXPECT_EQ(rinst.templ.rc, kDiseRegBase + 3);
}

TEST(Parser, AbsoluteHexTargets)
{
    const ReplacementInst rinst =
        parseReplacementInst("bne $dr1, @0x4000c00");
    EXPECT_EQ(rinst.immDir, ImmDirective::AbsTarget);
    EXPECT_EQ(rinst.templ.imm, 0x4000c00);
}

TEST(Parser, CommentsIgnored)
{
    const ProductionSet set = parseProductions(
        "; memory fault isolation\n"
        "P1: class == load -> R1  ; loads only\n"
        "R1: T.INSN // identity\n");
    EXPECT_EQ(set.productions().size(), 1u);
}

TEST(ParserErrors, UnknownSequence)
{
    EXPECT_THROW(parseProductions("P1: class == load -> NOPE\n"),
                 FatalError);
}

TEST(ParserErrors, UnknownOpcode)
{
    EXPECT_THROW(parseProductions("P1: op == zork -> R1\nR1: T.INSN\n"),
                 FatalError);
}

TEST(ParserErrors, UnknownClass)
{
    EXPECT_THROW(
        parseProductions("P1: class == zork -> R1\nR1: T.INSN\n"),
        FatalError);
}

TEST(ParserErrors, EmptySequence)
{
    EXPECT_THROW(parseProductions("R1:\nP1: class == load -> R1\n"),
                 FatalError);
}

TEST(ParserErrors, InstructionOutsideSequence)
{
    EXPECT_THROW(parseProductions("    addq t0, t1, t2\n"), FatalError);
}

TEST(ParserErrors, CodewordInSequenceRejected)
{
    // No recursive expansion: codewords cannot appear in sequences.
    EXPECT_THROW(parseProductions("P1: class == load -> R1\n"
                                  "R1: res0 1, 2, 3, 4\n"),
                 FatalError);
}

TEST(ParserErrors, RawNumericBranchTargetRejected)
{
    EXPECT_THROW(parseProductions("P1: class == load -> R1\n"
                                  "R1: beq $dr1, 12\n"
                                  "    T.INSN\n"),
                 FatalError);
}

TEST(ParserErrors, UnknownTargetSymbol)
{
    EXPECT_THROW(parseProductions("P1: class == load -> R1\n"
                                  "R1: beq $dr1, @missing\n"
                                  "    T.INSN\n"),
                 FatalError);
}

TEST(ParserErrors, ExplicitIdOutsideSeqIdRejected)
{
    // 2^32 would otherwise run as sequence id 0.
    EXPECT_THROW(parseProductions("P1: class == load -> D@4294967296\n"
                                  "D@4294967296:\n"
                                  "    T.INSN\n"),
                 FatalError);
    const ProductionSet set =
        parseProductions("P1: class == load -> D@4294967295\n"
                         "D@4294967295:\n"
                         "    T.INSN\n");
    EXPECT_NE(set.sequence(4294967295u), nullptr);
}

} // namespace
} // namespace dise
