/**
 * @file
 * Assembler and program-image tests: directives, labels, pseudo
 * instructions, branch resolution, error reporting, and basic-block
 * analysis.
 */

#include <gtest/gtest.h>

#include <cctype>

#include "src/assembler/assembler.hpp"
#include "src/common/logging.hpp"
#include "src/common/rng.hpp"
#include "src/isa/disasm.hpp"
#include "src/service/runner.hpp"
#include "src/workloads/generator.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/digest.hpp"

namespace dise {
namespace {

TEST(Assembler, MinimalProgram)
{
    const Program prog = assemble(".text\nmain:\n    nop\n    syscall\n");
    ASSERT_EQ(prog.text.size(), 2u);
    EXPECT_EQ(prog.entry, prog.textBase);
    EXPECT_TRUE(decode(prog.text[0]).isNop());
    EXPECT_EQ(decode(prog.text[1]).cls, OpClass::Syscall);
}

TEST(Assembler, EntryDefaultsToTextStartWithoutMain)
{
    const Program prog = assemble(".text\nstart:\n    nop\n");
    EXPECT_EQ(prog.entry, prog.textBase);
}

TEST(Assembler, MainSymbolSetsEntry)
{
    const Program prog =
        assemble(".text\n    nop\nmain:\n    nop\n");
    EXPECT_EQ(prog.entry, prog.textBase + 4);
}

TEST(Assembler, MemoryOperands)
{
    const Program prog = assemble(
        ".text\n    ldq a0, -8(sp)\n    stq a1, 16(t0)\n    ldbu v0, 0(a0)\n");
    const DecodedInst ld = decode(prog.text[0]);
    EXPECT_EQ(ld.op, Opcode::LDQ);
    EXPECT_EQ(ld.ra, 16);
    EXPECT_EQ(ld.rb, kSpReg);
    EXPECT_EQ(ld.imm, -8);
    EXPECT_EQ(decode(prog.text[1]).op, Opcode::STQ);
    EXPECT_EQ(decode(prog.text[2]).op, Opcode::LDBU);
}

TEST(Assembler, OperateLiteralWithAndWithoutHash)
{
    const Program prog =
        assemble(".text\n    addq t0, #5, t1\n    addq t0, 5, t1\n");
    EXPECT_EQ(prog.text[0], prog.text[1]);
    EXPECT_TRUE(decode(prog.text[0]).useLit);
}

TEST(Assembler, BranchToLabelForwardAndBackward)
{
    const Program prog = assemble(
        ".text\n"
        "top:\n"
        "    nop\n"
        "    beq t0, done\n"
        "    br zero, top\n"
        "done:\n"
        "    nop\n");
    const DecodedInst beq = decode(prog.text[1]);
    const Addr beqPC = prog.textBase + 4;
    EXPECT_EQ(beq.branchTarget(beqPC), prog.symbol("done"));
    const DecodedInst br = decode(prog.text[2]);
    EXPECT_EQ(br.branchTarget(prog.textBase + 8), prog.symbol("top"));
}

TEST(Assembler, RelativeBranchTarget)
{
    const Program prog = assemble(".text\n    br zero, .+3\n");
    EXPECT_EQ(decode(prog.text[0]).imm, 3);
}

TEST(Assembler, JumpForms)
{
    const Program prog =
        assemble(".text\n    jsr ra, (t12)\n    ret zero, (ra)\n    ret\n");
    EXPECT_EQ(decode(prog.text[0]).op, Opcode::JSR);
    EXPECT_EQ(decode(prog.text[0]).rb, 27);
    EXPECT_EQ(prog.text[1], prog.text[2]); // 'ret' expands to ret zero,(ra)
}

TEST(Assembler, PseudoMov)
{
    const Program prog = assemble(".text\n    mov t0, t3\n");
    const DecodedInst inst = decode(prog.text[0]);
    EXPECT_EQ(inst.op, Opcode::OR);
    EXPECT_EQ(inst.ra, 1);
    EXPECT_EQ(inst.rb, kZeroReg);
    EXPECT_EQ(inst.rc, 4);
}

TEST(Assembler, PseudoLiMaterializesConstants)
{
    for (const int64_t v :
         {0l, 1l, -1l, 32767l, -32768l, 65536l, 0x12345678l, -1000000l}) {
        const Program prog =
            assemble(strFormat(".text\n    li %lld, t0\n", (long long)v));
        ASSERT_EQ(prog.text.size(), 2u);
        // Interpret: ldah t0, hi(zero); lda t0, lo(t0).
        const DecodedInst hi = decode(prog.text[0]);
        const DecodedInst lo = decode(prog.text[1]);
        const int64_t value = (hi.imm << 16) + lo.imm;
        EXPECT_EQ(value, v) << v;
    }
}

TEST(Assembler, PseudoLaqResolvesSymbols)
{
    const Program prog = assemble(
        ".text\n    laq arr+16, t0\n    nop\n.data\narr:\n    .quad 0\n");
    const DecodedInst hi = decode(prog.text[0]);
    const DecodedInst lo = decode(prog.text[1]);
    EXPECT_EQ(static_cast<Addr>((hi.imm << 16) + lo.imm),
              prog.symbol("arr") + 16);
}

TEST(Assembler, PseudoCall)
{
    const Program prog =
        assemble(".text\nmain:\n    call f\nf:\n    ret\n");
    const DecodedInst call = decode(prog.text[0]);
    EXPECT_EQ(call.op, Opcode::BSR);
    EXPECT_EQ(call.ra, kRaReg);
    EXPECT_EQ(call.branchTarget(prog.textBase), prog.symbol("f"));
}

TEST(Assembler, DataDirectives)
{
    const Program prog = assemble(
        ".text\n    nop\n"
        ".data\n"
        "a:\n    .quad 1, -1\n"
        "b:\n    .long 258\n"
        "c:\n    .byte 1, 2, 3\n"
        "d:\n    .asciiz \"hi\"\n"
        "e:\n    .align 8\n    .space 16\n");
    EXPECT_EQ(prog.symbol("a"), prog.dataBase);
    EXPECT_EQ(prog.symbol("b"), prog.dataBase + 16);
    EXPECT_EQ(prog.symbol("c"), prog.dataBase + 20);
    EXPECT_EQ(prog.symbol("d"), prog.dataBase + 23);
    // 'e' is at 26, alignment pads to 32.
    EXPECT_EQ(prog.data.size(), 32u + 16u);
    // Little-endian quad of -1.
    for (int i = 8; i < 16; ++i)
        EXPECT_EQ(prog.data[i], 0xff);
    EXPECT_EQ(prog.data[16], 2); // 258 = 0x102
    EXPECT_EQ(prog.data[17], 1);
    EXPECT_EQ(prog.data[20], 1);
    EXPECT_EQ(prog.data[23], 'h');
    EXPECT_EQ(prog.data[25], 0); // NUL
}

TEST(Assembler, QuadWithSymbolArithmetic)
{
    const Program prog = assemble(
        ".text\n    nop\n.data\nx:\n    .quad x+8\ny:\n    .quad 0\n");
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= uint64_t(prog.data[i]) << (8 * i);
    EXPECT_EQ(value, prog.symbol("y"));
}

TEST(Assembler, CommentsAndBlankLines)
{
    const Program prog = assemble(
        ".text\n"
        "; full comment\n"
        "    nop ; trailing\n"
        "\n"
        "    nop // another\n");
    EXPECT_EQ(prog.text.size(), 2u);
}

TEST(Assembler, Codeword)
{
    const Program prog = assemble(".text\n    res0 17, 1, 2, 3\n");
    const DecodedInst cw = decode(prog.text[0]);
    EXPECT_EQ(cw.tag, 17);
    EXPECT_EQ(cw.ra, 1);
}

/** Everything assemble() returns, in one digest. */
void
digestProgram(Digest &d, const Program &prog)
{
    d.u64(prog.text.size());
    for (const Word w : prog.text)
        d.u64(w);
    d.u64(prog.data.size());
    for (const uint8_t b : prog.data)
        d.byte(b);
    d.u64(prog.symbols.size());
    for (const auto &[name, addr] : prog.symbols) {
        d.str(name);
        d.u64(addr);
    }
    d.u64(prog.entry);
    d.u64(prog.stackTop);
}

constexpr double kGoldenScales[] = {1.0, 0.5, 0.1};

/**
 * Program digests recorded from the original istringstream-based
 * assembler, one row per spec2000() program in suite order, one
 * column per kGoldenScales entry.
 */
constexpr uint64_t kSuiteGolden[12][3] = {
    // bzip2
    {0xded2b57a859f5e2cull, 0xe293c9cb667c5160ull, 0xca05454ab921f54eull},
    // crafty
    {0xb5e373f4ecb2b17bull, 0xfd2b118428ca92f9ull, 0xe39af8e2802c2fc1ull},
    // eon
    {0x2cb5f940c739838eull, 0x3acb34d1a1e564c6ull, 0xeeeaf8829ac6a452ull},
    // gap
    {0x8cb9b9afbd1e851cull, 0x1fae227407efa2beull, 0x181213588a74ba76ull},
    // gcc
    {0x69186b1092479ee6ull, 0x7e5bd0bf379d6245ull, 0x4622e7bd6e130a60ull},
    // gzip
    {0x09e3dc0dfec75b17ull, 0x8fa11c4d5250a4b4ull, 0x1de2e0d6b9d02582ull},
    // mcf
    {0x1d7ba9d6a8d32522ull, 0xd57cac7575e41c64ull, 0x1404ec5ff41bf19bull},
    // parser
    {0x87d40a56603aba94ull, 0xfc49d59dacb2b782ull, 0x0c49f5457c9fc1ddull},
    // perlbmk
    {0xbd0273b716aadf8full, 0x13d95c06f5848b8aull, 0x9eed7e6fe4f54f90ull},
    // twolf
    {0x2b38c053d2b11437ull, 0xc798a6f60d983fdcull, 0x50283f2eff91d218ull},
    // vortex
    {0x81bcb537dd0fc237ull, 0xbe14a3a0822320d1ull, 0xc59f9c89aa2356b7ull},
    // vpr
    {0x860c9b561332d5c2ull, 0x16fdb65b8dcc0f5aull, 0x93ca0a7bf03f2500ull},
};

/** The same for generateRandomProgram seeds 1..100, ten per digest. */
constexpr uint64_t kGeneratedGolden[10] = {
    0x25e5b7e8e61d841full, 0x4d96424a33605456ull, 0x9cf35219678cd2faull,
    0x8697fd00dce506e9ull, 0xe19ef3ff79058550ull, 0x097f159e1ebf6bcfull,
    0x40960dbb2287489aull, 0x5b879a5557a13e4bull, 0x08af3ddfd7d033e6ull,
    0x0b2c3e5cf96e59a9ull,
};

TEST(Assembler, GoldenDigests)
{
    ASSERT_EQ(spec2000().size(), 12u);
    for (size_t p = 0; p < spec2000().size(); ++p) {
        for (size_t s = 0; s < 3; ++s) {
            const WorkloadSpec spec =
                scaledSpec(spec2000()[p], kGoldenScales[s]);
            Digest d;
            digestProgram(d, buildWorkload(spec));
            EXPECT_EQ(d.value(), kSuiteGolden[p][s])
                << "golden " << spec.name << " scale " << kGoldenScales[s]
                << " got 0x" << std::hex << d.value();
        }
    }
    for (uint64_t group = 0; group < 10; ++group) {
        Digest d;
        for (uint64_t seed = group * 10 + 1; seed <= group * 10 + 10;
             ++seed) {
            GeneratorOptions gen;
            gen.seed = seed;
            digestProgram(d, generateRandomProgram(gen));
        }
        EXPECT_EQ(d.value(), kGeneratedGolden[group])
            << "golden generated " << group << " got 0x" << std::hex
            << d.value();
    }
}

/** A malformed source and the exact FatalError message it must raise. */
struct AsmErrorCase
{
    const char *source;
    const char *message;
};

/** One case per asmError message (and per out-of-range field). */
const AsmErrorCase kErrorCases[] = {
    // Scan.
    {".data\n    .asciiz hi\n", "asm line 2: expected string literal"},
    {".data\n    .asciiz \"a\\qb\"\n", "asm line 2: bad escape in string"},
    // Layout.
    {".text\nx:\n    nop\nx:\n    nop\n", "asm line 4: duplicate label x"},
    {".text\n    .quad 1\n", "asm line 2: data directive outside .data"},
    {".data\n    nop\n", "asm line 2: instruction outside .text"},
    {".data\n    .space -1\n", "asm line 2: bad .space size"},
    {".data\n    .space\n", "asm line 2: bad .space size"},
    {".data\n    .align 3\n", "asm line 2: bad .align"},
    {".data\n    .align\n", "asm line 2: bad .align"},
    {".data\n    .word 1\n", "asm line 2: unknown directive .word"},
    {".data\n    .space 68719476736\n",
     "asm line 2: data section exceeds 33554432 bytes"},
    {".data\n    .space 33554432\n    .byte 1\n",
     "asm line 3: data section exceeds 33554432 bytes"},
    // Emit.
    {".text\n    beq t0, nowhere\n", "asm line 2: unknown symbol nowhere"},
    {".text\n    addq t0, t1, bogus\n", "asm line 2: bad register bogus"},
    {".text\n    addq $dr1, t0, t1\n",
     "asm line 2: dedicated register $dr1 is not encodable in "
     "application code"},
    {".text\n    ldq t0, 8\n", "asm line 2: bad memory operand 8"},
    {".text\n    ldq t0, x(t1)\n", "asm line 2: bad displacement x"},
    {".text\n    ldq t0, 40000(t1)\n",
     "asm line 2: displacement out of range: 40000"},
    {".text\n    mov t0\n", "asm line 2: mov expects 2 operands, got 1"},
    {".text\n    bogus t0\n", "asm line 2: unknown mnemonic bogus"},
    {".text\n    dbeq t0, done\ndone:\n    nop\n",
     "asm line 2: dbeq is a DISE-internal branch; it may only appear in "
     "replacement sequences"},
    {".text\n    br zero, .+x\n", "asm line 2: bad relative target .+x"},
    {".text\n    br zero, .+2000000\n",
     "asm line 2: branch displacement out of range: 2000000"},
    {".text\n    call 0x40000000\n",
     "asm line 2: branch displacement out of range: 251658239"},
    {".text\nx:\n    br zero, x+2\n", "asm line 3: misaligned branch target"},
    {".text\n    addq t0, 256, t1\n",
     "asm line 2: operate literal must be 0..255: 256"},
    {".text\n    li 2147483648, t0\n",
     "asm line 2: li immediate out of range: 2147483648"},
    {".text\nx:\n    laq x+2147483648, t0\n",
     "asm line 3: laq immediate out of range: 2214592512"},
    {".text\n    li 18446744073709551616, t0\n",
     "asm line 2: integer literal out of range: 18446744073709551616"},
    {".text\n    res0 x, 1, 2, 3\n", "asm line 2: bad codeword fields"},
    {".text\n    res0 3000, 0, 0, 0\n",
     "asm line 2: codeword tag out of range: 3000"},
    {".text\n    res0 17, 40, 0, 0\n",
     "asm line 2: codeword parameter out of range: 40"},
};

TEST(AssemblerErrors, EachCaseRaisesItsMessage)
{
    for (const AsmErrorCase &c : kErrorCases) {
        try {
            assemble(c.source);
            ADD_FAILURE() << "assembled: " << c.source;
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()), c.message) << c.source;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "not a FatalError (" << e.what()
                          << "): " << c.source;
        }
    }
}

/** Small sources for the mutation test: workloads and generator output. */
std::vector<std::string>
mutationBases()
{
    std::vector<std::string> bases;
    for (const char *kernel : {"compress", "sort"}) {
        WorkloadSpec spec = workloadSpec("bzip2");
        spec.kernel = kernel;
        spec.numFunctions = 4;
        spec.idiomsPerBody = 3;
        spec.dataKB = 4;
        bases.push_back(generateWorkloadSource(spec));
    }
    for (uint64_t seed = 1; seed <= 2; ++seed) {
        GeneratorOptions gen;
        gen.seed = seed;
        gen.minIdioms = 4;
        gen.maxIdioms = 8;
        bases.push_back(generateRandomSource(gen));
    }
    return bases;
}

/**
 * One single edit of @p src: drop a token, drop or duplicate a
 * character, or append digits to a number.
 */
std::string
mutate(std::string src, Rng &rng)
{
    auto isSep = [](char c) {
        return c == ',' || std::isspace(static_cast<unsigned char>(c));
    };
    auto isDigit = [](char c) { return c >= '0' && c <= '9'; };
    size_t i = rng.below(src.size());
    switch (rng.below(4)) {
      case 0: { // the token at or after i
        while (i < src.size() && isSep(src[i]))
            ++i;
        size_t end = i;
        while (end < src.size() && !isSep(src[end]))
            ++end;
        while (i > 0 && !isSep(src[i - 1]))
            --i;
        src.erase(i, end - i);
        break;
      }
      case 1:
        src.erase(i, 1);
        break;
      case 2:
        src.insert(i, 1, src[i]);
        break;
      default: { // the number at or after i
        while (i < src.size() && !isDigit(src[i]))
            ++i;
        while (i < src.size() && isDigit(src[i]))
            ++i;
        for (uint64_t n = 1 + rng.below(12); n > 0; --n)
            src.insert(i, 1, char('0' + rng.below(10)));
        break;
      }
    }
    return src;
}

TEST(AssemblerErrors, MutantsAssembleOrRaiseFatalError)
{
    Rng rng(15);
    size_t accepted = 0, rejected = 0, failures = 0;
    testing::internal::CaptureStderr(); // one "fatal:" line per reject
    for (const std::string &base : mutationBases()) {
        for (int m = 0; m < 800; ++m) {
            const std::string mutant = mutate(base, rng);
            try {
                assemble(mutant);
                ++accepted;
            } catch (const FatalError &) {
                ++rejected;
            } catch (const std::exception &e) {
                if (failures++ < 5) {
                    ADD_FAILURE() << "not a FatalError (" << e.what()
                                  << ") for mutant:\n" << mutant;
                }
            }
        }
    }
    testing::internal::GetCapturedStderr();
    EXPECT_EQ(failures, 0u);
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(Program, FetchAndBounds)
{
    const Program prog = assemble(".text\n    nop\n    syscall\n");
    EXPECT_EQ(prog.fetch(prog.textBase + 4), prog.text[1]);
    EXPECT_TRUE(prog.inText(prog.textBase));
    EXPECT_FALSE(prog.inText(prog.textBase + 8));
    EXPECT_FALSE(prog.inText(prog.textBase + 1)); // misaligned
    EXPECT_EQ(prog.textBytes(), 8u);
}

TEST(Program, SegmentIds)
{
    const Program prog = assemble(".text\n    nop\n");
    EXPECT_EQ(prog.dataSegment(), 2u);
    EXPECT_EQ(prog.textBase >> kSegmentShift, 1u);
    EXPECT_EQ(prog.stackTop >> kSegmentShift, prog.dataSegment());
}

TEST(BasicBlocks, LeadersFromBranchesAndSymbols)
{
    const Program prog = assemble(
        ".text\n"
        "main:\n"
        "    nop\n"          // 0: leader (entry)
        "    nop\n"          // 1
        "    beq t0, skip\n" // 2
        "    nop\n"          // 3: leader (fall-through)
        "skip:\n"
        "    nop\n"          // 4: leader (target + symbol)
        "    ret\n"          // 5
        "after:\n"
        "    nop\n");        // 6: leader (symbol + post-control)
    const BasicBlocks bb = analyzeBasicBlocks(prog);
    EXPECT_TRUE(bb.leader[0]);
    EXPECT_FALSE(bb.leader[1]);
    EXPECT_FALSE(bb.leader[2]);
    EXPECT_TRUE(bb.leader[3]);
    EXPECT_TRUE(bb.leader[4]);
    EXPECT_FALSE(bb.leader[5]);
    EXPECT_TRUE(bb.leader[6]);
    ASSERT_EQ(bb.blocks.size(), 4u);
    EXPECT_EQ(bb.blocks[0], (std::pair<uint32_t, uint32_t>{0, 3}));
    EXPECT_EQ(bb.blocks[3], (std::pair<uint32_t, uint32_t>{6, 7}));
}

TEST(BasicBlocks, EmptyProgram)
{
    Program prog;
    const BasicBlocks bb = analyzeBasicBlocks(prog);
    EXPECT_TRUE(bb.blocks.empty());
}

TEST(Disasm, AssemblerRoundTrip)
{
    // Disassembled text re-assembles to the same words.
    const char *src = ".text\n"
                      "    ldq a0, 8(sp)\n"
                      "    addq a0, #5, v0\n"
                      "    mulq t0, t1, t2\n"
                      "    stq v0, -16(sp)\n"
                      "    ret zero, (ra)\n";
    const Program prog = assemble(src);
    std::string round = ".text\n";
    for (const Word w : prog.text)
        round += "    " + disassemble(w) + "\n";
    const Program again = assemble(round);
    EXPECT_EQ(prog.text, again.text);
}

} // namespace
} // namespace dise
