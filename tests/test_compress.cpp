/**
 * @file
 * Code-compression tests: candidate rules, greedy selection, codeword
 * encoding, parameterized dictionary sharing, PC-relative branch
 * compression, size accounting for every Figure 7 design point, and
 * compress/decompress round-trip execution, far-branch occurrences,
 * and golden digests pinning the compressor's exact output over the
 * workload suite and generated programs.
 */

#include <gtest/gtest.h>

#include "src/acf/compress.hpp"
#include "src/assembler/assembler.hpp"
#include "src/common/rng.hpp"
#include "src/dise/controller.hpp"
#include "src/dise/serialize.hpp"
#include "src/sim/core.hpp"
#include "src/workloads/generator.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/digest.hpp"

namespace dise {
namespace {

/** Run a program (optionally compressed) and return the result. */
RunResult
runProgram(const Program &prog,
           std::shared_ptr<ProductionSet> dict = nullptr,
           bool traceCache = true)
{
    DiseController controller;
    if (dict)
        controller.install(dict);
    ExecCore core(prog, dict ? &controller : nullptr);
    core.setTraceCacheEnabled(traceCache);
    return core.run(1000000);
}

/** A program with a thrice-repeated 3-instruction idiom. */
Program
redundantProgram()
{
    std::string src = ".text\nmain:\n    laq buf, t5\n    li 0, t1\n";
    for (int i = 0; i < 3; ++i) {
        src += "    ldq t2, 0(t5)\n"
               "    addq t2, t1, t2\n"
               "    stq t2, 0(t5)\n";
        src += strFormat("    addq t1, %d, t1\n", i); // break repetition
    }
    src += "    mov t1, a0\n    li 2, v0\n    syscall\n"
           "    li 0, v0\n    li 0, a0\n    syscall\n"
           ".data\nbuf:\n    .quad 0\n";
    return assemble(src);
}

TEST(Compress, FindsRepeatedSequences)
{
    CompressorOptions opts;
    opts.maxParams = 0;
    opts.dictEntryBytes = 4;
    const auto result = compressProgram(redundantProgram(), opts);
    EXPECT_GE(result.dictEntries, 1u);
    EXPECT_GE(result.codewords, 3u);
    EXPECT_LT(result.compressedTextBytes, result.originalTextBytes);
}

TEST(Compress, RoundTripExecution)
{
    const Program prog = redundantProgram();
    const RunResult native = runProgram(prog);
    const auto result = compressProgram(prog);
    const RunResult comp = runProgram(result.compressed,
                                      result.dictionary);
    EXPECT_EQ(comp.output, native.output);
    EXPECT_EQ(comp.exitCode, native.exitCode);
    // Decompression recreates the original stream instruction for
    // instruction.
    EXPECT_EQ(comp.dynInsts, native.dynInsts);
}

TEST(Compress, ParameterizationUnifiesRegisterVariants)
{
    // The same idiom over three different register sets: without
    // parameters three entries (or none profitable), with parameters one
    // shared entry.
    std::string src = ".text\nmain:\n    laq buf, t5\n";
    const char *regs[3][2] = {{"t0", "t1"}, {"t2", "t3"}, {"t6", "t7"}};
    for (auto &r : regs) {
        src += strFormat("    ldq %s, 0(t5)\n", r[0]);
        src += strFormat("    addq %s, 1, %s\n", r[0], r[1]);
        src += strFormat("    stq %s, 0(t5)\n", r[1]);
        src += "    nop\n";
    }
    src += "    li 0, v0\n    li 0, a0\n    syscall\n"
           ".data\nbuf:\n    .quad 0\n";
    const Program prog = assemble(src);

    CompressorOptions withParams;
    withParams.maxParams = 3;
    const auto param = compressProgram(prog, withParams);
    CompressorOptions noParams;
    noParams.maxParams = 0;
    noParams.dictEntryBytes = 4;
    const auto exact = compressProgram(prog, noParams);

    EXPECT_GE(param.codewords, 3u);
    EXPECT_LT(param.dictEntries * 3u, param.codewords * 3u + 1);
    EXPECT_LT(param.compressedTextBytes, exact.compressedTextBytes);

    // And the parameterized image still runs correctly.
    const RunResult native = runProgram(prog);
    const RunResult comp =
        runProgram(param.compressed, param.dictionary);
    EXPECT_EQ(comp.output, native.output);
}

TEST(Compress, SmallImmediatesBecomeParameters)
{
    // Figure 4's lda +8 / lda -8 sharing one entry. All displacements
    // must fit the sign-extended 5-bit parameter range [-16, 15].
    std::string src = ".text\nmain:\n    laq buf, t5\n";
    for (const int d : {8, -8, -4}) {
        src += strFormat("    lda t0, %d(t0)\n", d);
        src += "    ldq t1, 0(t5)\n"
               "    addq t1, t0, t1\n"
               "    nop\n";
    }
    src += "    li 0, v0\n    li 0, a0\n    syscall\n"
           ".data\nbuf:\n    .quad 0\n";
    const Program prog = assemble(src);
    CompressorOptions opts;
    const auto result = compressProgram(prog, opts);
    EXPECT_GE(result.codewords, 3u);
    EXPECT_EQ(result.dictEntries, 1u);
    const RunResult native = runProgram(prog);
    const RunResult comp =
        runProgram(result.compressed, result.dictionary);
    EXPECT_EQ(comp.dynInsts, native.dynInsts);
}

TEST(Compress, BranchCompressionAdjustsOffsetsPerInstance)
{
    // Identical loop bodies ending in backward branches with (after
    // compression) different displacements: only offset
    // parameterization can share them.
    std::string src = ".text\nmain:\n";
    for (int l = 0; l < 3; ++l) {
        src += "    li 3, t0\n";
        src += strFormat("loop%d:\n", l);
        src += "    subq t0, 1, t0\n"
               "    addq t2, 2, t2\n"
               "    xor t2, t3, t3\n";
        src += strFormat("    bne t0, loop%d\n", l);
    }
    src += "    li 0, v0\n    li 0, a0\n    syscall\n";
    const Program prog = assemble(src);

    CompressorOptions opts;
    opts.compressBranches = true;
    const auto result = compressProgram(prog, opts);
    EXPECT_GE(result.codewords, 3u);
    const RunResult native = runProgram(prog);
    const RunResult comp =
        runProgram(result.compressed, result.dictionary);
    EXPECT_EQ(comp.exitCode, 0);
    EXPECT_EQ(comp.dynInsts, native.dynInsts);

    CompressorOptions noBranches;
    noBranches.compressBranches = false;
    const auto safe = compressProgram(prog, noBranches);
    // Branch-ending candidates are excluded entirely without offset
    // parameters (subq differs between the loops, so only the 2-inst
    // middle run repeats — too short to profit at 8-byte entries).
    EXPECT_GE(safe.compressedTextBytes, result.compressedTextBytes);
}

TEST(Compress, CandidatesNeverStraddleBasicBlocks)
{
    // A branch target in the middle of a repeated run must split it.
    std::string src = ".text\nmain:\n    li 2, t0\n";
    src += "    addq t1, 1, t1\n"
           "    addq t2, 1, t2\n"
           "mid:\n"
           "    addq t3, 1, t3\n"
           "    addq t4, 1, t4\n"
           "    subq t0, 1, t0\n"
           "    bne t0, mid\n"
           "    li 0, v0\n    li 0, a0\n    syscall\n";
    const Program prog = assemble(src);
    const auto result = compressProgram(prog);
    // Whatever was chosen, execution must be exact.
    const RunResult native = runProgram(prog);
    const RunResult comp =
        runProgram(result.compressed, result.dictionary);
    EXPECT_EQ(comp.dynInsts, native.dynInsts);
    EXPECT_EQ(comp.exitCode, 0);
}

TEST(Compress, DedicatedOptionsEnableSingleInstruction)
{
    // With 2-byte codewords a single instruction repeated often enough
    // is profitable.
    std::string src = ".text\nmain:\n";
    for (int i = 0; i < 6; ++i)
        src += "    mulq t0, t1, t2\n    nop\n";
    src += "    li 0, v0\n    li 0, a0\n    syscall\n";
    const Program prog = assemble(src);
    const auto result =
        compressProgram(prog, dedicatedDecompressorOptions());
    EXPECT_GE(result.codewords, 6u);
    // Accounting uses 2-byte codewords.
    EXPECT_LT(result.compressedTextBytes, result.originalTextBytes);
}

TEST(Compress, AccountingIsConsistent)
{
    const auto result = compressProgram(redundantProgram());
    const uint64_t residual =
        result.compressed.text.size() - result.codewords;
    EXPECT_EQ(result.compressedTextBytes,
              residual * 4 + result.codewords * 4);
    EXPECT_EQ(result.originalTextBytes,
              redundantProgram().textBytes());
    EXPECT_LE(result.ratio(), 1.0);
    EXPECT_GE(result.ratioWithDict(), result.ratio());
}

TEST(Compress, DictionarySizeRespectsEntryCost)
{
    CompressorOptions cheap;
    cheap.maxParams = 0;
    cheap.dictEntryBytes = 4;
    CompressorOptions costly = cheap;
    costly.dictEntryBytes = 8;
    const Program prog = redundantProgram();
    const auto a = compressProgram(prog, cheap);
    const auto b = compressProgram(prog, costly);
    if (a.dictEntries == b.dictEntries && a.dictEntries > 0) {
        EXPECT_EQ(b.dictionaryBytes, 2 * a.dictionaryBytes);
    } else {
        // Costlier entries admit fewer of them.
        EXPECT_LE(b.dictEntries, a.dictEntries);
    }
}

TEST(Compress, EmptyAndTinyProgramsSurvive)
{
    const Program tiny =
        assemble(".text\nmain:\n    li 0, v0\n    li 0, a0\n"
                 "    syscall\n");
    const auto result = compressProgram(tiny);
    const RunResult run =
        runProgram(result.compressed, result.dictionary);
    EXPECT_EQ(run.exitCode, 0);
}

TEST(Compress, SymbolsRemapIntoCompressedImage)
{
    const Program prog = redundantProgram();
    const auto result = compressProgram(prog);
    EXPECT_EQ(result.compressed.symbols.count("main"), 1u);
    EXPECT_TRUE(result.compressed.inText(result.compressed.entry) ||
                result.compressed.entry == result.compressed.textBase);
    EXPECT_EQ(result.compressed.symbol("buf"), prog.symbol("buf"));
}

TEST(Compress, TagSpaceIsBounded)
{
    CompressorOptions opts;
    opts.maxDictEntries = 4096; // exceeds the 11-bit tag space
    EXPECT_THROW(compressProgram(redundantProgram(), opts), PanicError);
}

/** Property: random straight-line register programs round-trip. */
class CompressProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CompressProperty, RandomProgramsRoundTrip)
{
    Rng rng(GetParam() * 104729 + 17);
    std::string src = ".text\nmain:\n    laq buf, t5\n";
    const char *ops[] = {"addq", "subq", "xor", "and", "or"};
    const int n = 30 + int(rng.below(60));
    for (int i = 0; i < n; ++i) {
        if (rng.chance(0.25)) {
            src += strFormat("    %s t%d, %d(t5)\n",
                             rng.chance(0.5) ? "ldq" : "stq",
                             int(rng.below(5)), int(rng.below(6)) * 8);
        } else if (rng.chance(0.1)) {
            src += strFormat("    blbs t%d, skip%d\n",
                             int(rng.below(5)), i);
            src += strFormat("    addq t0, 1, t0\nskip%d:\n", i);
        } else {
            src += strFormat("    %s t%d, %d, t%d\n",
                             ops[rng.below(5)], int(rng.below(5)),
                             int(rng.below(32)), int(rng.below(5)));
        }
    }
    src += "    mov t0, a0\n    li 2, v0\n    syscall\n"
           "    li 0, v0\n    li 0, a0\n    syscall\n"
           ".data\nbuf:\n    .space 64\n";
    const Program prog = assemble(src);
    const RunResult native = runProgram(prog);
    ASSERT_EQ(native.exitCode, 0);

    for (const bool branches : {true, false}) {
        for (const uint32_t params : {0u, 3u}) {
            CompressorOptions opts;
            opts.compressBranches = branches;
            opts.maxParams = params;
            const auto result = compressProgram(prog, opts);
            const RunResult comp =
                runProgram(result.compressed, result.dictionary);
            EXPECT_EQ(comp.output, native.output)
                << "branches=" << branches << " params=" << params;
            EXPECT_EQ(comp.dynInsts, native.dynInsts);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressProperty, ::testing::Range(0, 15));

/**
 * Four branch-ended idioms whose shared target lies ~20,000 words
 * ahead: past the codeword's 15-bit offset parameter before and after
 * compression (the distinct lda words between never compress).
 */
std::string
farBranchSource()
{
    std::string src = ".text\nmain:\n";
    for (int i = 0; i < 4; ++i) {
        src += "    subq t0, 1, t1\n"
               "    addq t2, 2, t2\n"
               "    xor t2, t3, t3\n"
               "    beq t1, far\n";
    }
    for (int i = 0; i < 20000; ++i)
        src += strFormat("    lda t4, %d(t5)\n", i);
    src += "far:\n    li 0, v0\n    li 0, a0\n    syscall\n";
    return src;
}

TEST(Compress, FarBranchOccurrencesAreDeclined)
{
    const Program prog = assemble(farBranchSource());
    const RunResult native = runProgram(prog);
    ASSERT_EQ(native.outcome, RunOutcome::Exit);
    const auto result = compressProgram(prog);
    // The three-instruction prefix still shares one entry.
    EXPECT_GE(result.codewords, 4u);
    const RunResult comp = runProgram(result.compressed, result.dictionary);
    EXPECT_EQ(comp.outcome, RunOutcome::Exit);
    EXPECT_EQ(comp.exitCode, native.exitCode);
    EXPECT_EQ(comp.output, native.output);
    EXPECT_EQ(comp.dynInsts, native.dynInsts);
}

/** Dedicated-decompressor (true) or default DISE options. */
CompressorOptions
generatedOptions(bool dedicated)
{
    return dedicated ? dedicatedDecompressorOptions() : CompressorOptions{};
}

Program
generatedProgram(uint64_t seed)
{
    GeneratorOptions gen;
    gen.seed = seed;
    return generateRandomProgram(gen);
}

TEST(Compress, GeneratedProgramsRoundTrip)
{
    // The generator's branches land mid-idiom, splitting basic blocks
    // into the short runs hand-written programs lack.
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        const Program prog = generatedProgram(seed);
        const RunResult native = runProgram(prog);
        ASSERT_EQ(native.outcome, RunOutcome::Exit) << "seed " << seed;
        for (const bool dedicated : {false, true}) {
            const auto result =
                compressProgram(prog, generatedOptions(dedicated));
            for (const bool traceCache : {true, false}) {
                const RunResult comp = runProgram(
                    result.compressed, result.dictionary, traceCache);
                EXPECT_EQ(comp.exitCode, native.exitCode)
                    << "seed " << seed << " dedicated " << dedicated
                    << " traceCache " << traceCache;
                EXPECT_EQ(comp.output, native.output) << "seed " << seed;
                EXPECT_EQ(comp.dynInsts, native.dynInsts)
                    << "seed " << seed;
            }
        }
    }
}

/** Everything compressProgram returns, in one digest. */
void
digestOutput(Digest &d, const CompressionResult &r)
{
    for (const Word w : r.compressed.text)
        d.u64(w);
    d.u64(r.compressed.entry);
    for (const auto &[name, addr] : r.compressed.symbols) {
        d.str(name);
        d.u64(addr);
    }
    for (const uint64_t v :
         {r.originalTextBytes, r.compressedTextBytes, r.dictionaryBytes,
          uint64_t(r.dictEntries), r.codewords, r.instsCompressedOut})
        d.u64(v);
    d.str(serializeProductions(*r.dictionary));
}

/**
 * The design points the golden digests cover: Figure 7's six feature
 * steps, then single-knob departures from the defaults.
 */
std::vector<std::pair<std::string, CompressorOptions>>
goldenOptionSets()
{
    std::vector<std::pair<std::string, CompressorOptions>> sets;
    CompressorOptions fig7 = dedicatedDecompressorOptions();
    sets.emplace_back("dedicated", fig7);
    fig7.allowSingleInst = false;
    sets.emplace_back("-1insn", fig7);
    fig7.codewordBytes = 4;
    sets.emplace_back("-2byteCW", fig7);
    fig7.dictEntryBytes = 8;
    sets.emplace_back("+8byteDE", fig7);
    fig7.maxParams = 3;
    sets.emplace_back("+3param", fig7);
    fig7.compressBranches = true;
    sets.emplace_back("DISE", fig7);
    for (const uint32_t len : {2u, 4u, 8u, 12u}) {
        CompressorOptions opts;
        opts.maxSeqLen = len;
        sets.emplace_back("len<=" + std::to_string(len), opts);
    }
    for (const uint32_t params : {0u, 1u, 2u}) {
        CompressorOptions opts;
        opts.maxParams = params;
        sets.emplace_back(std::to_string(params) + "param", opts);
    }
    CompressorOptions capped;
    capped.maxDictEntries = 32;
    sets.emplace_back("<=32", capped);
    return sets;
}

/**
 * Output digests recorded from the original string-keyed candidate
 * enumerator, one row per spec2000() program in suite order, one
 * column per goldenOptionSets() entry. Candidate numbering decides the
 * greedy's ties, so any change to it shows here.
 */
constexpr uint64_t kSuiteGolden[12][14] = {
    // bzip2
    {0x6381c6471e3f0909ull, 0x25ff40302644537dull, 0xf1a102b11cff9d62ull,
     0x5d6fa8e78e0f6d7cull, 0x9ed8b6a12f332976ull, 0x6a806c50f149800dull,
     0xf99e85b5c36e545dull, 0xc1517340ec9bc064ull, 0x6a806c50f149800dull,
     0x6a806c50f149800dull, 0x97deaf3cac2d8bc6ull, 0xcc659795c0a56771ull,
     0xaca68223f8951c2full, 0x6a806c50f149800dull},
    // crafty
    {0x84f6fd33c3229a17ull, 0xc61a70aeeb945bedull, 0x5868bba6fa6de0f4ull,
     0x3fed4eceb82dff30ull, 0xb60b7555645df657ull, 0x2290656dc066f060ull,
     0x834375fc73730ef6ull, 0x08e65fe203f607c4ull, 0x2290656dc066f060ull,
     0x2290656dc066f060ull, 0xee010de48a8d5807ull, 0x9914d531fb223cedull,
     0x6cfb1a684e8c4517ull, 0xb7b8738b0b217528ull},
    // eon
    {0xf716eedd8eab7d45ull, 0x690f1a9be2548899ull, 0xc9d0e80ce09fc564ull,
     0xd4ced1139458a5dbull, 0xbaca4663e513c68bull, 0x2dcb12aecaf980b1ull,
     0xb5570f975a6c97deull, 0xce03613cf7f75165ull, 0x2dcb12aecaf980b1ull,
     0x2dcb12aecaf980b1ull, 0xfb2be63a244557abull, 0x19f94ac900bbb992ull,
     0x5a7a299b595508e7ull, 0x12987217173f18c1ull},
    // gap
    {0x1564f36eb3b232d8ull, 0xde6f47903abb8253ull, 0xf49243895ebf25d2ull,
     0xf3a6bdd58dbaec24ull, 0x3239acf388349d8cull, 0xd0be237bbb8b1266ull,
     0xf5cfa7569e8fffeeull, 0x80b76c7320e280c9ull, 0xd0be237bbb8b1266ull,
     0xd0be237bbb8b1266ull, 0x00d8c10ef60c03feull, 0xde345988064722a3ull,
     0x587fa6fa73a77b38ull, 0xd0be237bbb8b1266ull},
    // gcc
    {0x1f0360f36dc845a0ull, 0x61ab60d918477ab8ull, 0xe067d353cc2e9a18ull,
     0xd8bb026a9d286492ull, 0x86ab246fbe27506eull, 0xf0075b01b21ccf81ull,
     0x7151fc62a4e6cf43ull, 0x593305085453651dull, 0xf0075b01b21ccf81ull,
     0xf0075b01b21ccf81ull, 0x0ed55eac5525b7a1ull, 0xc8c03591225f8695ull,
     0x4137740ab6573b20ull, 0xddcad080503242eeull},
    // gzip
    {0xd2a64ebf81cf7f91ull, 0x5351757a41296f48ull, 0x6c5b8310c121b681ull,
     0x1ca3648a89b6f868ull, 0xb046a76581ae3e34ull, 0x2ab14f1af6fd6dbeull,
     0xdc2d82f860bd4f88ull, 0x02f1e220135bffc5ull, 0x2ab14f1af6fd6dbeull,
     0x2ab14f1af6fd6dbeull, 0x8bae8c7fa9ba151dull, 0xda6685b67f62048full,
     0x6f4c3801d1d2be72ull, 0x26a7da830ddc7a33ull},
    // mcf
    {0x0b86404e6262d39aull, 0x291582914fb5039dull, 0xb701c54c95db9c7aull,
     0x4b586f5af4ea0b23ull, 0x113fc769c78b1337ull, 0xa3b58140c484834dull,
     0x11edeb12144137fcull, 0xbfc5b4a8a23e18faull, 0xa3b58140c484834dull,
     0xa3b58140c484834dull, 0x602f2759e8a9748dull, 0xb5d432d247241bc9ull,
     0xcffac3c729c87943ull, 0xa3b58140c484834dull},
    // parser
    {0xa8a6cc425a5754f2ull, 0xec26922e7a4d7fe0ull, 0xd6cfd9ebfd32708full,
     0xe43d0d21ba344ad5ull, 0x38e956bc49c8ed85ull, 0x6dc96bcc6806e270ull,
     0xa8e5f1b8a3dbc14full, 0x247f9264ca84a2d6ull, 0x6dc96bcc6806e270ull,
     0x6dc96bcc6806e270ull, 0xaa921f6d19ef1294ull, 0x1e85d523f005a898ull,
     0xc7a5da4f912b8393ull, 0x6dc96bcc6806e270ull},
    // perlbmk
    {0x341641318299c771ull, 0x298ef76706c5cf27ull, 0x0fe0b04b17654abdull,
     0xd00dfa47c59cf88bull, 0x48bd5c97e2a9dc1bull, 0xaaf44572c03ce809ull,
     0x7f49822d3c016deaull, 0x942acf94cd2ac356ull, 0xaaf44572c03ce809ull,
     0xaaf44572c03ce809ull, 0x7620f05a1cfe2bf7ull, 0x2dec34aa8930efc2ull,
     0xeb5d88f94b5c84c1ull, 0x553f36f39793e5f2ull},
    // twolf
    {0x2fc1d322a4810b09ull, 0x8ecfb0b19745444eull, 0x038b56fc4d59ff1dull,
     0x7dcf55f7090f55d8ull, 0xf53f8b860b4dd6f5ull, 0xdaf70261630d821cull,
     0xd7c8d48f0f6bcdd2ull, 0xf076e2fca1b9ee10ull, 0xdaf70261630d821cull,
     0xdaf70261630d821cull, 0x7e1e0ceacb55a271ull, 0x427a2ffb4ddde79cull,
     0xd35f5fdcea460ce5ull, 0xdaf70261630d821cull},
    // vortex
    {0x5afa760918f51bd0ull, 0x096a504cae9c5944ull, 0x00ebb57892d200d7ull,
     0xd2fd8f7812bf9865ull, 0x3b71a5165696180eull, 0x87c86d904240902full,
     0xb68498beb48a5c97ull, 0xb9baa9a255269899ull, 0x87c86d904240902full,
     0x87c86d904240902full, 0x619c6bcc82a62f2dull, 0xaa1af11875f93f3bull,
     0x1249566472ed32daull, 0x87c86d904240902full},
    // vpr
    {0xd5b54d4de915a234ull, 0xb19fa5aeb166ea88ull, 0x296092df4563c8c2ull,
     0x844084617c7c3e0cull, 0xf9ab5f3e9336af15ull, 0x9d79e79ab888abb3ull,
     0xb3c104f65924b14eull, 0x1d20169390eab8f6ull, 0x9d79e79ab888abb3ull,
     0x9d79e79ab888abb3ull, 0xcd7c6a1da2cbf382ull, 0x0098f1493b9e26e1ull,
     0x8de9b8f7874a5a13ull, 0xedde923593dd27e5ull},
};

TEST(Compress, GoldenDigestsOverSuite)
{
    const auto sets = goldenOptionSets();
    ASSERT_EQ(sets.size(), 14u);
    ASSERT_EQ(spec2000().size(), 12u);
    for (size_t p = 0; p < spec2000().size(); ++p) {
        const WorkloadSpec &spec = spec2000()[p];
        const Program prog = buildWorkload(spec);
        for (size_t o = 0; o < sets.size(); ++o) {
            Digest d;
            digestOutput(d, compressProgram(prog, sets[o].second));
            EXPECT_EQ(d.value(), kSuiteGolden[p][o])
                << "golden " << spec.name << " " << sets[o].first
                << " got 0x" << std::hex << d.value();
        }
    }
}

/**
 * The same for generatedProgram(1..100), folded ten seeds per digest;
 * columns: default options, dedicated options.
 */
constexpr uint64_t kGeneratedGolden[10][2] = {
    {0x6d90d0f4e40a72dbull, 0xf76ed55009904de1ull},
    {0x8884f1a49ba28614ull, 0x3a0d3aa347b100d2ull},
    {0x3351f5a3e563720dull, 0xe272a19a0ec5b586ull},
    {0xdff250a4c489518aull, 0xa19ac2fba7181bafull},
    {0x42806c3f904acdc0ull, 0x8195d95fec764150ull},
    {0x7a4fa306253bddafull, 0xd4263379fdafff29ull},
    {0xca066d5a1f092320ull, 0xde76071113c53e0aull},
    {0x01b45457f42bd161ull, 0x27953873891d35ceull},
    {0x24b40a13175021feull, 0x26d766521f56c7f5ull},
    {0x193850717132c55bull, 0x53a8fe80ae6aed2full},
};

TEST(Compress, GoldenDigestsOverGeneratedPrograms)
{
    for (uint64_t group = 0; group < 10; ++group) {
        for (const bool dedicated : {false, true}) {
            Digest d;
            for (uint64_t seed = group * 10 + 1; seed <= group * 10 + 10;
                 ++seed) {
                digestOutput(d, compressProgram(generatedProgram(seed),
                                                generatedOptions(dedicated)));
            }
            EXPECT_EQ(d.value(), kGeneratedGolden[group][dedicated])
                << "golden generated " << group << " " << dedicated
                << " got 0x" << std::hex << d.value();
        }
    }
}

} // namespace
} // namespace dise
