/**
 * @file
 * Workload-suite tests: every benchmark builds, runs to a clean exit,
 * is deterministic, respects the ACF constraints (reserved registers,
 * no text addresses in data), and matches its profile's qualitative
 * properties (text-size bands, memory-operation density).
 */

#include <gtest/gtest.h>

#include <set>

#include "src/common/logging.hpp"
#include "src/service/runner.hpp"
#include "src/sim/core.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/digest.hpp"

namespace dise {
namespace {

TEST(Workloads, SuiteHasTwelveSpecNames)
{
    const std::set<std::string> expected = {
        "bzip2", "crafty", "eon",     "gap",   "gcc",    "gzip",
        "mcf",   "parser", "perlbmk", "twolf", "vortex", "vpr"};
    std::set<std::string> actual;
    for (const auto &spec : spec2000())
        actual.insert(spec.name);
    EXPECT_EQ(actual, expected);
}

TEST(Workloads, UnknownNameIsFatal)
{
    EXPECT_THROW(workloadSpec("quake"), FatalError);
}

TEST(Workloads, GenerationIsDeterministic)
{
    const Program a = buildWorkload("parser");
    const Program b = buildWorkload("parser");
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.data, b.data);
    EXPECT_EQ(a.symbols, b.symbols);
}

TEST(Workloads, DifferentSeedsProduceDifferentCode)
{
    WorkloadSpec spec = workloadSpec("parser");
    const Program a = buildWorkload(spec);
    spec.seed += 1;
    const Program b = buildWorkload(spec);
    EXPECT_NE(a.text, b.text);
}

TEST(Workloads, ErrorHandlerAndMainPresent)
{
    for (const auto &spec : spec2000()) {
        const Program prog = buildWorkload(spec);
        EXPECT_EQ(prog.symbols.count("main"), 1u) << spec.name;
        EXPECT_EQ(prog.symbols.count("error"), 1u) << spec.name;
        EXPECT_EQ(prog.symbols.count("chk"), 1u) << spec.name;
    }
}

TEST(Workloads, TextSizeBandsMatchThePaper)
{
    // Section 4.2: crafty, gzip and vpr exceed 32 KB; about half the
    // suite exceeds 8 KB.
    unsigned over8 = 0;
    for (const auto &spec : spec2000()) {
        const Program prog = buildWorkload(spec);
        const double kb = prog.textBytes() / 1024.0;
        if (spec.name == "crafty" || spec.name == "gzip" ||
            spec.name == "vpr") {
            EXPECT_GT(kb, 32.0) << spec.name;
        } else {
            EXPECT_LT(kb, 32.0) << spec.name;
        }
        over8 += kb > 8.0;
    }
    EXPECT_GE(over8, 5u);
    EXPECT_LE(over8, 9u);
}

TEST(Workloads, ReservedRegistersUntouched)
{
    // s0..s4 belong to the binary rewriter; generated code (and the
    // kernels) must not name them.
    for (const auto &spec : spec2000()) {
        const Program prog = buildWorkload(spec);
        for (const Word w : prog.text) {
            const DecodedInst inst = decode(w);
            if (inst.cls == OpClass::Invalid || inst.isNop())
                continue;
            inst.visitSrcRegs([&spec](RegField, RegIndex r) {
                EXPECT_TRUE(r < 9 || r > 13)
                    << spec.name << ": " << unsigned(r);
            });
            const RegIndex d = inst.destReg();
            EXPECT_TRUE(d < 9 || d > 13 || d == kZeroReg) << spec.name;
        }
    }
}

TEST(Workloads, NoTextAddressesInData)
{
    // The rewriter relocates code; data must not embed text pointers.
    for (const auto &spec : spec2000()) {
        const Program prog = buildWorkload(spec);
        for (size_t i = 0; i + 8 <= prog.data.size(); i += 8) {
            uint64_t q = 0;
            for (int b = 0; b < 8; ++b)
                q |= uint64_t(prog.data[i + b]) << (8 * b);
            EXPECT_FALSE(q >= prog.textBase && q < prog.textEnd())
                << spec.name << " data+" << i;
        }
    }
}

/**
 * Digests of generateWorkloadSource(scaledSpec(spec, scale)) recorded
 * from the strFormat-based kernel data writer, one row per spec2000()
 * program in suite order, one column per scale (1, 0.5, 0.1).
 */
constexpr uint64_t kSourceGolden[12][3] = {
    // bzip2
    {0x1c96a512f0a978efull, 0x0483f3c33070c080ull, 0xc8a358af7ed77144ull},
    // crafty
    {0xff151e1d3cfd719bull, 0x2c44da24480a4beeull, 0x7cd79728833a2cc7ull},
    // eon
    {0x88fd2f46f3850f41ull, 0x6fd7e255a40e9b1full, 0x61f90a95f96fae27ull},
    // gap
    {0x45a698ef3a1e8587ull, 0x59e22ff2f9506597ull, 0x6b8d60574ee151c3ull},
    // gcc
    {0xb0718e172ec5a547ull, 0x940da1f6312d1f00ull, 0xee9027e6baef66beull},
    // gzip
    {0x84e8fac7850f3199ull, 0xb83d59d215321986ull, 0xf76fc51886e4751cull},
    // mcf
    {0x43d0a63f01615548ull, 0xa4b20261bdca40e6ull, 0x4c599aade1751d9dull},
    // parser
    {0x1b97b3972a1c74acull, 0xae80bbd7ffcd68d6ull, 0xf3aebcb8ae6263d9ull},
    // perlbmk
    {0xfc65625cd17e7c3aull, 0x4984044671b9efb4ull, 0x096b6d5cebf451a0ull},
    // twolf
    {0x0cb17056ec11763aull, 0xf9a5048405722a9eull, 0x15afc77749dbadf6ull},
    // vortex
    {0xbf84c79f2e0bf522ull, 0x0a887acdab020228ull, 0x89a5eecd7632cc13ull},
    // vpr
    {0xe3fe248786b894b8ull, 0x658b46ef5816c363ull, 0x73a90c234ad108c4ull},
};

TEST(Workloads, SourceDigests)
{
    const double scales[] = {1.0, 0.5, 0.1};
    ASSERT_EQ(spec2000().size(), 12u);
    for (size_t p = 0; p < spec2000().size(); ++p) {
        for (size_t s = 0; s < 3; ++s) {
            const WorkloadSpec spec = scaledSpec(spec2000()[p], scales[s]);
            Digest d;
            d.str(generateWorkloadSource(spec));
            EXPECT_EQ(d.value(), kSourceGolden[p][s])
                << "golden " << spec.name << " scale " << scales[s]
                << " got 0x" << std::hex << d.value();
        }
    }
}

/** Every benchmark runs to a clean exit with plausible composition. */
class WorkloadRun : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadRun, ExecutesToCleanExit)
{
    const WorkloadSpec &spec = workloadSpec(GetParam());
    const Program prog = buildWorkload(spec);
    ExecCore core(prog);
    const RunResult result = core.run(40000000);
    ASSERT_TRUE(result.exited) << "did not terminate";
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_FALSE(result.output.empty()); // checksum printed
    // Within 3x of the dynamic-length target either way.
    EXPECT_GT(result.dynInsts, spec.targetDynInsts / 3);
    EXPECT_LT(result.dynInsts, spec.targetDynInsts * 3);
    // Memory-operation density in the band MFI's "~30%" story needs.
    const double memFrac =
        double(result.loads + result.stores) / double(result.dynInsts);
    EXPECT_GT(memFrac, 0.08) << "too few memory ops";
    EXPECT_LT(memFrac, 0.55) << "too many memory ops";
}

INSTANTIATE_TEST_SUITE_P(
    Suite, WorkloadRun,
    ::testing::Values("bzip2", "crafty", "eon", "gap", "gcc", "gzip",
                      "mcf", "parser", "perlbmk", "twolf", "vortex",
                      "vpr"),
    [](const auto &info) { return info.param; });

} // namespace
} // namespace dise
