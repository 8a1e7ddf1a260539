/**
 * @file
 * Macro-op fusion: the pure pair matcher, the seeded program
 * generator, the native-vs-fused differential contract, the AcfRegistry
 * composition rules, and the legacy-alias equivalence of the RunRequest
 * "acfs" form.
 */

#include <gtest/gtest.h>

#include "src/acf/fusion.hpp"
#include "src/acf/registry.hpp"
#include "src/common/logging.hpp"
#include "src/common/rng.hpp"
#include "src/service/runner.hpp"
#include "src/workloads/generator.hpp"

namespace dise {
namespace {

DecodedInst
dec(Word w)
{
    return decode(w);
}

// ---------------------------------------------------------------------
// fusePair: the pure matcher.
// ---------------------------------------------------------------------

TEST(FusePair, CmpBranchFusesAndRebasesTarget)
{
    const DecodedInst cmp = dec(makeOperate(Opcode::CMPEQ, 1, 2, 3));
    const DecodedInst br = dec(makeBranch(Opcode::BNE, 3, 12));
    DecodedInst fused;
    ASSERT_TRUE(fusePair(cmp, br, &fused));
    EXPECT_EQ(fused.op, Opcode::FCMPBR);
    const CmpBrFields f = unpackCmpBr(fused.tag);
    EXPECT_EQ(f.cmpOp, Opcode::CMPEQ);
    EXPECT_EQ(f.brOp, Opcode::BNE);
    // The fused op sits at the pair's first PC; its displacement is
    // rebased so the native target (relative to the branch at pc + 4)
    // is preserved exactly.
    const Addr pc = 0x1000;
    EXPECT_EQ(fused.branchTarget(pc), br.branchTarget(pc + 4));
}

TEST(FusePair, CmpBranchRequiresDependence)
{
    // The branch tests a register the compare did not write.
    const DecodedInst cmp = dec(makeOperate(Opcode::CMPEQ, 1, 2, 3));
    const DecodedInst br = dec(makeBranch(Opcode::BNE, 4, 12));
    DecodedInst fused;
    EXPECT_FALSE(fusePair(cmp, br, &fused));
}

TEST(FusePair, CmpIntoZeroRegDoesNotFuse)
{
    const DecodedInst cmp =
        dec(makeOperate(Opcode::CMPEQ, 1, 2, kZeroReg));
    const DecodedInst br = dec(makeBranch(Opcode::BNE, kZeroReg, 12));
    DecodedInst fused;
    EXPECT_FALSE(fusePair(cmp, br, &fused));
}

TEST(FusePair, AddrConstFuses)
{
    const DecodedInst hi = dec(makeMemory(Opcode::LDAH, 5, 6, 2));
    const DecodedInst lo = dec(makeMemory(Opcode::LDA, 5, 5, -96));
    DecodedInst fused;
    ASSERT_TRUE(fusePair(hi, lo, &fused));
    EXPECT_EQ(fused.op, Opcode::FLDAC);
}

TEST(FusePair, AddrLoadFuses)
{
    const DecodedInst lda = dec(makeMemory(Opcode::LDA, 7, 8, 128));
    const DecodedInst ldq = dec(makeMemory(Opcode::LDQ, 7, 7, 16));
    DecodedInst fused;
    ASSERT_TRUE(fusePair(lda, ldq, &fused));
    EXPECT_EQ(fused.op, Opcode::FLDAL);
}

TEST(FusePair, LoadOpTagRoundTrips)
{
    const DecodedInst ldq = dec(makeMemory(Opcode::LDQ, 9, 10, 8));
    const DecodedInst op = dec(makeOperate(Opcode::XOR, 9, 11, 9));
    DecodedInst fused;
    ASSERT_TRUE(fusePair(ldq, op, &fused));
    EXPECT_EQ(fused.op, Opcode::FLDOP);
    const LoadOpFields f = unpackLoadOp(fused.tag);
    EXPECT_EQ(f.aluOp, Opcode::XOR);
    EXPECT_FALSE(f.useLit);
}

TEST(FusePair, UnrelatedPairDoesNotFuse)
{
    const DecodedInst a = dec(makeOperate(Opcode::ADDQ, 1, 2, 3));
    const DecodedInst b = dec(makeOperate(Opcode::ADDQ, 4, 5, 6));
    DecodedInst fused;
    EXPECT_FALSE(fusePair(a, b, &fused));
}

TEST(FusePair, FamilyNamesAreStable)
{
    EXPECT_EQ(fusedFamilyIndex(Opcode::FCMPBR), 0);
    EXPECT_EQ(fusedFamilyIndex(Opcode::FLDOP), kNumFusedFamilies - 1);
    EXPECT_STREQ(fusedFamilyName(0), "cmp_branch");
    EXPECT_STREQ(fusedFamilyName(kNumFusedFamilies - 1), "load_op");
}

// ---------------------------------------------------------------------
// The seeded generator.
// ---------------------------------------------------------------------

TEST(Generator, SameSeedSameSource)
{
    GeneratorOptions opts;
    opts.seed = 77;
    EXPECT_EQ(generateRandomSource(opts), generateRandomSource(opts));
    GeneratorOptions other = opts;
    other.seed = 78;
    EXPECT_NE(generateRandomSource(opts), generateRandomSource(other));
}

TEST(Generator, ProgramsAssemble)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        GeneratorOptions opts;
        opts.seed = seed;
        const Program prog = generateRandomProgram(opts);
        EXPECT_GT(prog.text.size(), 0u) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Differential contract: native vs fused, slow vs fast.
// ---------------------------------------------------------------------

/** Run @p source once under the given knobs; return the arch JSON. */
std::string
runArch(const std::string &source, bool fusion, bool traceCache)
{
    RunRequest req;
    req.source = source;
    req.traceCache = traceCache;
    if (fusion) {
        req.acfsExplicit = true;
        req.acfs = {{"fusion", "", AcfCompose::Append}};
    }
    const FunctionalOutcome out = runFunctionalSim(prepareJob(req));
    EXPECT_TRUE(out.arch.exited);
    EXPECT_EQ(out.arch.exitCode, 0);
    return out.arch.toJson().dump();
}

TEST(FusionDifferential, GeneratedProgramsBitIdenticalAcrossRegimes)
{
    // A miniature of the CI gen-diff block: every regime must retire
    // the identical architectural result for every seed. CI runs 1000+
    // programs; a couple dozen here keep the suite fast while still
    // exercising all idiom families.
    uint64_t fusedSomething = 0;
    for (uint64_t i = 0; i < 24; ++i) {
        const uint64_t seed = Rng::deriveSeed(2003, i);
        GeneratorOptions opts;
        opts.seed = seed;
        const std::string src = generateRandomSource(opts);
        const std::string ref = runArch(src, false, false);
        EXPECT_EQ(runArch(src, false, true), ref) << "seed " << seed;
        EXPECT_EQ(runArch(src, true, false), ref) << "seed " << seed;
        EXPECT_EQ(runArch(src, true, true), ref) << "seed " << seed;

        RunRequest req;
        req.source = src;
        req.acfsExplicit = true;
        req.acfs = {{"fusion", "", AcfCompose::Append}};
        SimOptions simOpts;
        simOpts.registry = true;
        const FunctionalOutcome out =
            runFunctionalSim(prepareJob(req), simOpts);
        fusedSomething +=
            out.registry.at("acf").at("fusion").at("fused_pairs").asUInt();
    }
    // The generator is fusion-biased: a batch with zero fused pairs
    // means the matcher or the generator regressed.
    EXPECT_GT(fusedSomething, 0u);
}

TEST(FusionDifferential, FusionNestedWithinMfiIsArchIdentical)
{
    // Fusion contracts the post-expansion stream, so enabling it under
    // a full MFI + watchpoint environment must not change any
    // architectural number (including the ACF detection count).
    RunRequest base;
    base.workload = "gzip";
    base.scale = 0.05;
    base.acfsExplicit = true;
    base.acfs = {{"mfi", "dise4", AcfCompose::Append},
                 {"watchpoint", "", AcfCompose::Merged}};
    const FunctionalOutcome ref = runFunctionalSim(prepareJob(base));

    RunRequest fused = base;
    fused.acfs.push_back({"fusion", "", AcfCompose::Append});
    const FunctionalOutcome got = runFunctionalSim(prepareJob(fused));

    EXPECT_EQ(got.arch.toJson().dump(), ref.arch.toJson().dump());
    EXPECT_EQ(got.arch.acfDetections, ref.arch.acfDetections);

    // The same contract on the cycle-level model: full-length bzip2
    // under DISE3 MFI, fused against unfused, exit code and output
    // included.
    RunRequest timing;
    timing.workload = "bzip2";
    timing.mode = RunMode::Timing;
    timing.acfsExplicit = true;
    timing.acfs = {{"mfi", "dise3", AcfCompose::Append}};
    const TimingOutcome unfusedRun = runTimingSim(prepareJob(timing));
    timing.acfs.push_back({"fusion", "", AcfCompose::Append});
    const TimingOutcome fusedRun = runTimingSim(prepareJob(timing));
    EXPECT_TRUE(unfusedRun.timing.arch.exited);
    EXPECT_EQ(unfusedRun.timing.arch.exitCode, 0);
    EXPECT_EQ(fusedRun.timing.arch.toJson().dump(),
              unfusedRun.timing.arch.toJson().dump());
}

// ---------------------------------------------------------------------
// AcfRegistry composition rules and structured rejection.
// ---------------------------------------------------------------------

/** validate() must throw and the diagnostic must name @p needle. */
void
expectRejected(const RunRequest &req, const std::string &needle)
{
    try {
        req.validate();
        FAIL() << "expected rejection mentioning \"" << needle << "\"";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(needle),
                  std::string::npos)
            << "diagnostic was: " << err.what();
    }
}

TEST(AcfRegistry, FusionRejectsMergedAndNestedByName)
{
    RunRequest req;
    req.workload = "gzip";
    req.acfsExplicit = true;
    req.acfs = {{"mfi", "dise4", AcfCompose::Append},
                {"fusion", "", AcfCompose::Merged}};
    expectRejected(req, "fusion/merged");
    req.acfs[1].compose = AcfCompose::Nested;
    expectRejected(req, "fusion/nested");
}

TEST(AcfRegistry, UnknownKindAndDuplicatesRejected)
{
    RunRequest req;
    req.workload = "gzip";
    req.acfsExplicit = true;
    req.acfs = {{"macro", "", AcfCompose::Append}};
    expectRejected(req, "macro");
    req.acfs = {{"fusion", "", AcfCompose::Append},
                {"fusion", "", AcfCompose::Append}};
    expectRejected(req, "duplicate");
}

TEST(AcfRegistry, MergedNeedsAPrecedingProductionSet)
{
    RunRequest req;
    req.workload = "gzip";
    req.acfsExplicit = true;
    req.acfs = {{"watchpoint", "", AcfCompose::Merged}};
    expectRejected(req, "preceding");
}

TEST(AcfRegistry, FusionRejectsWarmupSamplingAndCampaign)
{
    RunRequest req;
    req.workload = "gzip";
    req.acfsExplicit = true;
    req.acfs = {{"fusion", "", AcfCompose::Append}};
    req.warmupInsts = 100;
    EXPECT_THROW(req.validate(), FatalError);
    req.warmupInsts = 0;
    req.mode = RunMode::Timing;
    req.samplePeriod = 1000;
    req.sampleDetail = 100;
    EXPECT_THROW(req.validate(), FatalError);
    req.samplePeriod = 0;
    req.sampleDetail = 0;
    req.mode = RunMode::Campaign;
    EXPECT_THROW(req.validate(), FatalError);
}

// ---------------------------------------------------------------------
// Legacy aliases: desugaring, round-trips, and mixing rejection.
// ---------------------------------------------------------------------

TEST(AcfAliases, LegacyBooleansDesugarToTheCanonicalList)
{
    RunRequest legacy;
    legacy.workload = "gzip";
    legacy.mfi = true;
    legacy.mfiVariant = MfiVariant::Dise4;
    legacy.watchpoint = true;
    const std::vector<AcfSpec> expect = {
        {"mfi", "dise4", AcfCompose::Append},
        {"watchpoint", "", AcfCompose::Merged}};
    EXPECT_EQ(legacy.normalizedAcfs(), expect);

    // Request-level equivalence: the alias and the explicit list
    // prepare byte-identical jobs (same program, same productions).
    RunRequest explicitForm = legacy;
    explicitForm.mfi = false;
    explicitForm.watchpoint = false;
    explicitForm.acfsExplicit = true;
    explicitForm.acfs = expect;
    const FunctionalOutcome a = runFunctionalSim(prepareJob(legacy));
    const FunctionalOutcome b =
        runFunctionalSim(prepareJob(explicitForm));
    EXPECT_EQ(a.arch.toJson().dump(), b.arch.toJson().dump());
}

TEST(AcfAliases, JsonRoundTripsPreserveTheFormUsed)
{
    RunRequest legacy;
    legacy.workload = "gzip";
    legacy.mfi = true;
    legacy.watchpoint = true;
    const Json legacyDoc = legacy.toJson();
    EXPECT_FALSE(legacyDoc.contains("acfs"));
    const RunRequest legacyBack = RunRequest::fromJson(legacyDoc);
    EXPECT_FALSE(legacyBack.acfsExplicit);
    EXPECT_EQ(legacyBack.normalizedAcfs(), legacy.normalizedAcfs());

    RunRequest list;
    list.workload = "gzip";
    list.acfsExplicit = true;
    list.acfs = {{"mfi", "dise4", AcfCompose::Append},
                 {"fusion", "", AcfCompose::Append}};
    const Json listDoc = list.toJson();
    EXPECT_TRUE(listDoc.contains("acfs"));
    EXPECT_FALSE(listDoc.contains("mfi"));
    const RunRequest listBack = RunRequest::fromJson(listDoc);
    EXPECT_TRUE(listBack.acfsExplicit);
    EXPECT_EQ(listBack.acfs, list.acfs);
}

TEST(AcfAliases, MixingFormsIsRejected)
{
    // JSON level: key presence conflicts, even with a false value.
    Json doc = Json::object();
    doc["workload"] = Json(std::string("gzip"));
    Json specs = Json::array();
    Json spec = Json::object();
    spec["kind"] = Json(std::string("fusion"));
    specs.push_back(spec);
    doc["acfs"] = specs;
    doc["mfi"] = Json(false);
    EXPECT_THROW(RunRequest::fromJson(doc), FatalError);

    // Programmatic level: validate() rejects the same contradiction.
    RunRequest req;
    req.workload = "gzip";
    req.acfsExplicit = true;
    req.acfs = {{"fusion", "", AcfCompose::Append}};
    req.mfi = true;
    EXPECT_THROW(req.validate(), FatalError);
}

TEST(AcfAliases, SpecStringFormsRoundTrip)
{
    const AcfSpec spec{"mfi", "dise4", AcfCompose::Nested};
    EXPECT_EQ(spec.str(), "mfi:dise4/nested");
    const AcfSpec back = AcfSpec::fromJson(spec.toJson());
    EXPECT_EQ(back, spec);
}

} // namespace
} // namespace dise
