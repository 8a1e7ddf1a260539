/**
 * @file
 * DISE engine and controller tests: expansion mechanics, PT miss
 * detection via the pattern-counter scheme, RT geometry (direct-mapped,
 * set-associative, perfect), composed-fill penalties, table flushes,
 * and the OS-kernel virtualization layer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "src/common/logging.hpp"
#include "src/dise/controller.hpp"
#include "src/dise/parser.hpp"

namespace dise {
namespace {

std::shared_ptr<ProductionSet>
mfiLikeSet()
{
    return std::make_shared<ProductionSet>(parseProductions(
        "P1: class == store -> R1\n"
        "P2: class == load -> R1\n"
        "R1: srl T.RS, #26, $dr1\n"
        "    cmpeq $dr1, $dr2, $dr1\n"
        "    beq $dr1, @0x4000f00\n"
        "    T.INSN\n"));
}

DecodedInst
aLoad()
{
    return decode(makeMemory(Opcode::LDQ, 5, 9, 16));
}

TEST(Engine, PassThroughWithoutProductions)
{
    DiseEngine engine;
    const auto result = engine.expand(aLoad(), 0x4000000);
    EXPECT_FALSE(result.expanded);
    EXPECT_FALSE(result.ptMiss);
}

TEST(Engine, ExpansionProducesInstantiatedSequence)
{
    DiseEngine engine;
    engine.setProductions(mfiLikeSet());
    const auto result = engine.expand(aLoad(), 0x4000000);
    ASSERT_TRUE(result.expanded);
    ASSERT_EQ(result.size(), 4u);
    EXPECT_EQ(result[0].op, Opcode::SRL);
    EXPECT_EQ(result[0].ra, 9); // T.RS
    EXPECT_EQ(result[3], aLoad());
    EXPECT_EQ(engine.stats().get("expansions"), 1u);
    EXPECT_EQ(engine.stats().get("replacement_insts"), 4u);
}

TEST(Engine, NonTriggerPassesThrough)
{
    DiseEngine engine;
    engine.setProductions(mfiLikeSet());
    const auto result =
        engine.expand(decode(makeOperate(Opcode::ADDQ, 1, 2, 3)),
                      0x4000000);
    EXPECT_FALSE(result.expanded);
}

TEST(Engine, ColdPtMissThenHit)
{
    DiseEngine engine;
    engine.setProductions(mfiLikeSet());
    const auto first = engine.expand(aLoad(), 0x4000000);
    EXPECT_TRUE(first.ptMiss);
    EXPECT_EQ(first.missPenalty,
              engine.config().missPenalty + engine.config().missPenalty);
    const auto second = engine.expand(aLoad(), 0x4000004);
    EXPECT_FALSE(second.ptMiss);
    EXPECT_FALSE(second.rtMiss);
    EXPECT_EQ(second.missPenalty, 0u);
}

TEST(Engine, PtMissEvenForNonMatchingInstanceOfCoveredOpcode)
{
    // The pattern-counter scheme is per-opcode: any fetched instance of
    // a covered opcode with a non-resident pattern group faults.
    DiseEngine engine;
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load && rs == sp -> R1\n"
        "R1: T.INSN\n"));
    engine.setProductions(set);
    // This load does NOT use sp, but its opcode is covered.
    const auto result =
        engine.expand(decode(makeMemory(Opcode::LDQ, 1, 7, 0)),
                      0x4000000);
    EXPECT_FALSE(result.expanded);
    EXPECT_TRUE(result.ptMiss);
}

TEST(Engine, UncoveredOpcodeIsNotAMiss)
{
    DiseEngine engine;
    engine.setProductions(mfiLikeSet());
    const auto result =
        engine.expand(decode(makeBranch(Opcode::BEQ, 1, 4)), 0x4000000);
    EXPECT_FALSE(result.ptMiss);
}

TEST(Engine, PtEvictionUnderPressure)
{
    // PT with a single entry and two single-opcode patterns: each fetch
    // of the other opcode faults its pattern back in.
    DiseConfig config;
    config.ptEntries = 1;
    DiseEngine engine(config);
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: op == ldq -> R1\n"
        "P2: op == stq -> R1\n"
        "R1: T.INSN\n"));
    engine.setProductions(set);
    const DecodedInst ld = decode(makeMemory(Opcode::LDQ, 1, 2, 0));
    const DecodedInst st = decode(makeMemory(Opcode::STQ, 1, 2, 0));
    engine.expand(ld, 0x4000000);
    engine.expand(st, 0x4000004);
    engine.expand(ld, 0x4000008);
    engine.expand(st, 0x400000c);
    EXPECT_EQ(engine.stats().get("pt_misses"), 4u);
}

TEST(Engine, RtPerfectNeverMisses)
{
    DiseConfig config;
    config.rtEntries = 0;
    DiseEngine engine(config);
    engine.setProductions(mfiLikeSet());
    const auto result = engine.expand(aLoad(), 0x4000000);
    EXPECT_FALSE(result.rtMiss);
}

TEST(Engine, RtColdMissThenResident)
{
    DiseEngine engine; // 2K entries
    engine.setProductions(mfiLikeSet());
    EXPECT_TRUE(engine.expand(aLoad(), 0x4000000).rtMiss);
    EXPECT_FALSE(engine.expand(aLoad(), 0x4000004).rtMiss);
    EXPECT_EQ(engine.stats().get("rt_misses"), 1u);
}

TEST(Engine, RtConflictsInTinyDirectMappedRt)
{
    // Two sequences of length 8 in an 8-entry direct-mapped RT: the
    // sets they occupy overlap, so alternating triggers thrash.
    DiseConfig config;
    config.rtEntries = 8;
    config.rtAssoc = 1;
    DiseEngine engine(config);
    auto set = std::make_shared<ProductionSet>();
    for (int s = 0; s < 2; ++s) {
        ReplacementSeq seq;
        seq.name = "S" + std::to_string(s);
        for (int i = 0; i < 8; ++i)
            seq.insts.push_back(rTriggerInsn());
        const SeqId id = set->addSequence(seq);
        PatternSpec pattern;
        pattern.opcode = s == 0 ? Opcode::LDQ : Opcode::STQ;
        set->addPattern(pattern, id);
    }
    engine.setProductions(set);
    const DecodedInst ld = decode(makeMemory(Opcode::LDQ, 1, 2, 0));
    const DecodedInst st = decode(makeMemory(Opcode::STQ, 1, 2, 0));
    engine.expand(ld, 0x4000000);
    engine.expand(st, 0x4000004);
    EXPECT_TRUE(engine.expand(ld, 0x4000008).rtMiss);
    EXPECT_TRUE(engine.expand(st, 0x400000c).rtMiss);
}

TEST(Engine, RtAssociativityAvoidsConflicts)
{
    DiseConfig config;
    config.rtEntries = 16;
    config.rtAssoc = 2;
    DiseEngine engine(config);
    auto set = std::make_shared<ProductionSet>();
    for (int s = 0; s < 2; ++s) {
        ReplacementSeq seq;
        seq.name = "S" + std::to_string(s);
        for (int i = 0; i < 8; ++i)
            seq.insts.push_back(rTriggerInsn());
        const SeqId id = set->addSequence(seq);
        PatternSpec pattern;
        pattern.opcode = s == 0 ? Opcode::LDQ : Opcode::STQ;
        set->addPattern(pattern, id);
    }
    engine.setProductions(set);
    const DecodedInst ld = decode(makeMemory(Opcode::LDQ, 1, 2, 0));
    const DecodedInst st = decode(makeMemory(Opcode::STQ, 1, 2, 0));
    engine.expand(ld, 0x4000000);
    engine.expand(st, 0x4000004);
    EXPECT_FALSE(engine.expand(ld, 0x4000008).rtMiss);
    EXPECT_FALSE(engine.expand(st, 0x400000c).rtMiss);
}

TEST(Engine, RtLongSequencesDoNotAliasAcrossIds)
{
    // Regression: the RT index used a hardwired id << 3 stride, so two
    // sequences longer than 8 instructions with adjacent ids overlapped
    // in the RT — re-expanding an already-resident sequence missed. The
    // stride must be derived from the active set's longest sequence.
    DiseConfig config;
    config.rtEntries = 64;
    config.rtAssoc = 1;
    DiseEngine engine(config);
    auto set = std::make_shared<ProductionSet>();
    for (int s = 0; s < 2; ++s) {
        ReplacementSeq seq;
        seq.name = "L" + std::to_string(s);
        for (int i = 0; i < 9; ++i) // > 8: overflows an 8-slot stride
            seq.insts.push_back(rTriggerInsn());
        const SeqId id = set->addSequence(seq);
        PatternSpec pattern;
        pattern.opcode = s == 0 ? Opcode::LDQ : Opcode::STQ;
        set->addPattern(pattern, id);
    }
    engine.setProductions(set);
    const DecodedInst ld = decode(makeMemory(Opcode::LDQ, 1, 2, 0));
    const DecodedInst st = decode(makeMemory(Opcode::STQ, 1, 2, 0));
    engine.expand(ld, 0x4000000); // cold fill
    engine.expand(st, 0x4000004); // cold fill
    // Both sequences fit 64 entries with room to spare; re-expansion
    // must hit in full.
    EXPECT_FALSE(engine.expand(ld, 0x4000008).rtMiss);
    EXPECT_FALSE(engine.expand(st, 0x400000c).rtMiss);
    EXPECT_EQ(engine.stats().get("rt_misses"), 2u);
}

TEST(Engine, PtEvictionSplitsGroupResidency)
{
    // An opcode is PT-resident only while EVERY covering pattern is
    // resident. Evicting one pattern of a group must re-derive
    // residency so the next fetch of a covered opcode faults the whole
    // group back in.
    DiseConfig config;
    config.ptEntries = 2;
    DiseEngine engine(config);
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: op == ldq -> R1\n"
        "P2: class == load -> R1\n"
        "P3: op == stq -> R1\n"
        "R1: T.INSN\n"));
    engine.setProductions(set);
    const DecodedInst ld = decode(makeMemory(Opcode::LDQ, 1, 2, 0));
    const DecodedInst st = decode(makeMemory(Opcode::STQ, 1, 2, 0));
    engine.expand(ld, 0x4000000); // miss: fills P1+P2 (both cover ldq)
    EXPECT_EQ(engine.stats().get("pt_misses"), 1u);
    engine.expand(ld, 0x4000004); // resident
    EXPECT_EQ(engine.stats().get("pt_misses"), 1u);
    // stq faults P3 in; the 2-entry PT evicts LRU P1, splitting ldq's
    // {P1, P2} group even though P2 stays resident.
    engine.expand(st, 0x4000008);
    EXPECT_EQ(engine.stats().get("pt_misses"), 2u);
    // The split group means ldq is no longer resident: miss again.
    engine.expand(ld, 0x400000c);
    EXPECT_EQ(engine.stats().get("pt_misses"), 3u);
    engine.expand(ld, 0x4000010); // whole group refilled: resident
    EXPECT_EQ(engine.stats().get("pt_misses"), 3u);
}

TEST(Engine, ComposedFillPaysHigherPenalty)
{
    DiseEngine engine;
    auto set = std::make_shared<ProductionSet>();
    ReplacementSeq seq;
    seq.name = "C";
    seq.insts.push_back(rTriggerInsn());
    seq.composeOnFill = true;
    PatternSpec pattern;
    pattern.opclass = OpClass::Load;
    set->addPattern(pattern, set->addSequence(seq));
    engine.setProductions(set);
    const auto result = engine.expand(aLoad(), 0x4000000);
    ASSERT_TRUE(result.rtMiss);
    EXPECT_EQ(result.missPenalty,
              engine.config().missPenalty + // PT cold miss
                  engine.config().composedMissPenalty);
    EXPECT_EQ(engine.stats().get("rt_misses_composed"), 1u);
}

TEST(Engine, FlushTablesForcesRefill)
{
    DiseEngine engine;
    engine.setProductions(mfiLikeSet());
    engine.expand(aLoad(), 0x4000000);
    engine.flushTables();
    const auto result = engine.expand(aLoad(), 0x4000004);
    EXPECT_TRUE(result.ptMiss);
    EXPECT_TRUE(result.rtMiss);
}

TEST(Engine, ExpansionCacheMatchesDirectInstantiation)
{
    // The memoized fast path must return exactly what the IL would
    // produce, across register directives (T.RS/T.RT/T.RD, literals and
    // dedicated registers), immediates (literal, T.IMM, @abs targets)
    // and T.INSN.
    DiseEngine engine;
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: addq T.RS, T.RT, $dr1\n"
        "    srl T.RD, #26, $dr2\n"
        "    ldq $dr3, T.IMM(T.RS)\n"
        "    beq $dr1, @0x4000f00\n"
        "    T.INSN\n"));
    engine.setProductions(set);
    const ReplacementSeq &seq = set->sequences().begin()->second;
    const DecodedInst trigger = aLoad();
    const Addr pc = 0x4000100;
    const std::vector<DecodedInst> direct =
        instantiateSeq(seq, trigger, pc);

    const auto first = engine.expand(trigger, pc); // cache fill
    ASSERT_EQ(first.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(first[i], direct[i]);
    const auto second = engine.expand(trigger, pc); // cache hit
    ASSERT_EQ(second.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(second[i], direct[i]);
    EXPECT_EQ(engine.stats().get("expand_cache_fills"), 1u);
    EXPECT_EQ(engine.stats().get("expand_cache_hits"), 1u);
}

TEST(Engine, ExpansionCacheCoversParamDirectives)
{
    // Aware-ACF directives: codeword parameters in register fields
    // (T.P1..T.P3) and immediate fields (T.P*, T.PIMM). Distinct
    // parameter values are distinct trigger words, so they must get
    // distinct cache entries.
    DiseEngine engine;
    auto set = std::make_shared<ProductionSet>();
    {
        ReplacementSeq seq;
        seq.name = "params";
        ReplacementInst ri;
        ri.templ = decode(makeOperate(Opcode::ADDQ, 0, 0, 0));
        ri.raDir = RegDirective::Param1;
        ri.rbDir = RegDirective::Param2;
        ri.rcDir = RegDirective::Param3;
        seq.insts.push_back(ri);
        set->addSequenceWithId(0, seq);
    }
    {
        ReplacementSeq seq;
        seq.name = "pimm";
        ReplacementInst ri;
        ri.templ = decode(makeMemory(Opcode::LDQ, 1, 2, 0));
        ri.immDir = ImmDirective::ParamImm;
        seq.insts.push_back(ri);
        set->addSequenceWithId(1, seq);
    }
    PatternSpec cw;
    cw.opcode = Opcode::RES0;
    set->addTagPattern(cw, 0);
    engine.setProductions(set);

    const DecodedInst a =
        decode(makeCodeword(Opcode::RES0, 0, 5, 9, 16));
    const DecodedInst b =
        decode(makeCodeword(Opcode::RES0, 0, 6, 10, 17));
    const DecodedInst c = decode(makeCodewordImm(Opcode::RES0, 1, -42));
    for (const DecodedInst &trigger : {a, b, c}) {
        const auto result = engine.expand(trigger, 0x4000000);
        ASSERT_TRUE(result.expanded);
        const std::vector<DecodedInst> direct =
            instantiateSeq(*result.seq, trigger, 0x4000000);
        ASSERT_EQ(result.size(), direct.size());
        for (size_t i = 0; i < direct.size(); ++i)
            EXPECT_EQ(result[i], direct[i]);
    }
    // Re-expansions hit and still match.
    for (const DecodedInst &trigger : {a, b, c}) {
        const auto result = engine.expand(trigger, 0x4000004);
        const std::vector<DecodedInst> direct =
            instantiateSeq(*result.seq, trigger, 0x4000004);
        ASSERT_EQ(result.size(), direct.size());
        for (size_t i = 0; i < direct.size(); ++i)
            EXPECT_EQ(result[i], direct[i]);
    }
    EXPECT_EQ(engine.stats().get("expand_cache_hits"), 3u);
}

TEST(Engine, ExpansionCacheCoversTriggerRawReEmit)
{
    // Sandboxing's re-emit idiom: T.OP with raw register fields copies
    // the trigger through with a substituted base. Two different loads
    // must not share a cache entry.
    DiseEngine engine;
    auto set = std::make_shared<ProductionSet>();
    ReplacementSeq seq;
    seq.name = "reemit";
    ReplacementInst ri;
    ri.templ = decode(makeMemory(Opcode::LDL, 0, 0, 0));
    ri.opDir = OpDirective::Trigger;
    ri.raDir = RegDirective::TriggerRaw;
    ri.rbDir = RegDirective::TriggerRaw;
    ri.rcDir = RegDirective::TriggerRaw;
    ri.immDir = ImmDirective::TriggerImm;
    seq.insts.push_back(ri);
    PatternSpec pattern;
    pattern.opclass = OpClass::Load;
    set->addPattern(pattern, set->addSequence(seq));
    engine.setProductions(set);

    const DecodedInst x = decode(makeMemory(Opcode::LDQ, 5, 9, 16));
    const DecodedInst y = decode(makeMemory(Opcode::LDL, 3, 7, -8));
    for (int round = 0; round < 2; ++round) {
        for (const DecodedInst &trigger : {x, y}) {
            const auto result = engine.expand(trigger, 0x4000000);
            ASSERT_TRUE(result.expanded);
            const std::vector<DecodedInst> direct =
                instantiateSeq(seq, trigger, 0x4000000);
            ASSERT_EQ(result.size(), direct.size());
            for (size_t i = 0; i < direct.size(); ++i)
                EXPECT_EQ(result[i], direct[i]);
        }
    }
    EXPECT_EQ(engine.stats().get("expand_cache_fills"), 2u);
    EXPECT_EQ(engine.stats().get("expand_cache_hits"), 2u);
}

TEST(Engine, ExpansionCachePcDependentKeyedByPC)
{
    // Sequences that read the trigger's PC (T.PC, @abs targets) must be
    // memoized per PC: the same trigger word at two PCs instantiates
    // differently.
    DiseEngine engine;
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: addq T.RS, T.PC, $dr1\n"
        "    beq $dr1, @0x4000f00\n"
        "    T.INSN\n"));
    engine.setProductions(set);
    const ReplacementSeq &seq = set->sequences().begin()->second;
    const DecodedInst trigger = aLoad();

    const auto atA = engine.expand(trigger, 0x4000000);
    const auto directA = instantiateSeq(seq, trigger, 0x4000000);
    ASSERT_EQ(atA.size(), directA.size());
    for (size_t i = 0; i < directA.size(); ++i)
        EXPECT_EQ(atA[i], directA[i]);

    const auto atB = engine.expand(trigger, 0x4000800);
    const auto directB = instantiateSeq(seq, trigger, 0x4000800);
    ASSERT_EQ(atB.size(), directB.size());
    for (size_t i = 0; i < directB.size(); ++i)
        EXPECT_EQ(atB[i], directB[i]);

    // Distinct PCs are distinct entries; revisiting the first PC hits
    // and yields the first PC's instantiation.
    EXPECT_EQ(engine.stats().get("expand_cache_fills"), 2u);
    const auto again = engine.expand(trigger, 0x4000000);
    EXPECT_EQ(engine.stats().get("expand_cache_hits"), 1u);
    ASSERT_EQ(again.size(), directA.size());
    for (size_t i = 0; i < directA.size(); ++i)
        EXPECT_EQ(again[i], directA[i]);
}

TEST(Engine, ExpansionCachePcIndependentSharedAcrossPCs)
{
    DiseEngine engine;
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: srl T.RS, #26, $dr1\n"
        "    T.INSN\n"));
    engine.setProductions(set);
    engine.expand(aLoad(), 0x4000000);
    engine.expand(aLoad(), 0x5000000);
    EXPECT_EQ(engine.stats().get("expand_cache_fills"), 1u);
    EXPECT_EQ(engine.stats().get("expand_cache_hits"), 1u);
}

TEST(Engine, ExpansionCacheDroppedOnFlushAndReinstall)
{
    DiseEngine engine;
    engine.setProductions(mfiLikeSet());
    engine.expand(aLoad(), 0x4000000);
    engine.expand(aLoad(), 0x4000000);
    EXPECT_EQ(engine.stats().get("expand_cache_hits"), 1u);
    engine.flushTables();
    engine.expand(aLoad(), 0x4000000); // refill, not a hit
    EXPECT_EQ(engine.stats().get("expand_cache_hits"), 1u);
    EXPECT_EQ(engine.stats().get("expand_cache_fills"), 2u);
    engine.setProductions(mfiLikeSet());
    engine.expand(aLoad(), 0x4000000); // new productions: refill again
    EXPECT_EQ(engine.stats().get("expand_cache_hits"), 1u);
    EXPECT_EQ(engine.stats().get("expand_cache_fills"), 3u);
}

TEST(Engine, ExpansionCacheArchStatsMatchSlowPath)
{
    // Architectural counters (expansions, PT/RT misses, replacement
    // instructions) and the produced instruction stream must be
    // bit-identical with the fast path on and off.
    DiseConfig slow;
    slow.expansionCacheMaxEntries = 0; // every expansion from scratch
    DiseConfig fastSmall;
    fastSmall.expansionCacheMaxEntries = 2; // exercise the full-cache path
    for (const DiseConfig &fastConfig : {DiseConfig(), fastSmall}) {
        DiseEngine fast(fastConfig);
        DiseEngine ref(slow);
        fast.setProductions(mfiLikeSet());
        ref.setProductions(mfiLikeSet());
        const std::vector<DecodedInst> stream = {
            aLoad(),
            decode(makeOperate(Opcode::ADDQ, 1, 2, 3)),
            decode(makeMemory(Opcode::STQ, 4, 5, 8)),
            aLoad(),
            aLoad(),
            decode(makeMemory(Opcode::LDQ, 6, 7, 24)),
            decode(makeMemory(Opcode::STQ, 4, 5, 8)),
        };
        Addr pc = 0x4000000;
        for (const DecodedInst &fetched : stream) {
            const auto a = fast.expand(fetched, pc);
            const auto b = ref.expand(fetched, pc);
            EXPECT_EQ(a.expanded, b.expanded);
            EXPECT_EQ(a.ptMiss, b.ptMiss);
            EXPECT_EQ(a.rtMiss, b.rtMiss);
            EXPECT_EQ(a.missPenalty, b.missPenalty);
            ASSERT_EQ(a.size(), b.size());
            for (size_t i = 0; i < a.size(); ++i)
                EXPECT_EQ(a[i], b[i]);
            pc += 4;
        }
        for (const char *key : {"inspected", "expansions", "pt_misses",
                                "rt_misses", "replacement_insts"}) {
            EXPECT_EQ(fast.stats().get(key), ref.stats().get(key))
                << key;
        }
        EXPECT_EQ(ref.stats().get("expand_cache_fills"), 0u);
        EXPECT_EQ(ref.stats().get("expand_cache_hits"), 0u);
    }
}

TEST(Engine, ExplicitTagSelectsSequence)
{
    DiseEngine engine;
    auto set = std::make_shared<ProductionSet>();
    for (uint16_t tag = 0; tag < 4; ++tag) {
        ReplacementSeq seq;
        seq.name = "D" + std::to_string(tag);
        for (int i = 0; i <= tag; ++i)
            seq.insts.push_back(rTriggerInsn());
        set->addSequenceWithId(tag, seq);
    }
    PatternSpec cw;
    cw.opcode = Opcode::RES0;
    set->addTagPattern(cw, 0);
    engine.setProductions(set);
    for (uint16_t tag = 0; tag < 4; ++tag) {
        const auto result = engine.expand(
            decode(makeCodeword(Opcode::RES0, tag, 0, 0, 0)), 0x4000000);
        ASSERT_TRUE(result.expanded);
        EXPECT_EQ(result.size(), size_t(tag) + 1);
    }
}

TEST(Engine, UnboundTagIsFatal)
{
    DiseEngine engine;
    auto set = std::make_shared<ProductionSet>();
    set->addSequenceWithId(0, ReplacementSeq{"D0", {rTriggerInsn()}});
    PatternSpec cw;
    cw.opcode = Opcode::RES0;
    set->addTagPattern(cw, 0);
    engine.setProductions(set);
    EXPECT_THROW(engine.expand(
                     decode(makeCodeword(Opcode::RES0, 99, 0, 0, 0)),
                     0x4000000),
                 FatalError);
}

TEST(Engine, OverlongSequenceRefusedBeforeAnyStateChange)
{
    // The trace record's DISEPC fields are 16 bits: a sequence one
    // slot longer than kMaxSeqLen must be refused, naming itself, and
    // leave the controller and engine exactly as they were.
    DiseController controller;
    controller.install(mfiLikeSet());
    const DiseEngine &engine = controller.engine();
    const ProductionSet *active = engine.productions();
    const uint64_t gen = engine.generation();

    auto set = std::make_shared<ProductionSet>();
    const SeqId id = set->addSequence(ReplacementSeq{
        "Overlong",
        std::vector<ReplacementInst>(kMaxSeqLen + 1, rTriggerInsn())});
    PatternSpec loads;
    loads.opclass = OpClass::Load;
    set->addPattern(loads, id);
    try {
        controller.install(set);
        FAIL() << "a 65,536-slot sequence was installed";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("'Overlong'"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(engine.productions(), active);
    EXPECT_EQ(controller.active().get(), active);
    EXPECT_EQ(engine.generation(), gen);
    const ExpandResult r = controller.engine().expand(aLoad(), 0x4000000);
    ASSERT_TRUE(r.expanded);
    EXPECT_EQ(r.size(), 4u); // still the installed MFI-like sequence
}

TEST(Engine, SequenceIdsAboveTheCapRefusedBeforeAnyStateChange)
{
    // The engine keeps per-sequence state dense over [0, largest id]:
    // an id above kMaxSeqId must be refused, naming the sequence,
    // before it sizes anything.
    DiseEngine engine;
    engine.setProductions(mfiLikeSet());
    const uint64_t gen = engine.generation();
    auto set = std::make_shared<ProductionSet>();
    set->addSequenceWithId(kMaxSeqId + 1,
                           ReplacementSeq{"Far", {rTriggerInsn()}});
    PatternSpec cw;
    cw.opcode = Opcode::RES0;
    set->addTagPattern(cw, 0);
    try {
        engine.setProductions(set);
        FAIL() << "sequence id " << kMaxSeqId + 1 << " was installed";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("'Far'"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(engine.generation(), gen);
    EXPECT_EQ(engine.expand(aLoad(), 0x4000000).size(), 4u);

    auto edge = std::make_shared<ProductionSet>();
    edge->addSequenceWithId(kMaxSeqId,
                            ReplacementSeq{"Edge", {rTriggerInsn()}});
    edge->addTagPattern(cw, kMaxSeqId);
    EXPECT_NO_THROW(engine.setProductions(edge));
    EXPECT_TRUE(
        engine.expand(decode(makeCodeword(Opcode::RES0, 0, 0, 0, 0)),
                      0x4000000)
            .expanded);
}

/**
 * The PT/RT LRU order written out eagerly: every walk writes a fresh
 * stamp into each pattern and RT entry it touches, an RT fill takes the
 * first invalid way else the smallest stamp, and a PT fill evicts the
 * resident pattern with the smallest stamp. The engine derives the
 * same stamps from one clock per walk; this is the reference it must
 * match miss for miss. It models injected RT corruption as well: with
 * the LRU order alone, a walk can only pick a different victim after
 * it has already missed, and LRU content converges by the walk's end;
 * whether a corrupt slot is evicted or hit is what shows the order.
 */
class EagerLruOracle
{
  public:
    struct Outcome
    {
        bool expanded = false;
        bool ptMiss = false;
        bool rtMiss = false;
        uint32_t missPenalty = 0;
    };

    EagerLruOracle(const DiseConfig &config,
                   std::shared_ptr<const ProductionSet> set)
        : config_(config), set_(std::move(set)),
          byOpcode_(static_cast<size_t>(Opcode::NUM_OPCODES)),
          opResident_(byOpcode_.size(), false)
    {
        const auto &prods = set_->productions();
        for (uint32_t i = 0; i < prods.size(); ++i) {
            for (const Opcode op : prods[i].pattern.coveredOpcodes())
                byOpcode_[static_cast<size_t>(op)].push_back(i);
        }
        uint32_t maxLen = 1;
        for (const auto &kv : set_->sequences())
            maxLen = std::max(maxLen, kv.second.length());
        while ((1u << shift_) < maxLen)
            ++shift_;
        if (config_.rtEntries != 0)
            sets_ = config_.rtEntries / config_.rtAssoc;
        flush();
    }

    void
    flush()
    {
        ptStamp_.assign(set_->productions().size(), 0);
        opResident_.assign(opResident_.size(), false);
        rt_.assign(config_.rtEntries, Entry());
    }

    /** DiseEngine::corruptReplacementEntry's pick and effect. */
    bool
    corrupt(uint64_t pick)
    {
        std::vector<Entry *> valid;
        for (Entry &entry : rt_)
            if (entry.valid)
                valid.push_back(&entry);
        if (valid.empty())
            return false;
        valid[pick % valid.size()]->corrupt = true;
        ++counts["rt_faults_injected"];
        return true;
    }

    Outcome
    inspect(const DecodedInst &inst)
    {
        Outcome out;
        ++counts["inspected"];
        const auto &covering = byOpcode_[static_cast<size_t>(inst.op)];
        if (!covering.empty() && walkPatternTable(inst.op, covering)) {
            out.ptMiss = true;
            out.missPenalty += config_.missPenalty;
            ++counts["pt_misses"];
        }
        const auto id = set_->match(inst);
        if (!id)
            return out;
        const ReplacementSeq &seq = *set_->sequence(*id);
        if (walkReplacementTable(*id, seq.length())) {
            out.rtMiss = true;
            out.missPenalty += seq.composeOnFill
                                   ? config_.composedMissPenalty
                                   : config_.missPenalty;
            ++counts["rt_misses"];
            if (seq.composeOnFill)
                ++counts["rt_misses_composed"];
        }
        out.expanded = true;
        ++counts["expansions"];
        counts["replacement_insts"] += seq.length();
        return out;
    }

    std::map<std::string, uint64_t> counts;

  private:
    struct Entry
    {
        bool valid = false;
        SeqId seqId = 0;
        uint32_t disepc = 0;
        uint64_t lastUse = 0;
        bool corrupt = false;
    };

    bool
    walkPatternTable(Opcode op, const std::vector<uint32_t> &covering)
    {
        for (const uint32_t idx : covering)
            ptStamp_[idx] = ++clock_;
        if (opResident_[static_cast<size_t>(op)])
            return false;
        for (;;) {
            uint32_t resident = 0, victim = 0;
            uint64_t oldest = ~uint64_t(0);
            for (uint32_t i = 0; i < ptStamp_.size(); ++i) {
                if (ptStamp_[i] == 0)
                    continue;
                ++resident;
                if (ptStamp_[i] < oldest) {
                    oldest = ptStamp_[i];
                    victim = i;
                }
            }
            if (resident <= config_.ptEntries)
                break;
            ptStamp_[victim] = 0;
        }
        // An opcode stays resident while all its patterns are: the one
        // just filled, and any resident one no eviction split.
        opResident_[static_cast<size_t>(op)] = true;
        for (size_t o = 0; o < byOpcode_.size(); ++o) {
            for (const uint32_t idx : byOpcode_[o])
                if (ptStamp_[idx] == 0)
                    opResident_[o] = false;
        }
        return true;
    }

    bool
    walkReplacementTable(SeqId id, uint32_t length)
    {
        if (config_.rtEntries == 0)
            return false;
        bool miss = false, garbled = false;
        for (uint32_t slot = 0; slot < length; ++slot) {
            Entry *way = &rt_[(((uint64_t(id) << shift_) + slot) &
                               (sets_ - 1)) *
                              config_.rtAssoc];
            Entry *use = nullptr;
            for (uint32_t w = 0; w < config_.rtAssoc; ++w) {
                if (way[w].valid && way[w].seqId == id &&
                    way[w].disepc == slot)
                    use = &way[w];
            }
            if (use && use->corrupt && config_.parityChecks) {
                ++counts["rt_parity_detected"];
                *use = Entry();
                use = nullptr;
            } else if (use && use->corrupt) {
                garbled = true;
            }
            if (!use) {
                miss = true;
                // The first invalid way, else the least recently used.
                for (uint32_t w = 0; w < config_.rtAssoc; ++w) {
                    if (!way[w].valid) {
                        use = &way[w];
                        break;
                    }
                    if (!use || way[w].lastUse < use->lastUse)
                        use = &way[w];
                }
                *use = Entry{true, id, slot, 0, false};
            }
            use->lastUse = ++clock_;
        }
        if (garbled)
            ++counts["rt_garbage_expansions"];
        return miss;
    }

    DiseConfig config_;
    std::shared_ptr<const ProductionSet> set_;
    std::vector<std::vector<uint32_t>> byOpcode_;
    std::vector<bool> opResident_;
    std::vector<uint64_t> ptStamp_;
    std::vector<Entry> rt_;
    uint32_t sets_ = 0;
    unsigned shift_ = 3;
    uint64_t clock_ = 0;
};

/** A seeded random production set over loads and stores. */
std::shared_ptr<ProductionSet>
randomLoadStoreSet(std::mt19937 &rng)
{
    const Opcode ops[] = {Opcode::LDQ, Opcode::LDL, Opcode::LDBU,
                          Opcode::STQ, Opcode::STL};
    auto set = std::make_shared<ProductionSet>();
    std::vector<SeqId> seqs;
    const int numSeqs = 1 + int(rng() % 4);
    for (int s = 0; s < numSeqs; ++s) {
        ReplacementSeq seq;
        seq.name = "S" + std::to_string(s);
        // Up to 12 slots: longer than every small RT's set count.
        seq.insts.assign(1 + rng() % 12, rTriggerInsn());
        seq.composeOnFill = rng() % 4 == 0;
        seqs.push_back(set->addSequence(seq));
    }
    const int numPatterns = 2 + int(rng() % 5);
    for (int p = 0; p < numPatterns; ++p) {
        PatternSpec pattern;
        switch (rng() % 4) {
          case 0: // covers every load opcode
            pattern.opclass = OpClass::Load;
            break;
          case 1:
            pattern.opclass = OpClass::Store;
            break;
          default:
            pattern.opcode = ops[rng() % std::size(ops)];
            break;
        }
        if (rng() % 3 == 0)
            pattern.rs = RegIndex(rng() % 3);
        set->addPattern(pattern, seqs[rng() % seqs.size()]);
    }
    return set;
}

TEST(Engine, DerivedLruOrderMatchesEagerStamps)
{
    // Seeded random trigger streams through the eager oracle, through
    // expand() alone, and through expandFast() with per-static-trigger
    // memos (expand() and fillMemo when the memo declines), flushing
    // mid-stream and, in half the streams, corrupting RT entries with
    // parity on or off. Every inspection's misses and penalty must
    // agree, and so must every counter at the end.
    const uint32_t ptSizes[] = {1, 2, 3};
    const std::pair<uint32_t, uint32_t> rts[] = {
        {2, 1}, {2, 2}, {4, 1}, {8, 2}, {16, 4}, {0, 1}};
    const Opcode ops[] = {Opcode::LDQ, Opcode::LDL, Opcode::LDBU,
                          Opcode::STQ, Opcode::STL, Opcode::ADDQ};
    uint64_t fastHits = 0, rtMisses = 0, ptMisses = 0;
    for (const uint32_t pt : ptSizes) {
        for (const auto &[entries, assoc] : rts) {
            for (uint32_t seed = 0; seed < 40; ++seed) {
                SCOPED_TRACE("pt " + std::to_string(pt) + " rt " +
                             std::to_string(entries) + "/" +
                             std::to_string(assoc) + " seed " +
                             std::to_string(seed));
                std::mt19937 rng(seed * 7919 + pt * 131 + entries);
                DiseConfig config;
                config.ptEntries = pt;
                config.rtEntries = entries;
                config.rtAssoc = assoc;
                config.parityChecks = seed % 2 == 0;
                const auto set = randomLoadStoreSet(rng);
                EagerLruOracle oracle(config, set);
                DiseEngine slow(config), fast(config);
                slow.setProductions(set);
                fast.setProductions(set);

                // A static program: each trigger keeps its own memo.
                std::vector<DecodedInst> program;
                for (int i = 0; i < 24; ++i) {
                    const Opcode op = ops[rng() % std::size(ops)];
                    program.push_back(decode(
                        op == Opcode::ADDQ
                            ? makeOperate(op, 1, 2, 3)
                            : makeMemory(op, RegIndex(rng() % 4),
                                         RegIndex(rng() % 3),
                                         int64_t(rng() % 64))));
                }
                std::vector<ExpandMemo> memos(program.size());
                size_t pos = 0;
                for (int step = 0; step < 400; ++step) {
                    if (rng() % 150 == 0) {
                        oracle.flush();
                        slow.flushTables();
                        fast.flushTables();
                    }
                    if (seed % 4 < 2 && rng() % 40 == 0) {
                        const uint64_t pick = rng();
                        const bool injected = oracle.corrupt(pick);
                        ASSERT_EQ(slow.corruptReplacementEntry(pick, 3),
                                  injected);
                        ASSERT_EQ(fast.corruptReplacementEntry(pick, 3),
                                  injected);
                    }
                    // Mostly short hops, so triggers repeat.
                    pos = rng() % 4 == 0 ? rng() % program.size()
                                         : (pos + rng() % 3) %
                                               program.size();
                    const DecodedInst &inst = program[pos];
                    const Addr pc = 0x4000000 + 4 * pos;
                    const auto want = oracle.inspect(inst);
                    const ExpandResult got = slow.expand(inst, pc);
                    ASSERT_EQ(got.expanded, want.expanded) << step;
                    ASSERT_EQ(got.ptMiss, want.ptMiss) << step;
                    ASSERT_EQ(got.rtMiss, want.rtMiss) << step;
                    ASSERT_EQ(got.missPenalty, want.missPenalty) << step;

                    ExpandMemo &memo = memos[pos];
                    if (fast.expandFast(memo)) {
                        ++fastHits;
                        ASSERT_EQ(memo.kind == ExpandMemo::Expanded,
                                  want.expanded)
                            << step;
                        ASSERT_FALSE(want.ptMiss || want.rtMiss) << step;
                        continue;
                    }
                    const ExpandResult r = fast.expand(inst, pc);
                    ASSERT_EQ(r.ptMiss, want.ptMiss) << step;
                    ASSERT_EQ(r.rtMiss, want.rtMiss) << step;
                    ASSERT_EQ(r.missPenalty, want.missPenalty) << step;
                    fast.fillMemo(memo, inst, r);
                }
                for (const auto &[name, value] : oracle.counts) {
                    EXPECT_EQ(slow.stats().get(name), value) << name;
                    EXPECT_EQ(fast.stats().get(name), value) << name;
                }
                EXPECT_EQ(slow.stats().counters(), fast.stats().counters());
                rtMisses += oracle.counts["rt_misses"];
                ptMisses += oracle.counts["pt_misses"];
            }
        }
    }
    // The streams really do thrash both tables and replay memos.
    EXPECT_GT(fastHits, 10000u);
    EXPECT_GT(rtMisses, 10000u);
    EXPECT_GT(ptMisses, 10000u);
}

TEST(Controller, InstallAndDeactivate)
{
    DiseController controller;
    controller.install(mfiLikeSet());
    EXPECT_TRUE(controller.engine().expand(aLoad(), 0x4000000).expanded);
    controller.deactivate();
    EXPECT_FALSE(controller.engine().expand(aLoad(), 0x4000000).expanded);
}

TEST(OsKernel, KernelAcfsApplyToEveryProcess)
{
    DiseController controller;
    DiseOsKernel kernel(controller);
    DiseRegFile regs;
    kernel.installKernelAcf("mfi", *mfiLikeSet());
    EXPECT_TRUE(controller.engine().expand(aLoad(), 0x4000000).expanded);
    kernel.switchTo(1, regs);
    EXPECT_TRUE(controller.engine().expand(aLoad(), 0x4000000).expanded);
}

TEST(OsKernel, UserAcfsDeactivatedOnSwitch)
{
    DiseController controller;
    DiseOsKernel kernel(controller);
    DiseRegFile regs;
    kernel.submitUserAcf(0, *mfiLikeSet()); // current pid is 0
    EXPECT_TRUE(controller.engine().expand(aLoad(), 0x4000000).expanded);
    kernel.switchTo(1, regs);
    EXPECT_FALSE(controller.engine().expand(aLoad(), 0x4000000).expanded);
    kernel.switchTo(0, regs);
    EXPECT_TRUE(controller.engine().expand(aLoad(), 0x4000000).expanded);
}

TEST(OsKernel, DedicatedRegistersContextSwitch)
{
    DiseController controller;
    DiseOsKernel kernel(controller);
    DiseRegFile regs;
    regs[2] = 0x1111;
    kernel.switchTo(1, regs); // saves pid 0's registers
    EXPECT_EQ(regs[2], 0u);   // fresh process state
    regs[2] = 0x2222;
    kernel.switchTo(0, regs);
    EXPECT_EQ(regs[2], 0x1111u);
    kernel.switchTo(1, regs);
    EXPECT_EQ(regs[2], 0x2222u);
}

TEST(OsKernel, RemoveKernelAcf)
{
    DiseController controller;
    DiseOsKernel kernel(controller);
    kernel.installKernelAcf("mfi", *mfiLikeSet());
    kernel.removeKernelAcf("mfi");
    EXPECT_FALSE(controller.engine().expand(aLoad(), 0x4000000).expanded);
}

} // namespace
} // namespace dise
