/**
 * @file
 * google-benchmark microbenchmarks of the DISE engine structures
 * themselves (Section 2.2): pattern-table matching against production
 * sets of varying size, replacement-table lookup under the different
 * geometries, instantiation-logic throughput, and end-to-end expansion
 * of a fetch stream. These measure the *simulator's* hot paths — the
 * structures every fetched instruction passes through.
 */

#include <benchmark/benchmark.h>

#include "bench/harness.hpp"
#include "src/acf/mfi.hpp"
#include "src/assembler/assembler.hpp"
#include "src/dise/engine.hpp"
#include "src/dise/parser.hpp"
#include "src/workloads/workloads.hpp"

namespace {

using namespace dise;

std::shared_ptr<ProductionSet>
patternsOfSize(unsigned patterns)
{
    auto set = std::make_shared<ProductionSet>();
    ReplacementSeq seq;
    seq.name = "R";
    seq.insts.push_back(rTriggerInsn());
    const SeqId id = set->addSequence(seq);
    // Distinct patterns: loads with each possible destination register.
    for (unsigned i = 0; i < patterns; ++i) {
        PatternSpec pattern;
        pattern.opclass = OpClass::Load;
        pattern.rd = static_cast<RegIndex>(i % 30);
        if (i >= 30)
            pattern.opcode = Opcode::LDL;
        set->addPattern(pattern, id);
    }
    return set;
}

void
BM_PatternMatch(benchmark::State &state)
{
    const auto set = patternsOfSize(unsigned(state.range(0)));
    const DecodedInst ld = decode(makeMemory(Opcode::LDQ, 5, 9, 16));
    const DecodedInst add = decode(makeOperate(Opcode::ADDQ, 1, 2, 3));
    for (auto _ : state) {
        benchmark::DoNotOptimize(set->match(ld));
        benchmark::DoNotOptimize(set->match(add));
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 2);
}
BENCHMARK(BM_PatternMatch)->Arg(2)->Arg(8)->Arg(32);

void
BM_Instantiate(benchmark::State &state)
{
    const ProductionSet set = parseProductions(
        "P1: class == load -> R1\n"
        "R1: srl T.RS, #26, $dr1\n"
        "    cmpeq $dr1, $dr2, $dr1\n"
        "    beq $dr1, @0x4000f00\n"
        "    T.INSN\n");
    const ReplacementSeq &seq = set.sequences().begin()->second;
    const DecodedInst trigger = decode(makeMemory(Opcode::LDQ, 5, 9, 16));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            instantiateSeq(seq, trigger, 0x4000000));
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            seq.insts.size());
}
BENCHMARK(BM_Instantiate);

void
BM_EngineExpand(benchmark::State &state)
{
    // Alternating loads and adds: 50% trigger rate, like MFI on a
    // memory-heavy stream. Arg selects the RT geometry.
    DiseConfig config;
    config.rtEntries = uint32_t(state.range(0));
    config.rtAssoc = 2;
    DiseEngine engine(config);
    const Program dummy = assemble(".text\nmain:\n    nop\n"
                                   "error:\n    nop\n");
    MfiOptions mopts;
    engine.setProductions(std::make_shared<ProductionSet>(
        makeMfiProductions(dummy, mopts)));
    const DecodedInst ld = decode(makeMemory(Opcode::LDQ, 5, 9, 16));
    const DecodedInst add = decode(makeOperate(Opcode::ADDQ, 1, 2, 3));
    Addr pc = 0x4000000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.expand(ld, pc));
        benchmark::DoNotOptimize(engine.expand(add, pc + 4));
        pc += 8;
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 2);
}
BENCHMARK(BM_EngineExpand)->Arg(0)->Arg(64)->Arg(2048);

void
BM_ExpansionRate(benchmark::State &state)
{
    // Expansion-heavy stream: every fetched instruction triggers a
    // composed-scale replacement (a dictionary-entry body with each
    // memory instruction wrapped in the MFI check, as in Figure 8), so
    // items/sec IS expansions/sec. Arg(1) runs the memoized fast path,
    // Arg(0) forces re-instantiation on every expansion (slow path).
    // Same productions, same fetch stream, so architectural stats are
    // identical; only the instantiation work differs.
    DiseConfig config;
    config.rtEntries = 2048;
    config.rtAssoc = 2;
    if (state.range(0) == 0)
        config.expansionCacheMaxEntries = 0;
    DiseEngine engine(config);
    engine.setProductions(
        std::make_shared<ProductionSet>(parseProductions(
            "P1: class == load -> R1\n"
            "R1: srl T.RS, #26, $dr1\n"
            "    cmpeq $dr1, $dr2, $dr1\n"
            "    beq $dr1, @0x4000f00\n"
            "    ldq $dr3, T.IMM(T.RS)\n"
            "    srl $dr3, #26, $dr1\n"
            "    cmpeq $dr1, $dr2, $dr1\n"
            "    beq $dr1, @0x4000f00\n"
            "    addq $dr3, T.RT, $dr4\n"
            "    srl $dr4, #26, $dr1\n"
            "    cmpeq $dr1, $dr2, $dr1\n"
            "    beq $dr1, @0x4000f00\n"
            "    stq $dr4, T.IMM($dr3)\n"
            "    srl T.RS, #26, $dr1\n"
            "    cmpeq $dr1, $dr2, $dr1\n"
            "    beq $dr1, @0x4000f00\n"
            "    T.INSN\n")));
    // A small working set of static trigger sites, revisited like an
    // inner loop's loads are: the same (word, PC) pairs recur, which is
    // what the memoization keys on. MFI sequences branch to the error
    // handler, so they are PC-dependent and cache per site.
    std::vector<DecodedInst> triggers;
    for (uint8_t ra = 1; ra <= 64; ++ra)
        triggers.push_back(
            decode(makeMemory(Opcode::LDQ, ra % 30, 9, 8 * ra)));
    size_t i = 0;
    for (auto _ : state) {
        const size_t site = i++ % triggers.size();
        benchmark::DoNotOptimize(
            engine.expand(triggers[site], 0x4000000 + 4 * site));
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
    state.counters["expansions/s"] = benchmark::Counter(
        double(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExpansionRate)->Arg(1)->Arg(0);

void
BM_FunctionalSimThroughput(benchmark::State &state)
{
    WorkloadSpec spec = workloadSpec("bzip2");
    spec.targetDynInsts = 50000;
    spec.kernelIters = 500;
    const Program prog = buildWorkload(spec);
    for (auto _ : state) {
        ExecCore core(prog);
        const RunResult result = core.run();
        benchmark::DoNotOptimize(result.dynInsts);
        state.SetItemsProcessed(int64_t(result.dynInsts));
    }
}
BENCHMARK(BM_FunctionalSimThroughput)->Unit(benchmark::kMillisecond);

void
BM_DiseSimThroughput(benchmark::State &state)
{
    // items/sec here is simulated instructions per second (MIPS when
    // divided by 1e6). Arg(1) = expansion fast path, Arg(0) = slow.
    WorkloadSpec spec = workloadSpec("bzip2");
    spec.targetDynInsts = 50000;
    spec.kernelIters = 500;
    const Program prog = buildWorkload(spec);
    MfiOptions mopts;
    auto set =
        std::make_shared<ProductionSet>(makeMfiProductions(prog, mopts));
    DiseConfig config;
    if (state.range(0) == 0)
        config.expansionCacheMaxEntries = 0;
    uint64_t simulated = 0;
    for (auto _ : state) {
        DiseController controller(config);
        controller.install(set);
        ExecCore core(prog, &controller);
        initMfiRegisters(core, prog);
        const RunResult result = core.run();
        benchmark::DoNotOptimize(result.dynInsts);
        simulated += result.dynInsts;
        state.SetItemsProcessed(int64_t(simulated));
    }
    state.counters["sim-MIPS"] = benchmark::Counter(
        double(simulated) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DiseSimThroughput)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

/**
 * Console reporter that additionally records every run into the
 * DISE_BENCH_JSON artifact: "BM_Name/arg" maps to workload BM_Name,
 * regime arg ("default" for argless benchmarks).
 */
class RecordingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        ConsoleReporter::ReportRuns(reports);
        for (const Run &run : reports) {
            if (run.error_occurred ||
                run.run_type != Run::RT_Iteration) {
                continue;
            }
            const std::string name = run.benchmark_name();
            const size_t slash = name.find('/');
            const std::string workload = name.substr(0, slash);
            const std::string regime =
                slash == std::string::npos ? "default"
                                           : name.substr(slash + 1);
            Json entry = dise::Json::object();
            entry["iterations"] = Json(uint64_t(run.iterations));
            Json counters = dise::Json::object();
            for (const auto &kv : run.counters)
                counters[kv.first] = Json(double(kv.second));
            const auto items = run.counters.find("items_per_second");
            entry["items_per_second"] = Json(
                items != run.counters.end() ? double(items->second)
                                            : 0.0);
            // Guest insts/sec only for benchmarks that simulate guest
            // code (they publish sim-MIPS); expansion micros report 0.
            const auto mips = run.counters.find("sim-MIPS");
            entry["host"] = dise::hostSection(
                run.real_accumulated_time,
                mips != run.counters.end()
                    ? uint64_t(double(mips->second) * 1e6 *
                               run.real_accumulated_time)
                    : 0);
            entry["counters"] = std::move(counters);
            dise::bench::BenchJson::instance().record(workload, regime,
                                                      std::move(entry));
        }
    }
};

} // namespace

int
main(int argc, char **argv)
{
    // Shared bench flags first (stripped), the rest to Google Benchmark.
    dise::bench::benchInit(argc, argv, "bench_engine_micro");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    return dise::bench::benchGuard([] {
        RecordingReporter reporter;
        benchmark::RunSpecifiedBenchmarks(&reporter);
        benchmark::Shutdown();
        dise::bench::BenchJson::instance().write("engine_micro",
                                                 "micro");
    });
}
