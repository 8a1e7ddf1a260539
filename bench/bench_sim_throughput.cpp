/**
 * @file
 * Simulator throughput: guest instructions simulated per host second.
 *
 * Not a paper figure — a host-side performance harness for the
 * simulator itself, guarding the translated basic-block engine's
 * speedup (DESIGN.md section 9) and the timing model's trace feed
 * (DESIGN.md section 14). Per workload it measures guest MIPS for:
 *
 *   functional               no DISE, trace cache on
 *   functional_mfi           MFI (DISE3) productions, trace cache on
 *   functional_mfi_slowpath  same run with the trace cache disabled
 *                            (the --no-trace-cache escape hatch)
 *   timing_mfi               baseline 4-wide machine, MFI productions,
 *                            batched trace feed (the default path)
 *   timing_mfi_stepfeed      the same machine on the step-driven
 *                            reference path (--no-trace-feed)
 *   timing_mfi_sampled       SMARTS-style sampled timing on the feed
 *   timing_mfi_fused         the same machine with the macro-op fusion
 *                            ACF enabled; its artifact entry carries a
 *                            deterministic "fusion" section with the
 *                            per-family pair counts, the fused
 *                            coverage of the retired stream, and the
 *                            IPC delta over timing_mfi
 *
 * Differential checks (hard failures): the fast and slow functional
 * MFI runs must retire the identical instruction count, the feed
 * and step-driven timing runs must agree bit-for-bit on cycles, every
 * cycle bucket, the prediction/redirect counters, and the retired
 * instruction count (the full bit-identity suite lives in
 * tests/test_trace_feed.cpp), and the fused timing run must retire an
 * architectural result identical to the unfused one — fusion contracts
 * issue slots, never semantics. The "speedup" column is functional_mfi
 * over its slow-path twin; "t-spdup" is the feed over the step-driven
 * reference, also recorded (host section, so determinism comparisons
 * strip it) in the timing_mfi entry. The sampled entry carries a
 * "sampling" section with the window configuration and the CPI error
 * of the extrapolation against the full-detail run.
 *
 * Honors the usual harness knobs (DISE_BENCH_SCALE / _ONLY / _JOBS /
 * _JSON); the JSON artifact is BENCH_sim_throughput.json with kind
 * "throughput", whose entries carry the guest instruction count and
 * the per-entry host section. Host wall-clock numbers are inherently
 * machine-dependent: determinism comparisons strip every host section
 * and every sampling section (validate_bench_json.py --compare).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench/harness.hpp"

using namespace dise;
using namespace dise::bench;

namespace {

/** Sampled-timing configuration exercised by the bench. */
constexpr uint64_t kSamplePeriod = 10000;
constexpr uint64_t kSampleDetail = 2000;

struct Measured
{
    uint64_t insts = 0;
    double seconds = 0.0;

    double
    mips() const
    {
        return seconds > 0.0 ? double(insts) / 1e6 / seconds : 0.0;
    }
};

/** A timing run: wall-clock measurement plus the full timing result. */
struct TimedMeasured
{
    Measured m;
    TimingResult t;
    /** acf.fusion counters when the run had fusion enabled. */
    std::map<std::string, uint64_t> fusionCounters;
};

Json
throughputEntry(const Measured &m)
{
    Json entry = Json::object();
    entry["insts"] = Json(m.insts);
    entry["host"] = hostSection(m.seconds, m.insts);
    return entry;
}

std::shared_ptr<const ProductionSet>
mfiSet(const Program &prog)
{
    MfiOptions opts;
    opts.variant = MfiVariant::Dise3;
    return std::make_shared<const ProductionSet>(
        makeMfiProductions(prog, opts));
}

Measured
runFunctional(const Program &prog,
              std::shared_ptr<const ProductionSet> set, bool traceCache,
              const std::string &what)
{
    std::unique_ptr<DiseController> controller;
    if (set) {
        controller = std::make_unique<DiseController>(DiseConfig{});
        controller->install(std::move(set));
    }
    ExecCore core(prog, controller.get());
    if (controller)
        initMfiRegisters(core, prog);
    core.setTraceCacheEnabled(traceCache);
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = core.run();
    Measured m;
    m.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    m.insts = r.dynInsts;
    if (!r.exited || r.exitCode != 0) {
        fatal(strFormat("BENCH FAILURE: %s exited=%d code=%d",
                        what.c_str(), int(r.exited), r.exitCode));
    }
    return m;
}

TimedMeasured
runTimingMfi(const Program &prog,
             std::shared_ptr<const ProductionSet> set,
             const std::string &what, bool traceFeed,
             uint64_t samplePeriod = 0, uint64_t sampleDetail = 0,
             bool fusion = false)
{
    DiseController controller{DiseConfig{}};
    controller.install(std::move(set));
    PipelineSim sim(prog, baselineMachine(), &controller);
    sim.setTraceFeed(traceFeed);
    if (samplePeriod != 0)
        sim.setSampling(samplePeriod, sampleDetail);
    initMfiRegisters(sim.core(), prog);
    sim.core().setFusionEnabled(fusion);
    const auto t0 = std::chrono::steady_clock::now();
    TimedMeasured out;
    out.t = sim.run();
    out.m.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    out.m.insts = out.t.arch.dynInsts;
    if (fusion)
        out.fusionCounters = sim.core().fusionStatGroup().counters();
    check(out.t, what);
    return out;
}

/**
 * The deterministic "fusion" artifact section of the timing_mfi_fused
 * entry: per-family pair counts, the fused fraction of the retired
 * stream, and the IPC the contraction buys over the unfused twin.
 * Everything here must be bit-stable across runs (validated by
 * validate_bench_json.py --compare, which does NOT strip it).
 */
Json
fusionSection(const TimedMeasured &fused, const TimedMeasured &unfused)
{
    Json out = Json::object();
    for (const auto &kv : fused.fusionCounters)
        out[kv.first] = Json(kv.second);
    const uint64_t pairs = fused.fusionCounters.count("fused_pairs")
                               ? fused.fusionCounters.at("fused_pairs")
                               : 0;
    const double cov =
        fused.t.arch.dynInsts
            ? 2.0 * double(pairs) / double(fused.t.arch.dynInsts)
            : 0.0;
    out["coverage"] = Json(cov);
    out["ipc"] = Json(fused.t.ipc());
    out["ipc_unfused"] = Json(unfused.t.ipc());
    out["ipc_delta_pct"] =
        Json(unfused.t.ipc() > 0.0
                 ? 100.0 * (fused.t.ipc() / unfused.t.ipc() - 1.0)
                 : 0.0);
    return out;
}

/**
 * The feed-vs-step identity contract, enforced loudly: both paths must
 * agree on every architectural and timing number. Cheap differential
 * twin of the registry-level comparison in tests/test_trace_feed.cpp.
 */
void
checkFeedIdentity(const std::string &bench, const TimingResult &feed,
                  const TimingResult &step)
{
    const auto mismatch = [&](const char *what, uint64_t a, uint64_t b) {
        fatal(strFormat("BENCH FAILURE: %s trace feed diverged from the "
                        "step-driven reference: %s %llu (feed) vs %llu "
                        "(step)",
                        bench.c_str(), what, (unsigned long long)a,
                        (unsigned long long)b));
    };
    const auto req = [&](const char *what, uint64_t a, uint64_t b) {
        if (a != b)
            mismatch(what, a, b);
    };
    req("dyn_insts", feed.arch.dynInsts, step.arch.dynInsts);
    req("cycles", feed.cycles, step.cycles);
    req("bucket.issue", feed.buckets.issue, step.buckets.issue);
    req("bucket.imiss_stall", feed.buckets.imissStall,
        step.buckets.imissStall);
    req("bucket.dmiss_stall", feed.buckets.dmissStall,
        step.buckets.dmissStall);
    req("bucket.branch_flush", feed.buckets.branchFlush,
        step.buckets.branchFlush);
    req("bucket.dise_stall", feed.buckets.diseStall,
        step.buckets.diseStall);
    req("bucket.hazard", feed.buckets.hazard, step.buckets.hazard);
    req("bucket.drain", feed.buckets.drain, step.buckets.drain);
    req("mispredicts", feed.mispredicts, step.mispredicts);
    req("decode_redirects", feed.decodeRedirects, step.decodeRedirects);
    req("dise_mispredicts", feed.diseMispredicts, step.diseMispredicts);
    req("expansion_stalls", feed.expansionStalls, step.expansionStalls);
    req("miss_stall_cycles", feed.missStallCycles, step.missStallCycles);
    req("icache_misses", feed.icacheMisses, step.icacheMisses);
    req("dcache_misses", feed.dcacheMisses, step.dcacheMisses);
    req("l2_misses", feed.l2Misses, step.l2Misses);
}

/** The sampling section of the timing_mfi_sampled artifact entry. */
Json
samplingSection(const TimingResult &sampled, const TimingResult &full)
{
    const SamplingInfo &s = sampled.sampling;
    Json out = Json::object();
    out["period"] = Json(s.period);
    out["detail"] = Json(s.detail);
    out["sampled_insts"] = Json(s.sampledInsts);
    out["warmed_insts"] = Json(s.warmedInsts);
    out["measured_cycles"] = Json(s.measuredCycles);
    out["estimated_cycles"] = Json(sampled.estimatedCycles());
    out["measured_cpi"] = Json(s.measuredCpi());
    const double err =
        full.cycles
            ? std::fabs(double(sampled.estimatedCycles()) -
                        double(full.cycles)) /
                  double(full.cycles)
            : 0.0;
    out["cpi_error"] = Json(err);
    return out;
}

void
runSimThroughput()
{
    std::printf("==========================================================\n");
    std::printf("Simulator throughput (guest MIPS per host second)\n");
    std::printf("==========================================================\n\n");

    const auto specs = selectedSpecs();
    TextTable table({"bench", "func", "func+MFI", "MFI-slowpath",
                     "speedup", "t-step", "t-feed", "t-spdup",
                     "t-sampled", "cpi-err%", "fuse-cov%", "fuse-ipc%"});
    struct Row
    {
        std::vector<std::string> cells;
    };
    const auto rows = mapSpecs(specs, [&](const WorkloadSpec &spec) {
        const Program &prog = program(spec);
        const auto set = mfiSet(prog);

        const Measured func = runFunctional(
            prog, nullptr, true, spec.name + " functional");
        const Measured fast = runFunctional(
            prog, set, true, spec.name + " functional_mfi");
        const Measured slow = runFunctional(
            prog, set, false, spec.name + " functional_mfi_slowpath");
        if (fast.insts != slow.insts) {
            fatal(strFormat(
                "BENCH FAILURE: %s trace cache changed retirement: "
                "%llu insts fast vs %llu slow",
                spec.name.c_str(), (unsigned long long)fast.insts,
                (unsigned long long)slow.insts));
        }

        const TimedMeasured step = runTimingMfi(
            prog, set, spec.name + " timing_mfi_stepfeed", false);
        const TimedMeasured feed =
            runTimingMfi(prog, set, spec.name + " timing_mfi", true);
        checkFeedIdentity(spec.name, feed.t, step.t);
        const TimedMeasured fused = runTimingMfi(
            prog, set, spec.name + " timing_mfi_fused", true, 0, 0,
            /*fusion=*/true);
        // Fusion is a contraction of the issue stream, never of the
        // architecture: the fused run must retire the identical
        // architectural result or the fused execution paths are wrong.
        if (fused.t.arch.toJson().dump() != feed.t.arch.toJson().dump()) {
            fatal(strFormat(
                "BENCH FAILURE: %s fused timing run diverged "
                "architecturally from the unfused run:\n  %s\nvs\n  %s",
                spec.name.c_str(), fused.t.arch.toJson().dump().c_str(),
                feed.t.arch.toJson().dump().c_str()));
        }
        const TimedMeasured sampled = runTimingMfi(
            prog, set, spec.name + " timing_mfi_sampled", true,
            kSamplePeriod, kSampleDetail);
        if (sampled.t.arch.dynInsts != feed.t.arch.dynInsts) {
            fatal(strFormat(
                "BENCH FAILURE: %s sampled timing changed retirement: "
                "%llu insts vs %llu full-detail",
                spec.name.c_str(),
                (unsigned long long)sampled.t.arch.dynInsts,
                (unsigned long long)feed.t.arch.dynInsts));
        }
        const double feedSpeedup =
            step.m.mips() > 0.0 ? feed.m.mips() / step.m.mips() : 0.0;
        const Json sampling = samplingSection(sampled.t, feed.t);
        const double cpiErr = sampling.at("cpi_error").asDouble();
        const Json fusionInfo = fusionSection(fused, feed);

        if (BenchJson::instance().enabled()) {
            BenchJson::instance().record(spec.name, "functional",
                                         throughputEntry(func));
            BenchJson::instance().record(spec.name, "functional_mfi",
                                         throughputEntry(fast));
            BenchJson::instance().record(spec.name,
                                         "functional_mfi_slowpath",
                                         throughputEntry(slow));
            Json feedEntry = throughputEntry(feed.m);
            // Host-relative ratio: lives in the host section so
            // determinism comparisons strip it with the rest.
            feedEntry["host"]["speedup_vs_step"] = Json(feedSpeedup);
            BenchJson::instance().record(spec.name, "timing_mfi",
                                         feedEntry);
            BenchJson::instance().record(spec.name,
                                         "timing_mfi_stepfeed",
                                         throughputEntry(step.m));
            Json fusedEntry = throughputEntry(fused.m);
            fusedEntry["fusion"] = fusionInfo;
            BenchJson::instance().record(spec.name, "timing_mfi_fused",
                                         fusedEntry);
            Json sampledEntry = throughputEntry(sampled.m);
            sampledEntry["sampling"] = sampling;
            BenchJson::instance().record(spec.name, "timing_mfi_sampled",
                                         sampledEntry);
        }

        Row row;
        row.cells = {spec.name,
                     TextTable::num(func.mips(), 1),
                     TextTable::num(fast.mips(), 1),
                     TextTable::num(slow.mips(), 1),
                     TextTable::num(slow.mips() > 0.0
                                        ? fast.mips() / slow.mips()
                                        : 0.0,
                                    2),
                     TextTable::num(step.m.mips(), 1),
                     TextTable::num(feed.m.mips(), 1),
                     TextTable::num(feedSpeedup, 2),
                     TextTable::num(sampled.m.mips(), 1),
                     TextTable::num(cpiErr * 100.0, 3),
                     TextTable::num(fusionInfo.at("coverage").asDouble() *
                                        100.0,
                                    2),
                     TextTable::num(
                         fusionInfo.at("ipc_delta_pct").asDouble(), 2)};
        return row;
    });
    for (const Row &row : rows)
        table.addRow(row.cells);
    std::printf("%s\n", table.render().c_str());

    BenchJson::instance().write("sim_throughput", "throughput");
}

} // namespace

int
main(int argc, char **argv)
{
    benchInit(argc, argv, "bench_sim_throughput");
    return benchGuard(runSimThroughput);
}
