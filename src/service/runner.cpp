#include "src/service/runner.hpp"

#include <algorithm>
#include <chrono>

#include "src/acf/assertions.hpp"
#include "src/acf/mfi.hpp"
#include "src/acf/registry.hpp"
#include "src/assembler/assembler.hpp"
#include "src/common/logging.hpp"
#include "src/common/stats.hpp"
#include "src/sim/snapshot.hpp"

namespace dise {

WorkloadSpec
scaledSpec(WorkloadSpec spec, double scale)
{
    if (!(scale > 0))
        fatal("workload scale must be > 0");
    if (scale != 1.0) {
        spec.targetDynInsts = static_cast<uint64_t>(
            double(spec.targetDynInsts) * scale);
        spec.kernelIters = std::max(
            1u, static_cast<uint32_t>(double(spec.kernelIters) * scale));
    }
    return spec;
}

Json
hostSection(double seconds, uint64_t guestInsts)
{
    Json host = Json::object();
    host["seconds"] = Json(seconds);
    host["insts_per_second"] =
        Json(safeRatio(double(guestInsts), seconds));
    return host;
}

PreparedJob
prepareJob(const RunRequest &req, const Program *base)
{
    req.validate();
    PreparedJob job;

    // ---- Build the program. ----
    Program prog;
    if (base) {
        prog = *base;
    } else if (!req.workload.empty()) {
        prog = buildWorkload(
            scaledSpec(workloadSpec(req.workload), req.scale));
    } else {
        prog = assemble(req.source);
    }

    // ---- Resolve the ACF environment through the one registry.
    // Both request forms funnel through here: the legacy booleans
    // desugar to the same spec list the "acfs" form carries.
    const AcfBuild acfBuild = AcfRegistry::instance().build(
        req.normalizedAcfs(), req.productions, prog);

    job.owned = std::make_shared<const Program>(std::move(prog));
    job.prog = job.owned.get();
    job.productions = acfBuild.productions;
    job.fusion = acfBuild.fusion;
    job.profileBuffer = acfBuild.profileBuffer;

    // ---- Configuration. ----
    job.dise = req.dise;
    job.traceCache = req.traceCache;
    job.traceFeed = req.traceFeed;
    job.samplePeriod = req.samplePeriod;
    job.sampleDetail = req.sampleDetail;
    job.machine.width = req.width;
    job.machine.mem.l1iSize = req.icacheKB * 1024; // 0 = perfect
    job.maxInsts = req.maxInsts;
    job.maxCycles = req.maxCycles;

    // ---- Register-initialization hook. ----
    const bool mfiRegs = acfBuild.mfiRegisters;
    const bool profRegs = acfBuild.profilerRegisters;
    const bool watchRegs = acfBuild.watchRegisters;
    const Addr watchAddr = acfBuild.watchAddr;
    const Addr profileBuffer = job.profileBuffer;
    std::shared_ptr<const Program> owned = job.owned;
    if (mfiRegs || profRegs) {
        job.initCore = [mfiRegs, profRegs, watchRegs, watchAddr,
                        profileBuffer, owned](ExecCore &core) {
            if (mfiRegs)
                initMfiRegisters(core, *owned);
            if (watchRegs)
                initWatchpointRegisters(core, watchAddr, 0);
            if (profRegs)
                initProfilerRegisters(core, profileBuffer);
        };
    }
    return job;
}

namespace {

/** Fresh controller for a job; null when the job installs no ACFs. */
std::unique_ptr<DiseController>
makeController(const PreparedJob &job)
{
    if (!job.productions)
        return nullptr;
    auto controller = std::make_unique<DiseController>(job.dise);
    controller->install(job.productions);
    return controller;
}

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

void
setRunMeta(StatsRegistry &reg, RunOutcome outcome, double hostSeconds,
           uint64_t dynInsts)
{
    reg.set("run.outcome", Json(std::string(runOutcomeName(outcome))));
    reg.set("host.seconds", Json(hostSeconds));
    reg.set("host.insts_per_second",
            Json(safeRatio(double(dynInsts), hostSeconds)));
}

} // namespace

Json
timingEntryJson(PipelineSim &sim, const TimingResult &t,
                double hostSeconds)
{
    StatsRegistry reg;
    sim.registerStats(reg);
    Json entry = Json::object();
    entry["cycles"] = Json(t.cycles);
    entry["insts"] = Json(t.arch.dynInsts);
    entry["ipc"] = Json(t.ipc());
    entry["cpi"] = Json(
        safeRatio(double(t.cycles), double(t.arch.dynInsts)));
    entry["host"] = hostSection(hostSeconds, t.arch.dynInsts);
    Json buckets = Json::object();
    buckets["issue"] = Json(t.buckets.issue);
    buckets["imiss_stall"] = Json(t.buckets.imissStall);
    buckets["dmiss_stall"] = Json(t.buckets.dmissStall);
    buckets["branch_flush"] = Json(t.buckets.branchFlush);
    buckets["dise_stall"] = Json(t.buckets.diseStall);
    buckets["hazard"] = Json(t.buckets.hazard);
    buckets["drain"] = Json(t.buckets.drain);
    entry["buckets"] = std::move(buckets);
    entry["counters"] = reg.toJson();
    if (t.sampling.enabled) {
        // A lone sampled run reports the measurement and the
        // extrapolation; its error needs a full-detail run to compare.
        Json sampling = Json::object();
        sampling["period"] = Json(t.sampling.period);
        sampling["detail"] = Json(t.sampling.detail);
        sampling["sampled_insts"] = Json(t.sampling.sampledInsts);
        sampling["warmed_insts"] = Json(t.sampling.warmedInsts);
        sampling["measured_cycles"] = Json(t.sampling.measuredCycles);
        sampling["measured_cpi"] = Json(t.sampling.measuredCpi());
        sampling["estimated_cycles"] = Json(t.estimatedCycles());
        entry["sampling"] = std::move(sampling);
    }
    return entry;
}

SimSnapshot
takeWarmupSnapshot(const PreparedJob &job, uint64_t warmupAppInsts,
                   const std::atomic<bool> *cancel)
{
    DISE_ASSERT(job.prog != nullptr, "job without a program");
    // RunRequest::validate rejects fusion + warmup (a fused boundary
    // retires two application instructions, breaking exactly-N).
    DISE_ASSERT(!job.fusion, "warmup snapshot of a fusion job");
    std::unique_ptr<DiseController> controller = makeController(job);
    ExecCore core(*job.prog, controller.get());
    core.setTraceCacheEnabled(job.traceCache);
    core.setCancelFlag(cancel);
    if (job.initCore)
        job.initCore(core);
    core.advanceToAppInst(warmupAppInsts);
    if (core.cancelRequested())
        fatal("warmup snapshot cancelled before reaching its target");
    // A clean exit during warmup is fine — the snapshot degenerates to
    // the finished run. A trap is not: the guest broke before the
    // warmup point, and resuming a trapped core would silently report
    // the trap as the run's result.
    if (core.trapped()) {
        fatal(strFormat("warmup trapped after %llu of %llu application "
                        "instructions",
                        (unsigned long long)core.result().appInsts,
                        (unsigned long long)warmupAppInsts));
    }
    SimSnapshot snap;
    core.saveSnapshot(snap);
    return snap;
}

FunctionalOutcome
runFunctionalSim(const PreparedJob &job, const SimOptions &opts)
{
    DISE_ASSERT(job.prog != nullptr, "job without a program");
    FunctionalOutcome out;
    std::unique_ptr<DiseController> controller = makeController(job);
    ExecCore core(*job.prog, controller.get());
    core.setTraceCacheEnabled(job.traceCache);
    core.setFusionEnabled(job.fusion);
    core.setCancelFlag(opts.cancel);
    if (job.initCore)
        job.initCore(core);
    if (opts.resume)
        core.restoreSnapshot(*opts.resume);

    const auto t0 = std::chrono::steady_clock::now();
    if (opts.traceInsts > 0) {
        DynInst dyn;
        for (uint64_t i = 0; i < opts.traceInsts && core.step(dyn); ++i) {
            if (opts.onTrace)
                opts.onTrace(dyn, i);
        }
    }
    out.arch = core.run(job.maxInsts);
    out.hostSeconds = secondsSince(t0);

    // One registry walk feeds both the text (--stats) and the JSON
    // (--stats-json) outputs so the two can never drift apart: a
    // counter group registered here shows up in both or in neither.
    if (opts.statsText || opts.registry) {
        StatsRegistry reg;
        StatGroup runStats("run");
        runStats.set("dyn_insts", out.arch.dynInsts);
        runStats.set("app_insts", out.arch.appInsts);
        runStats.set("dise_insts", out.arch.diseInsts);
        runStats.set("expansions", out.arch.expansions);
        runStats.set("loads", out.arch.loads);
        runStats.set("stores", out.arch.stores);
        runStats.set("acf_detections", out.arch.acfDetections);
        reg.add("run", &runStats);
        if (controller)
            reg.add("dise", &controller->engine().stats());
        if (job.fusion)
            reg.add("acf.fusion", &core.fusionStatGroup());
        setRunMeta(reg, out.arch.outcome, out.hostSeconds,
                   out.arch.dynInsts);
        if (opts.statsText)
            out.statsText = reg.dump();
        if (opts.registry)
            out.registry = reg.toJson();
    }
    if (job.profileBuffer != 0)
        out.profile = readPathProfile(core, job.profileBuffer);
    return out;
}

TimingOutcome
runTimingSim(const PreparedJob &job, const SimOptions &opts)
{
    DISE_ASSERT(job.prog != nullptr, "job without a program");
    TimingOutcome out;
    std::unique_ptr<DiseController> controller = makeController(job);
    PipelineSim sim(*job.prog, job.machine, controller.get());
    sim.core().setTraceCacheEnabled(job.traceCache);
    sim.core().setFusionEnabled(job.fusion);
    sim.setTraceFeed(job.traceFeed);
    if (job.samplePeriod != 0)
        sim.setSampling(job.samplePeriod, job.sampleDetail);
    sim.core().setCancelFlag(opts.cancel);
    if (job.initCore)
        job.initCore(sim.core());

    const auto t0 = std::chrono::steady_clock::now();
    out.timing = sim.run(job.maxInsts, job.maxCycles);
    out.hostSeconds = secondsSince(t0);

    if (opts.benchEntry)
        out.benchEntry = timingEntryJson(sim, out.timing,
                                         out.hostSeconds);
    // One registry walk for both output shapes (see runFunctionalSim):
    // PipelineSim::registerStats is the single authority on which
    // component groups a timing run exposes.
    if (opts.statsText || opts.registry) {
        StatsRegistry reg;
        sim.registerStats(reg);
        setRunMeta(reg, out.timing.arch.outcome, out.hostSeconds,
                   out.timing.arch.dynInsts);
        if (opts.statsText)
            out.statsText = reg.dump();
        if (opts.registry)
            out.registry = reg.toJson();
    }
    if (job.profileBuffer != 0)
        out.profile = readPathProfile(sim.core(), job.profileBuffer);
    return out;
}

} // namespace dise
