/**
 * @file
 * The one place simulation jobs are prepared and executed.
 *
 * prepareJob() turns a RunRequest into a PreparedJob — the program
 * (built, scaled, optionally MFI-rewritten and/or compressed), the
 * installed-production set, the engine/machine configuration, and the
 * core-initialization hook — and runFunctionalSim()/runTimingSim()
 * execute a PreparedJob on a fresh core/pipeline, returning the unified
 * RunResult plus optional artifact-shaped JSON.
 *
 * diserun, the bench harness run helpers (runNative/runDise), and the
 * SimSession batch paths all route through these executors, so the
 * per-run setup (controller construction, register initialization, the
 * timing-entry artifact shape) exists exactly once.
 *
 * Every executor call builds its own controller and core from const
 * inputs, so concurrent calls on the same PreparedJob are safe — this
 * is what lets SimScheduler fan jobs out across workers.
 */

#ifndef DISE_SERVICE_RUNNER_HPP
#define DISE_SERVICE_RUNNER_HPP

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/acf/profiler.hpp"
#include "src/pipeline/pipeline.hpp"
#include "src/service/request.hpp"
#include "src/workloads/workloads.hpp"

namespace dise {

/**
 * Scale a workload's dynamic-instruction target and kernel iterations.
 * The single implementation behind RunRequest::scale and the bench
 * harness's --scale flag.
 */
WorkloadSpec scaledSpec(WorkloadSpec spec, double scale);

/**
 * Per-entry host-side throughput section: wall-clock seconds and guest
 * instructions simulated per second. Host-dependent by construction —
 * determinism comparisons must strip it (validate_bench_json.py
 * --compare does).
 */
Json hostSection(double seconds, uint64_t guestInsts);

/** An executable simulation job: program + ACFs + configuration. */
struct PreparedJob
{
    /** Program storage when prepareJob built or transformed it. */
    std::shared_ptr<const Program> owned;
    /** The program to run (== owned.get() or an external program). */
    const Program *prog = nullptr;

    /** Productions to install; null = no DISE controller at all. */
    std::shared_ptr<const ProductionSet> productions;
    DiseConfig dise;

    /** Decode-stage macro-op fusion (ExecCore::setFusionEnabled). */
    bool fusion = false;

    PipelineParams machine;
    bool traceCache = true;
    /** Timing: batched retire-trace delivery (false = step reference). */
    bool traceFeed = true;
    /** Timing: SMARTS sampling unit/window; 0 = full-detail timing. */
    uint64_t samplePeriod = 0;
    uint64_t sampleDetail = 0;
    uint64_t maxInsts = ~uint64_t(0);
    uint64_t maxCycles = 0;

    /** Path-profile buffer base; 0 = no profiler installed. */
    Addr profileBuffer = 0;

    /** Per-run core setup (dedicated registers); may be null. */
    std::function<void(ExecCore &)> initCore;
};

/**
 * Prepare a request for execution: build (or adopt @p base), resolve
 * the request's ACF-spec list through the AcfRegistry (production-set
 * assembly and composition, program transforms, the fusion switch),
 * and compose the register-initialization hook.
 *
 * @param base An already-built base program to start from (e.g. a
 *             session-cached workload); null = build from the request.
 */
PreparedJob prepareJob(const RunRequest &req,
                       const Program *base = nullptr);

/** What an executor should collect beyond the architectural result. */
struct SimOptions
{
    /** Dump engine (and timing: cache/predictor) counter text. */
    bool statsText = false;
    /** Build the full StatsRegistry JSON document (--stats-json). */
    bool registry = false;
    /** Timing: build the bench-artifact timing entry. */
    bool benchEntry = false;
    /** Functional: step the first n instructions through onTrace. */
    uint64_t traceInsts = 0;
    std::function<void(const DynInst &dyn, uint64_t index)> onTrace;
    /**
     * Functional: warm-start from this snapshot instead of from reset.
     * Must have been taken from a core prepared with the same job (see
     * takeWarmupSnapshot); the run then covers only the remainder and
     * its results are bit-identical to a cold run of the whole program.
     */
    const SimSnapshot *resume = nullptr;
    /**
     * Cooperative-cancellation flag, polled at block-dispatch
     * granularity (see ExecCore::setCancelFlag). A set flag ends the
     * run with outcome Hang — the caller (e.g. a serving deadline
     * watchdog) knows whether it tripped the flag and can reclassify.
     * Null = never cancelled.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/** One functional run's outputs. */
struct FunctionalOutcome
{
    RunResult arch;
    double hostSeconds = 0.0;
    /** Full stats-registry document (run.*, dise.* when present,
     *  host.*); null unless SimOptions::registry. */
    Json registry;
    std::string statsText;
    std::vector<PathRecord> profile;
};

/** One timing run's outputs. */
struct TimingOutcome
{
    TimingResult timing;
    double hostSeconds = 0.0;
    /** Bench-artifact timing entry (cycles/ipc/buckets/counters/host);
     *  null unless SimOptions::benchEntry. */
    Json benchEntry;
    /** Full stats-registry document; null unless SimOptions::registry. */
    Json registry;
    std::string statsText;
    std::vector<PathRecord> profile;
};

/** Run a PreparedJob on the architectural simulator (ExecCore). */
FunctionalOutcome runFunctionalSim(const PreparedJob &job,
                                   const SimOptions &opts = {});

/**
 * Execute @p job on a fresh core up to @p warmupAppInsts application
 * instructions and capture the state (COW memory fork — the snapshot
 * costs O(pages touched), not a full image copy). Feed the result to
 * SimOptions::resume to warm-start runs sharing the same prefix.
 *
 * A clean guest exit during warmup degenerates to a snapshot of the
 * finished run; a guest *trap* during warmup is a FatalError (the
 * caller asked to warm past a point the program never reaches
 * intact), as is a tripped @p cancel flag.
 */
SimSnapshot takeWarmupSnapshot(const PreparedJob &job,
                               uint64_t warmupAppInsts,
                               const std::atomic<bool> *cancel = nullptr);

/** Run a PreparedJob on the cycle-level simulator (PipelineSim). */
TimingOutcome runTimingSim(const PreparedJob &job,
                           const SimOptions &opts = {});

/**
 * The bench-artifact entry for one timing run: cycles/CPI, per-stage
 * cycle buckets, every component counter and derived ratio (via
 * PipelineSim::registerStats), and the host section.
 */
Json timingEntryJson(PipelineSim &sim, const TimingResult &t,
                     double hostSeconds);

} // namespace dise

#endif // DISE_SERVICE_RUNNER_HPP
