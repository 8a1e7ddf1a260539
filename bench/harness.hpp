/**
 * @file
 * Shared helpers for the paper-figure benchmark harnesses: cached
 * workload construction, standard machine configurations, and run
 * wrappers for the native / DISE / rewriting regimes.
 *
 * Configuration comes from BenchConfig (bench/bench_config.hpp):
 * one validated struct fed by the DISE_BENCH_* / DISE_FAULT_* env vars
 * with --jobs/--scale/--only/--json/--fault-* CLI flags layered on
 * top. Every bench main calls benchInit(argc, argv, name) first.
 *
 * Sharding runs on the process-wide SimScheduler work-stealing pool
 * (benchScheduler()); runNative/runDise execute through the service
 * executors (src/service/runner.hpp), so a bench run and a
 * `diserun --batch` job of the same shape share one setup path.
 *
 * Thread-safety contract for bench bodies: per-run state (controller,
 * core, pipeline) is built fresh inside each run*() call; shared sinks
 * (BenchJson, the program cache) are internally synchronized; failures
 * throw FatalError — never std::exit — so they unwind through the
 * scheduler's exception channel to benchGuard() on the main thread.
 */

#ifndef DISE_BENCH_HARNESS_HPP
#define DISE_BENCH_HARNESS_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_config.hpp"
#include "src/acf/compress.hpp"
#include "src/acf/mfi.hpp"
#include "src/acf/rewriter.hpp"
#include "src/common/logging.hpp"
#include "src/common/scheduler.hpp"
#include "src/common/singleflight.hpp"
#include "src/common/stats.hpp"
#include "src/common/table.hpp"
#include "src/pipeline/pipeline.hpp"
#include "src/service/runner.hpp"
#include "src/workloads/workloads.hpp"

namespace dise::bench {

/**
 * Parse the shared bench flags (and validate the corresponding env
 * vars) for this bench. Call first in every bench main; consumed flags
 * are stripped from argv for benches that parse their own afterwards.
 */
inline void
benchInit(int &argc, char **argv, const char *benchName)
{
    BenchConfig::init(argc, argv, benchName);
}

/** Benchmarks selected for this run, in suite order. */
inline std::vector<WorkloadSpec>
selectedSpecs()
{
    const BenchConfig &cfg = BenchConfig::get();
    std::vector<WorkloadSpec> specs;
    for (const WorkloadSpec &spec : spec2000()) {
        if (cfg.selected(spec.name))
            specs.push_back(scaledSpec(spec, cfg.scale));
    }
    return specs;
}

/**
 * Build (and cache) a workload program. Thread-safe and single-flight:
 * when sharded workers race for the same spec, exactly one runs
 * buildWorkload and the rest wait for its result.
 */
inline const Program &
program(const WorkloadSpec &spec)
{
    static SingleFlightCache<std::string, Program> cache;
    return cache.get(spec.name,
                     [&spec] { return buildWorkload(spec); });
}

/** Worker count (BenchConfig jobs; --jobs / DISE_BENCH_JOBS). */
inline unsigned
benchJobs()
{
    return BenchConfig::get().jobs;
}

/**
 * The process-wide scheduler every sharded bench stage runs on.
 * Constructed on first use (after benchInit has fixed the job count);
 * campaign benches pass it to runCampaign() so trials share the pool.
 */
inline SimScheduler &
benchScheduler()
{
    static SimScheduler scheduler(benchJobs());
    return scheduler;
}

/**
 * Run @p fn over every spec on the bench scheduler and return the
 * results in suite order. Each call of @p fn must build its own
 * simulators/engines (all run*() helpers do), so a sharded suite
 * produces bit-identical numbers to a serial one; the first exception
 * cancels the remaining specs and rethrows on this thread.
 */
template <typename Fn>
auto
mapSpecs(const std::vector<WorkloadSpec> &specs, Fn fn)
    -> std::vector<decltype(fn(specs.front()))>
{
    return benchScheduler().map(specs, std::move(fn));
}

/** Baseline machine of the paper's evaluation. */
inline PipelineParams
baselineMachine(uint32_t icacheKB = 32, uint32_t width = 4)
{
    PipelineParams params;
    params.width = width;
    params.mem.l1iSize = icacheKB * 1024; // 0 = perfect
    return params;
}

/**
 * Collector for the bench JSON artifact: timing/micro/campaign entries
 * keyed by workload and regime, serialized once at bench exit by
 * write(). Thread-safe (scheduler workers record concurrently);
 * entries are stored in sorted maps, so the artifact is byte-identical
 * at any worker count or recording order.
 */
class BenchJson
{
  public:
    static BenchJson &
    instance()
    {
        static BenchJson recorder;
        return recorder;
    }

    /** Enabled iff BenchConfig names an artifact directory. */
    bool enabled() const { return !dir_.empty(); }

    /** Record one workload x regime entry (any kind). */
    void
    record(const std::string &workload, const std::string &regime,
           Json entry)
    {
        if (!enabled())
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        workloads_[workload][regime] = std::move(entry);
    }

    /**
     * Write BENCH_<name>.json into the artifact directory (created if
     * missing) and clear the recorded entries.
     */
    void
    write(const std::string &name, const std::string &kind)
    {
        if (!enabled())
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        Json doc = Json::object();
        doc["schema_version"] = Json(uint64_t(1));
        doc["bench"] = Json(name);
        doc["kind"] = Json(kind);
        Json host = Json::object();
        host["jobs"] = Json(uint64_t(benchJobs()));
        host["seconds"] = Json(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count());
        doc["host"] = std::move(host);
        doc["workloads"] = std::move(workloads_);
        workloads_ = Json::object();
        std::filesystem::create_directories(dir_);
        const std::string path =
            (std::filesystem::path(dir_) / ("BENCH_" + name + ".json"))
                .string();
        std::ofstream out(path);
        if (!out)
            fatal("bench json: cannot write " + path);
        out << doc.dump(2) << "\n";
        if (!out)
            fatal("bench json: write failed: " + path);
    }

  private:
    BenchJson() : dir_(BenchConfig::get().jsonDir) {}

    std::string dir_;
    std::mutex mutex_;
    Json workloads_ = Json::object();
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/**
 * Run a program with no DISE. When @p workload / @p regime labels are
 * given and artifacts are enabled, the run is recorded in the bench's
 * JSON artifact under those labels.
 */
inline TimingResult
runNative(const Program &prog, const PipelineParams &params,
          const std::string &workload = "",
          const std::string &regime = "")
{
    PreparedJob job;
    job.prog = &prog;
    job.machine = params;
    SimOptions opts;
    opts.benchEntry = !workload.empty() && BenchJson::instance().enabled();
    TimingOutcome out = runTimingSim(job, opts);
    if (opts.benchEntry) {
        BenchJson::instance().record(workload, regime,
                                     std::move(out.benchEntry));
    }
    return out.timing;
}

/**
 * Run a program under DISE with the given productions and config.
 * Labels work as in runNative().
 */
inline TimingResult
runDise(const Program &prog, const PipelineParams &params,
        std::shared_ptr<const ProductionSet> set, const DiseConfig &config,
        bool mfiRegs = false, const Program *segSource = nullptr,
        const std::string &workload = "", const std::string &regime = "")
{
    PreparedJob job;
    job.prog = &prog;
    job.machine = params;
    job.productions = std::move(set);
    job.dise = config;
    if (mfiRegs) {
        const Program *seg = segSource ? segSource : &prog;
        job.initCore = [seg](ExecCore &core) {
            initMfiRegisters(core, *seg);
        };
    }
    SimOptions opts;
    opts.benchEntry = !workload.empty() && BenchJson::instance().enabled();
    TimingOutcome out = runTimingSim(job, opts);
    if (opts.benchEntry) {
        BenchJson::instance().record(workload, regime,
                                     std::move(out.benchEntry));
    }
    return out.timing;
}

/**
 * Abort the bench loudly if a run misbehaved. Throws (FatalError)
 * rather than exiting so failures inside scheduler workers unwind
 * through the scheduler's exception channel — never std::exit on a
 * worker thread — and benchGuard() turns the rethrown error into exit
 * status 1 at main.
 */
inline void
check(const TimingResult &result, const std::string &what)
{
    if (!result.arch.exited || result.arch.exitCode != 0) {
        fatal(strFormat("BENCH FAILURE: %s exited=%d code=%d",
                        what.c_str(), int(result.arch.exited),
                        result.arch.exitCode));
    }
}

/**
 * Run a bench body, mapping the harness error classes onto process
 * exit codes (user/workload error 1, simulator invariant 2) like the
 * tools do. Use as:
 *   int main(int argc, char **argv) {
 *       benchInit(argc, argv, "name");
 *       return benchGuard([] {...});
 *   }
 */
template <typename Fn>
inline int
benchGuard(Fn &&fn)
{
    try {
        fn();
        return 0;
    } catch (const PanicError &) {
        return 2;
    } catch (const FatalError &) {
        return 1;
    }
}

/** Geometric mean helper for summary rows. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log = 0;
    for (const double v : values)
        log += std::log(v);
    return std::exp(log / double(values.size()));
}

} // namespace dise::bench

#endif // DISE_BENCH_HARNESS_HPP
