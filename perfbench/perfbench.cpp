/**
 * @file
 * perfbench — the repository's end-to-end benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans PATH] [--socket PATH]
 *             [--perturb-reference run|campaign|trials]
 *
 * One process runs one workload (README.md in this directory lists the
 * workloads and why each was chosen), measures it for S seconds, checks
 * every timed result against the simulator's own reference path in an
 * untimed phase, and prints one JSON object as its last stdout line:
 * the end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. Human-readable lines before it give every per-workload
 * metric of the design (func_mips_mfi, serve_p99_ms, ...) with its
 * unit, "n/a" where the workload does not exercise it.
 *
 * Layers are measured from outside: spans are recorded here, around
 * calls into the public functions of src/workloads, src/assembler,
 * src/acf, src/service, src/sim, src/pipeline and src/faults, and
 * counters are read from what those layers already expose (RunResult,
 * ExecCore::traceCacheStats, the StatsRegistry, CampaignResult, the
 * server's {"kind":"stats"}). No simulated statistic depends on
 * whether tracing is on.
 *
 * A traced run measures the workload twice, untraced then traced, for
 * S/2 seconds each: the difference of their end-to-end figures is the
 * tracing overhead, and the per-layer numbers come from the traced
 * half plus untimed probes (trace-feed fill alone, golden run,
 * snapshot/restore, prepareJob, response serialization).
 *
 * Any mismatch against a reference, any broken invariant (cycle
 * buckets summing to the cycle count, child spans inside their
 * parents) and any failed request counts as a failed operation; the
 * result line then says "correct": false and the process exits 1.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/acf/compress.hpp"
#include "src/acf/mfi.hpp"
#include "src/assembler/assembler.hpp"
#include "src/common/logging.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/faults/campaign.hpp"
#include "src/pipeline/pipeline.hpp"
#include "src/service/runner.hpp"
#include "src/service/server.hpp"
#include "src/service/session.hpp"
#include "src/sim/snapshot.hpp"
#include "src/workloads/workloads.hpp"

using namespace dise;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Set-up is repeated at least kSetupReps times, and until the
 * repetitions span kSetupMinSeconds (cheap set-ups get more); setup_s
 * is their median. A calibration loop timed just before each set-up
 * normalizes it, and the minimum would pick the set-up whose loop a
 * burst of contention slowed (func_sweep's ranged 0.11-0.22 s).
 */
constexpr size_t kSetupReps = 8;
constexpr size_t kSetupMaxReps = 100;
constexpr double kSetupMinSeconds = 2.0;

bool
moreSetups(const std::vector<double> &done)
{
    double total = 0.0;
    for (const double s : done)
        total += s;
    return done.size() < kSetupReps ||
           (total < kSetupMinSeconds && done.size() < kSetupMaxReps);
}

/** Timed passes per run never drop below this, however short --seconds. */
constexpr int kMinPasses = 3;

/**
 * Times are taken at this percentile of their samples: contention on
 * the shared host only ever slows a run, and bursts of it can cover
 * most of a run, so the fast end is the steady estimate.
 */
constexpr double kFastPercentile = 10.0;

/** timing_sweep runs its programs at half length, so a run of the
 *  benchmark holds ~20 passes to take that percentile over. */
constexpr double kTimingScale = 0.5;

/** Sampled-timing window of the timing_sweep (unit : detail). */
constexpr uint64_t kSamplePeriod = 10000;
constexpr uint64_t kSampleDetail = 2000;

/** Trials of the campaign serve_mix probes the faults layer with (and
 *  checks against full replay). */
constexpr uint32_t kProbeCampaignTrials = 64;

/**
 * serve_mix: executors and the base arrival rate, in requests per second
 * of the reference host (the one whose calibration loop takes
 * kReferenceLoopSeconds). A host the loop finds k times slower is sent
 * 1/k of the rate, so the executors carry the same share of work on
 * every host speed and the normalized latency does not rise with the
 * host's own load. 280 keeps the two executors about 40% busy (sum of
 * host.seconds over phase time), so waiting for an executor shows in
 * the base latency, well clear of saturation.
 */
constexpr unsigned kServeExecutors = 2;
constexpr double kServeBaseRps = 280.0;
/** The sweep: rates rise by kServeSweepFactor per step until one misses
 *  the p99 latency limit (a campaign alone takes 15-25 ms). */
constexpr double kServeLatencyLimitMs = 50.0;
constexpr double kServeSweepFactor = 1.25;
constexpr int kServeSweepSteps = 5;
/** Share of --seconds the base load runs over TCP instead of the
 *  server's unix socket. */
constexpr double kServeTcpShare = 0.1;

// ------------------------------------------------------------------
// Statistics helpers.

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p p (0..100) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p / 100.0 * double(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

// ------------------------------------------------------------------
// Host-speed calibration.

/** Nominal calibration-loop time: the speed of the reference host. */
constexpr double kReferenceLoopSeconds = 1e-3;

/** Keeps the calibration loop's result live. */
volatile uint32_t calibrationSink = 0;

/** Bytecode steps of one calibration loop (~1 ms on the reference host). */
constexpr uint32_t kCalibrationSteps = 400000;

/**
 * One timing of a fixed CPU-bound loop: a tiny bytecode interpreter, a
 * switch over eight opcodes of a random 4096-instruction program, with
 * loads, stores and data-dependent jumps into a 1 MB array. The shared
 * host's speed drifts by a third over minutes, and the contention
 * behind it slows dispatch-heavy code, the simulator's kind, about
 * twice as much as a plain loop. A loop of the same shape tracks it:
 * over 20 s windows of timing_sweep on a 4-vCPU Xeon VM, operation times
 * divided by the loop time taken just before each varied by 1.9%
 * (coefficient of variation), against 8.4% for a dependent-load loop
 * and 16.5% raw. The loop is the benchmark's own code, so no change to
 * the simulator moves it. With @p parts > 1 it runs 1/parts of the loop
 * and scales the time up, to fit between closely spaced serve requests.
 * One thread at a time may run it (it writes a shared array).
 */
double
calibrationLoopSeconds(uint32_t parts = 1)
{
    struct Insn
    {
        uint8_t op, a, b, c;
    };
    static const std::vector<Insn> prog = [] {
        std::vector<Insn> p(4096);
        Rng rng(2003);
        for (Insn &i : p)
            i = Insn{uint8_t(rng.below(8)), uint8_t(rng.below(16)),
                     uint8_t(rng.below(16)), uint8_t(rng.below(256))};
        return p;
    }();
    constexpr uint32_t kMask = (1u << 18) - 1;
    static std::vector<uint32_t> mem(kMask + 1, 1);
    uint32_t r[16];
    for (uint32_t i = 0; i < 16; ++i)
        r[i] = i * 2654435761u;
    uint32_t pc = 0;
    const auto t0 = Clock::now();
    for (uint32_t step = 0; step < kCalibrationSteps / parts; ++step) {
        const Insn in = prog[pc];
        pc = (pc + 1) & 4095;
        switch (in.op) {
          case 0: r[in.a] = r[in.b] + r[in.c & 15]; break;
          case 1: r[in.a] = r[in.b] ^ (r[in.c & 15] >> 3); break;
          case 2: r[in.a] = mem[(r[in.b] + in.c) & kMask]; break;
          case 3: mem[(r[in.b] * 64 + in.c) & kMask] = r[in.a]; break;
          case 4:
            if (r[in.a] & 1)
                pc = (pc + in.c * 16u) & 4095;
            break;
          case 5: r[in.a] = r[in.b] * 2654435761u + in.c; break;
          case 6: r[in.a] = r[in.b] - r[in.c & 15]; break;
          default: r[in.a] = (r[in.b] << 5) | (r[in.c & 15] >> 27); break;
        }
    }
    calibrationSink = r[0] ^ r[7];
    return secondsSince(t0) * double(parts);
}

/** @p seconds scaled to the reference host by the loop time @p loop. */
double
normalized(double seconds, double loop)
{
    return seconds * kReferenceLoopSeconds / loop;
}

/**
 * How much slower than the reference the host ran while @p loops were
 * timed (the fastest tenth, as for operations). Normalized figures divide
 * times by it and multiply rates by it.
 */
double
hostSlowdown(const std::vector<double> &loops)
{
    if (loops.empty()) // no gap was wide enough: time one loop now
        return calibrationLoopSeconds() / kReferenceLoopSeconds;
    return percentile(loops, kFastPercentile) / kReferenceLoopSeconds;
}

// ------------------------------------------------------------------
// Spans.

/**
 * In-memory span recorder. Spans nest through a stack (the benchmark
 * records them from one thread at a time); serve request spans are
 * recorded whole, as roots carrying the request id. Disabled, a scope
 * costs one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        uint32_t id = 0;
        uint32_t parent = 0; ///< 0 = root
        double start = 0.0;  ///< seconds since the tracer's epoch
        double end = 0.0;
        uint64_t request = 0; ///< serve request id; 0 elsewhere
    };

    class Scope
    {
      public:
        Scope(Tracer *t, const char *name) : t_(t)
        {
            if (t_)
                idx_ = t_->open(name);
        }
        ~Scope()
        {
            if (t_)
                t_->close(idx_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        size_t idx_ = 0;
    };

    bool enabled = false;

    Scope
    span(const char *name)
    {
        return Scope(enabled ? this : nullptr, name);
    }

    double now() const { return secondsSince(epoch_); }
    double at(Clock::time_point t) const
    {
        return std::chrono::duration<double>(t - epoch_).count();
    }

    /** Record a finished root span (serve requests). */
    void
    record(const char *name, double start, double end, uint64_t request)
    {
        if (!enabled)
            return;
        Span s;
        s.name = name;
        s.id = uint32_t(spans_.size() + 1);
        s.start = start;
        s.end = end;
        s.request = request;
        spans_.push_back(std::move(s));
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Per span name: total self time (duration minus child spans) of
     * the spans recorded in [from, to), divided by @p per. A range
     * must hold whole span trees.
     */
    std::map<std::string, double>
    selfSeconds(size_t from, size_t to, double per = 1.0) const
    {
        std::vector<double> childSum(spans_.size(), 0.0);
        for (size_t i = from; i < to; ++i) {
            if (spans_[i].parent)
                childSum[spans_[i].parent - 1] +=
                    spans_[i].end - spans_[i].start;
        }
        std::map<std::string, double> out;
        for (size_t i = from; i < to; ++i)
            out[spans_[i].name] +=
                (spans_[i].end - spans_[i].start - childSum[i]) / per;
        return out;
    }

    /** Number of spans named @p name. */
    size_t
    count(const std::string &name) const
    {
        return size_t(std::count_if(
            spans_.begin(), spans_.end(),
            [&](const Span &s) { return s.name == name; }));
    }

    /** Empty when every child lies inside its parent. */
    std::string
    nestingViolation() const
    {
        for (const Span &s : spans_) {
            if (s.end < s.start)
                return "span " + s.name + " ends before it starts";
            if (!s.parent)
                continue;
            const Span &p = spans_[s.parent - 1];
            if (s.start < p.start || s.end > p.end)
                return "span " + s.name + " lies outside its parent " +
                       p.name;
        }
        return {};
    }

    Json
    toJson() const
    {
        Json arr = Json::array();
        for (const Span &s : spans_) {
            Json doc = Json::object();
            doc["name"] = Json(s.name);
            doc["id"] = Json(uint64_t(s.id));
            doc["parent"] = Json(uint64_t(s.parent));
            doc["start"] = Json(s.start);
            doc["end"] = Json(s.end);
            if (s.request)
                doc["request"] = Json(s.request);
            arr.push_back(std::move(doc));
        }
        return arr;
    }

  private:
    size_t
    open(const char *name)
    {
        Span s;
        s.name = name;
        s.id = uint32_t(spans_.size() + 1);
        s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
        s.start = now();
        spans_.push_back(std::move(s));
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(size_t idx)
    {
        spans_[idx].end = now();
        stack_.pop_back();
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

// ------------------------------------------------------------------
// Results.

struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;
/** Layer counters summed over one pass (or one probe round). */
using Counters = std::map<std::string, double>;

struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;
    /** End-to-end figures (the --trace 0 result). */
    Metrics e2e;
    /** Per-layer figures (the --trace 1 result). */
    Metrics layer;
    /** The design's per-workload metric names, printed for people. */
    Metrics named;

    void
    fail(const std::string &why, uint64_t ops = 1)
    {
        failed += ops;
        if (problems.size() < 20)
            problems.push_back(why);
    }
};

/** The design's named end-to-end metrics (printed, n/a where idle). */
const std::vector<std::pair<std::string, std::string>> kNamed = {
    {"setup_s", "s"},
    {"func_mips_native", "MIPS"},
    {"func_mips_mfi", "MIPS"},
    {"func_mips_compress", "MIPS"},
    {"timing_mips_full", "MIPS"},
    {"timing_mips_fused", "MIPS"},
    {"timing_mips_sampled", "MIPS"},
    {"campaign_trials_per_s", "trials/s"},
    {"serve_p50_ms", "ms"},
    {"serve_p99_ms", "ms"},
    {"serve_tcp_p50_ms", "ms"},
    {"serve_tcp_p99_ms", "ms"},
    {"serve_max_rps", "req/s"},
    {"failed_frac", "ratio"},
    {"peak_rss_mb", "MB"},
};

/** Every per-layer metric; each workload reports all (0 when idle). */
const std::vector<std::pair<std::string, std::string>> kLayers = {
    {"workloads.generate_s", "s"},
    {"assembler.assemble_s", "s"},
    {"assembler.text_kb", "KB"},
    {"acf.mfi_build_s", "s"},
    {"acf.compress_s", "s"},
    {"acf.compress_ratio", "ratio"},
    {"service.prepare_s", "s"},
    {"sim.run_s", "s"},
    {"sim.dyn_insts", "count"},
    {"sim.app_insts", "count"},
    {"sim.ns_per_inst", "ns"},
    {"sim.trace.blocks_translated", "count"},
    {"sim.trace.chain_follows", "count"},
    {"sim.trace.evictions", "count"},
    {"sim.trace.chain_per_block", "ratio"},
    {"dise.expansions", "count"},
    {"dise.expansion_frac", "ratio"},
    {"dise.expand_cache_hit_ratio", "ratio"},
    {"dise.rt_misses", "count"},
    {"sim.fill_s", "s"},
    {"pipeline.run_s", "s"},
    {"pipeline.model_s", "s"},
    {"pipeline.cycles", "count"},
    {"pipeline.ns_per_cycle", "ns"},
    {"pipeline.bucket.issue", "count"},
    {"pipeline.bucket.imiss_stall", "count"},
    {"pipeline.bucket.dmiss_stall", "count"},
    {"pipeline.bucket.branch_flush", "count"},
    {"pipeline.bucket.dise_stall", "count"},
    {"pipeline.bucket.hazard", "count"},
    {"pipeline.bucket.drain", "count"},
    {"pipeline.sampled.detail_insts", "count"},
    {"pipeline.sampled.warmed_insts", "count"},
    {"mem.l1i.accesses", "count"},
    {"mem.l1d.accesses", "count"},
    {"mem.l1d.miss_rate", "ratio"},
    {"mem.l2.miss_rate", "ratio"},
    {"branch.lookups", "count"},
    {"branch.mispredict_rate", "ratio"},
    {"acf.fusion.fused_pairs", "count"},
    {"acf.fusion.coverage", "ratio"},
    {"faults.campaign_s", "s"},
    {"faults.injected", "count"},
    {"faults.replayed_insts", "count"},
    {"faults.saved_insts", "count"},
    {"faults.replay_frac", "ratio"},
    {"faults.golden_s", "s"},
    {"sim.snapshot_s", "s"},
    {"sim.restore_s", "s"},
    {"service.latency_ms.p50", "ms"},
    {"service.latency_ms.p99", "ms"},
    {"service.run_ms.p50", "ms"},
    {"service.run_ms.p99", "ms"},
    {"service.queue_ms.p50", "ms"},
    {"service.queue_ms.p99", "ms"},
    {"service.client_overhead_ms.p50", "ms"},
    {"service.tcp_p50_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.admitted", "count"},
    {"service.shed", "count"},
    {"service.deadline_exceeded", "count"},
    {"service.serialize_s", "s"},
    {"trace.overhead.guest_mips_norm", "MIPS"},
    {"trace.overhead.latency_ms_norm", "ms"},
    {"trace.spans", "count"},
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

// ------------------------------------------------------------------
// Program set-up, each layer call under its own span.

struct BuiltProgram
{
    std::string name;
    Program prog;
    std::shared_ptr<const ProductionSet> mfi;
    /** The compressed image + dictionary (func_sweep only). */
    std::shared_ptr<const CompressionResult> comp;
};

BuiltProgram
buildProgram(const WorkloadSpec &spec, Tracer &tr, bool withMfi,
             bool withCompress)
{
    BuiltProgram out;
    out.name = spec.name;
    std::string source;
    {
        auto s = tr.span("workloads.generate");
        source = generateWorkloadSource(spec);
    }
    {
        auto s = tr.span("assembler.assemble");
        out.prog = assemble(source);
    }
    if (withMfi) {
        auto s = tr.span("acf.mfi_build");
        MfiOptions opts;
        opts.variant = MfiVariant::Dise3;
        out.mfi = std::make_shared<const ProductionSet>(
            makeMfiProductions(out.prog, opts));
    }
    if (withCompress) {
        auto s = tr.span("acf.compress");
        out.comp = std::make_shared<const CompressionResult>(
            compressProgram(out.prog));
    }
    return out;
}

/** The paper's baseline machine (4-wide, 32 KB L1 I-cache). */
PipelineParams
baselineMachine()
{
    PipelineParams params;
    params.width = 4;
    params.mem.l1iSize = 32 * 1024;
    return params;
}

// ------------------------------------------------------------------
// Pass-based workloads: a fixed list of operations run back to back.

struct OpOut
{
    double seconds = 0.0;
    uint64_t insts = 0;
    /** Everything the reference path must reproduce. */
    std::string fingerprint;
    /** The architectural result alone (cross-operation checks). */
    std::string arch;
    /** Empty, or the invariant this run broke. */
    std::string broken;
};

struct Op
{
    std::string name;  ///< e.g. "gcc/mfi"
    std::string group; ///< e.g. "mfi": the named metric it feeds
    /** One timed run; fills @p counters when non-null (untimed part). */
    std::function<OpOut(Tracer &, Counters *)> run;
    /** The reference path's fingerprint (untimed). */
    std::function<std::string()> reference;

    // Filled while the operation runs (warm-up and timed passes).
    OpOut warm;                                ///< the warm-up run
    std::map<std::string, uint64_t> timedFps;  ///< fingerprint -> runs
    uint64_t timedBroken = 0;
};

/** Per-operation run times of one measurement window. */
struct Window
{
    int passes = 0;
    std::vector<std::vector<double>> secs; ///< [op][pass]
    /** The calibration loop timed just before each run: [op][pass]. */
    std::vector<std::vector<double>> loops;
};

/** Run timed passes over @p ops until @p seconds have elapsed. */
Window
runPasses(std::vector<Op> &ops, Tracer &tr, double seconds)
{
    Window win;
    win.secs.resize(ops.size());
    win.loops.resize(ops.size());
    const auto t0 = Clock::now();
    while (win.passes < kMinPasses || secondsSince(t0) < seconds) {
        for (size_t i = 0; i < ops.size(); ++i) {
            win.loops[i].push_back(calibrationLoopSeconds());
            OpOut out;
            {
                auto s = tr.span("bench.op");
                out = ops[i].run(tr, nullptr);
            }
            ++ops[i].timedFps[out.fingerprint];
            if (!out.broken.empty())
                ++ops[i].timedBroken;
            win.secs[i].push_back(out.seconds);
        }
        ++win.passes;
    }
    return win;
}

/**
 * End-to-end figures of a measurement: normalized to the reference host
 * (the result line) and raw (printed beside them).
 */
struct Figures
{
    double mips = 0.0;
    double latencyMs = 0.0;
    double rawMips = 0.0;
    double rawLatencyMs = 0.0;
    double slowdown = 1.0; ///< hostSlowdown over the measurement
    std::map<std::string, double> groupMips; ///< raw, per operation group
};

/**
 * A window's figures. The host is shared, and contention only ever
 * slows a run, so each operation's time is the 10th percentile of its
 * runs, each normalized by the calibration loop timed just before it.
 * Throughput is one pass's guest instructions over the sum of those
 * times; latency is their geometric mean, so every operation weighs
 * the same whatever its length.
 */
Figures
figures(const std::vector<Op> &ops, const Window &win)
{
    Figures f;
    double secs = 0.0, rawSecs = 0.0;
    double logMs = 0.0, rawLogMs = 0.0;
    double insts = 0.0;
    std::vector<double> allLoops;
    std::map<std::string, std::pair<double, double>> groups; // insts, s
    for (size_t i = 0; i < ops.size(); ++i) {
        std::vector<double> norm;
        for (size_t p = 0; p < win.secs[i].size(); ++p)
            norm.push_back(normalized(win.secs[i][p], win.loops[i][p]));
        allLoops.insert(allLoops.end(), win.loops[i].begin(),
                        win.loops[i].end());
        const double t = percentile(norm, kFastPercentile);
        const double raw = percentile(win.secs[i], kFastPercentile);
        secs += t;
        rawSecs += raw;
        logMs += std::log(t * 1e3);
        rawLogMs += std::log(raw * 1e3);
        insts += double(ops[i].warm.insts);
        groups[ops[i].group].first += double(ops[i].warm.insts);
        groups[ops[i].group].second += raw;
    }
    f.mips = insts / 1e6 / secs;
    f.rawMips = insts / 1e6 / rawSecs;
    f.latencyMs = std::exp(logMs / double(ops.size()));
    f.rawLatencyMs = std::exp(rawLogMs / double(ops.size()));
    for (const auto &kv : groups)
        f.groupMips[kv.first] = kv.second.first / 1e6 / kv.second.second;
    f.slowdown = hostSlowdown(allLoops);
    return f;
}

/**
 * Compare every timed run with its operation's reference and count
 * failures (untimed). @p perturb corrupts the first reference, so the
 * self-test can see a mismatch reported.
 */
void
checkOps(std::vector<Op> &ops, Report &rep, bool perturb)
{
    for (size_t i = 0; i < ops.size(); ++i) {
        Op &op = ops[i];
        std::string ref = op.reference();
        if (perturb && i == 0)
            ref += " (perturbed)";
        ++rep.attempted; // the warm-up run
        if (!op.warm.broken.empty())
            rep.fail(op.name + ": warm-up run: " + op.warm.broken);
        else if (op.warm.fingerprint != ref)
            rep.fail(op.name + ": warm-up run differs from the reference");
        for (const auto &kv : op.timedFps) {
            rep.attempted += kv.second;
            if (kv.first != ref)
                rep.fail(op.name + ": timed run differs from the "
                                   "reference:\n  got " +
                             kv.first + "\n  ref " + ref,
                         kv.second);
        }
        if (op.timedBroken)
            rep.fail(op.name + ": timed runs broke an invariant",
                     op.timedBroken);
    }
}

/** A workload built from passes over fixed operations. */
struct PassWorkload
{
    /** Build programs and ACFs (timed as set-up; repeated). */
    std::function<void(Tracer &)> setup;
    /** The operation list over the last set-up's state. */
    std::function<std::vector<Op>()> ops;
    /** Cross-operation checks on the warm-up results. */
    std::function<void(const std::vector<Op> &, Report &)> crossCheck;
    /** Untimed per-layer probes (traced runs only). */
    std::function<void(Tracer &, Counters &)> probe;
    /** Per-layer metrics from warm-up counters, probe counters and
     *  per-pass span self times. */
    std::function<void(const Counters &warm, const Counters &probe,
                       const std::map<std::string, double> &perPass,
                       Metrics &layer)>
        layers;
    /** Design-named metrics from the untraced figures. */
    std::function<void(const Figures &, Metrics &named)> named;
};

double
counter(const Counters &c, const std::string &key)
{
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : it->second;
}

void
setLayer(Metrics &layer, const std::string &name, double value)
{
    layer[name].value = value;
}

/** Set-up times, and the calibration loops timed between them. */
struct Setups
{
    std::vector<double> secs;
    std::vector<double> loops;
};

/**
 * Time @p once repeatedly (moreSetups), with a calibration loop before
 * each run; @p between, untimed, runs before every repetition but the
 * first.
 */
Setups
timeSetups(const std::function<void()> &once,
           const std::function<void()> &between = {})
{
    Setups s;
    while (moreSetups(s.secs)) {
        if (between && !s.secs.empty())
            between();
        s.loops.push_back(calibrationLoopSeconds());
        const auto t0 = Clock::now();
        once();
        s.secs.push_back(secondsSince(t0));
    }
    return s;
}

/**
 * The end-to-end result. Memory is as measured; set-up time, throughput
 * and latency are scaled to the reference host speed by the calibration
 * loop, which is what keeps them steady on a shared host whose speed
 * drifts by a third between quiet and busy hours. Each set-up time is
 * normalized by the loop timed just before it. The raw figures are
 * printed beside them.
 */
void
setEndToEnd(Report &rep, const Setups &setups, const Figures &fig,
            double rssMb)
{
    std::vector<double> norm;
    for (size_t k = 0; k < setups.secs.size(); ++k)
        norm.push_back(normalized(setups.secs[k], setups.loops[k]));
    const double setupS = median(setups.secs);
    rep.e2e["setup_s"] = {median(norm), "s"};
    rep.e2e["guest_mips_norm"] = {fig.mips, "MIPS"};
    rep.e2e["latency_ms_norm"] = {fig.latencyMs, "ms"};
    rep.e2e["peak_rss_mb"] = {rssMb, "MB"};
    rep.named["setup_s"] = {setupS, "s"};
    rep.named["peak_rss_mb"] = rep.e2e["peak_rss_mb"];
    std::printf("raw: setup_s %.4f s (%zu set-ups, host %.4fx slower than "
                "the reference), guest_mips %.4f MIPS, latency_ms %.4f "
                "ms; the host ran %.4fx slower than the reference "
                "(calibration loop %.4f ms)\n",
                setupS, setups.secs.size(), hostSlowdown(setups.loops),
                fig.rawMips, fig.rawLatencyMs, fig.slowdown,
                fig.slowdown * kReferenceLoopSeconds * 1e3);
}

Report
runPassWorkload(PassWorkload &w, double seconds, bool trace, bool perturb,
                Tracer &tr)
{
    Report rep;
    // Set-up, repeated. Spans are kept for the traced run's per-layer
    // set-up figures.
    tr.enabled = trace;
    const Setups setups = timeSetups([&] {
        auto s = tr.span("bench.setup");
        w.setup(tr);
    });
    tr.enabled = false;
    std::vector<Op> ops = w.ops();

    // Warm-up pass: fills host caches and collects the layer counters;
    // its results are checked like every timed one.
    Counters warm;
    for (Op &op : ops)
        op.warm = op.run(tr, &warm);

    Window win;
    Window tracedWin;
    const size_t setupSpans = tr.spans().size();
    size_t passSpans = setupSpans;
    Counters probe;
    if (!trace) {
        win = runPasses(ops, tr, seconds);
    } else {
        win = runPasses(ops, tr, seconds / 2);
        tr.enabled = true;
        tracedWin = runPasses(ops, tr, seconds / 2);
        passSpans = tr.spans().size();
        w.probe(tr, probe);
        tr.enabled = false;
    }

    checkOps(ops, rep, perturb);
    w.crossCheck(ops, rep);
    if (trace) {
        const std::string bad = tr.nestingViolation();
        if (!bad.empty())
            rep.fail("trace: " + bad);
    }

    const Figures fig = figures(ops, win);
    setEndToEnd(rep, setups, fig, peakRssMb());
    std::vector<double> passMips(size_t(win.passes), 0.0);
    for (int p = 0; p < win.passes; ++p) {
        double secs = 0.0;
        double insts = 0.0;
        for (size_t i = 0; i < ops.size(); ++i) {
            secs += win.secs[i][size_t(p)];
            insts += double(ops[i].warm.insts);
        }
        passMips[size_t(p)] = insts / 1e6 / secs;
    }
    std::printf("sample: %d passes x %zu operations; single-pass MIPS min "
                "%.2f median %.2f max %.2f\n",
                win.passes, ops.size(),
                percentile(passMips, 0.0), median(passMips),
                percentile(passMips, 100.0));

    w.named(fig, rep.named);

    if (trace) {
        // Self seconds per set-up, per traced pass, and per probe round
        // (the three ranges record disjoint span names).
        std::map<std::string, double> perPass =
            tr.selfSeconds(0, setupSpans, double(setups.secs.size()));
        perPass.merge(
            tr.selfSeconds(setupSpans, passSpans, tracedWin.passes));
        perPass.merge(tr.selfSeconds(passSpans, tr.spans().size()));
        for (const auto &kv : kLayers)
            rep.layer[kv.first] = {0.0, kv.second};
        w.layers(warm, probe, perPass, rep.layer);
        const Figures tf = figures(ops, tracedWin);
        setLayer(rep.layer, "trace.overhead.guest_mips_norm",
                 tf.mips - fig.mips);
        setLayer(rep.layer, "trace.overhead.latency_ms_norm",
                 tf.latencyMs - fig.latencyMs);
        setLayer(rep.layer, "trace.spans", double(tr.spans().size()));
        std::printf("spans: %-28s %10s %12s  (self s per set-up, per "
                    "pass, or per probe round)\n",
                    "name", "count", "self s");
        for (const auto &kv : perPass)
            std::printf("spans: %-28s %10zu %12.6f\n", kv.first.c_str(),
                        tr.count(kv.first), kv.second);
    }
    return rep;
}

// ------------------------------------------------------------------
// Functional runs (func_sweep).

OpOut
functionalRun(const Program &prog, std::shared_ptr<const ProductionSet> set,
              bool mfiRegs, bool traceCache, Tracer &tr, Counters *c)
{
    OpOut out;
    const auto t0 = Clock::now();
    std::unique_ptr<DiseController> controller;
    if (set) {
        controller = std::make_unique<DiseController>(DiseConfig{});
        controller->install(std::move(set));
    }
    ExecCore core(prog, controller.get());
    if (mfiRegs)
        initMfiRegisters(core, prog);
    core.setTraceCacheEnabled(traceCache);
    RunResult r;
    {
        auto s = tr.span("sim.run");
        r = core.run();
    }
    out.seconds = secondsSince(t0);
    out.insts = r.dynInsts;
    out.arch = r.toJson().dump();
    out.fingerprint = out.arch;
    if (!r.exited || r.exitCode != 0)
        out.broken = "run did not exit cleanly";
    if (c) {
        (*c)["sim.dyn_insts"] += double(r.dynInsts);
        (*c)["sim.app_insts"] += double(r.appInsts);
        const ExecCore::TraceCacheStats t = core.traceCacheStats();
        (*c)["sim.trace.blocks_translated"] += double(t.blocksTranslated);
        (*c)["sim.trace.chain_follows"] += double(t.chainFollows);
        (*c)["sim.trace.evictions"] += double(t.evictions);
        if (controller) {
            const StatGroup &g = std::as_const(*controller).engine().stats();
            (*c)["dise.expansions"] += double(r.expansions);
            (*c)["dise.app_insts"] += double(r.appInsts);
            (*c)["dise.expand_cache_hits"] += double(g.get("expand_cache_hits"));
            (*c)["dise.expand_cache_fills"] +=
                double(g.get("expand_cache_fills"));
            (*c)["dise.rt_misses"] += double(g.get("rt_misses"));
        }
    }
    return out;
}

/**
 * prepareJob for an MFI run of a built program (ACF resolution only),
 * and the program's text size.
 */
void
probeProgram(const BuiltProgram &b, Tracer &tr, Counters &c)
{
    RunRequest req;
    req.workload = b.name;
    req.mfi = true;
    {
        auto s = tr.span("service.prepare");
        prepareJob(req, &b.prog);
    }
    c["assembler.text_bytes"] += double(b.prog.textBytes());
}

/** Self seconds of span @p name; 0 when none was recorded. */
double
spanSeconds(const std::map<std::string, double> &self, const char *name)
{
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
}

/** The program-building layers both pass workloads share. */
void
setBuildLayers(const Counters &probe,
               const std::map<std::string, double> &perPass,
               Metrics &layer)
{
    for (const char *name : {"workloads.generate", "assembler.assemble",
                             "acf.mfi_build", "service.prepare"})
        setLayer(layer, std::string(name) + "_s", spanSeconds(perPass, name));
    setLayer(layer, "assembler.text_kb",
             counter(probe, "assembler.text_bytes") / 1024.0);
}

PassWorkload
funcSweep()
{
    auto progs = std::make_shared<std::vector<BuiltProgram>>();
    PassWorkload w;
    w.setup = [progs](Tracer &tr) {
        progs->clear();
        for (const WorkloadSpec &spec : spec2000())
            progs->push_back(buildProgram(spec, tr, true, true));
    };
    w.ops = [progs] {
        struct Variant
        {
            const char *name;
            const Program *prog;
            std::shared_ptr<const ProductionSet> set;
            bool mfiRegs;
        };
        std::vector<Op> ops;
        for (const BuiltProgram &b : *progs) {
            for (const Variant &v :
                 {Variant{"native", &b.prog, nullptr, false},
                  Variant{"mfi", &b.prog, b.mfi, true},
                  Variant{"compress", &b.comp->compressed,
                          b.comp->dictionary, false}}) {
                Op op;
                op.name = b.name + "/" + v.name;
                op.group = v.name;
                op.run = [v](Tracer &tr, Counters *c) {
                    return functionalRun(*v.prog, v.set, v.mfiRegs, true,
                                         tr, c);
                };
                op.reference = [v] {
                    Tracer off;
                    return functionalRun(*v.prog, v.set, v.mfiRegs, false,
                                         off, nullptr)
                        .fingerprint;
                };
                ops.push_back(std::move(op));
            }
        }
        return ops;
    };
    w.crossCheck = [](const std::vector<Op> &, Report &) {};
    w.probe = [progs](Tracer &tr, Counters &c) {
        for (const BuiltProgram &b : *progs) {
            probeProgram(b, tr, c);
            c["acf.original_bytes"] += double(b.comp->originalTextBytes);
            c["acf.compressed_bytes"] +=
                double(b.comp->compressedTextBytes);
        }
    };
    w.layers = [](const Counters &warm, const Counters &probe,
                  const std::map<std::string, double> &perPass,
                  Metrics &layer) {
        const auto span = [&](const char *n) {
            return spanSeconds(perPass, n);
        };
        setBuildLayers(probe, perPass, layer);
        setLayer(layer, "acf.compress_s", span("acf.compress"));
        setLayer(layer, "acf.compress_ratio",
                 safeRatio(counter(probe, "acf.compressed_bytes"),
                           counter(probe, "acf.original_bytes")));
        const double runS = span("sim.run");
        const double dyn = counter(warm, "sim.dyn_insts");
        setLayer(layer, "sim.run_s", runS);
        setLayer(layer, "sim.dyn_insts", dyn);
        setLayer(layer, "sim.app_insts", counter(warm, "sim.app_insts"));
        setLayer(layer, "sim.ns_per_inst", safeRatio(runS * 1e9, dyn));
        const double blocks = counter(warm, "sim.trace.blocks_translated");
        const double follows = counter(warm, "sim.trace.chain_follows");
        setLayer(layer, "sim.trace.blocks_translated", blocks);
        setLayer(layer, "sim.trace.chain_follows", follows);
        setLayer(layer, "sim.trace.evictions",
                 counter(warm, "sim.trace.evictions"));
        setLayer(layer, "sim.trace.chain_per_block",
                 safeRatio(follows, blocks));
        setLayer(layer, "dise.expansions", counter(warm, "dise.expansions"));
        setLayer(layer, "dise.expansion_frac",
                 safeRatio(counter(warm, "dise.expansions"),
                           counter(warm, "dise.app_insts")));
        const double hits = counter(warm, "dise.expand_cache_hits");
        setLayer(layer, "dise.expand_cache_hit_ratio",
                 safeRatio(hits,
                           hits + counter(warm, "dise.expand_cache_fills")));
        setLayer(layer, "dise.rt_misses", counter(warm, "dise.rt_misses"));
    };
    w.named = [](const Figures &fig, Metrics &named) {
        for (const char *g : {"native", "mfi", "compress"})
            named[std::string("func_mips_") + g] = {fig.groupMips.at(g),
                                                    "MIPS"};
    };
    return w;
}

// ------------------------------------------------------------------
// Timing runs (timing_sweep).

OpOut
timingRun(const Program &prog, std::shared_ptr<const ProductionSet> set,
          bool fusion, bool sampled, bool traceFeed, Tracer &tr,
          Counters *c)
{
    OpOut out;
    const auto t0 = Clock::now();
    DiseController controller{DiseConfig{}};
    controller.install(std::move(set));
    PipelineSim sim(prog, baselineMachine(), &controller);
    sim.setTraceFeed(traceFeed);
    if (sampled)
        sim.setSampling(kSamplePeriod, kSampleDetail);
    initMfiRegisters(sim.core(), prog);
    sim.core().setFusionEnabled(fusion);
    TimingResult t;
    {
        auto s = tr.span(sampled  ? "pipeline.run.sampled"
                         : fusion ? "pipeline.run.fused"
                                  : "pipeline.run");
        t = sim.run();
    }
    out.seconds = secondsSince(t0);
    out.insts = t.arch.dynInsts;
    out.arch = t.arch.toJson().dump();
    const CycleBreakdown &b = t.buckets;
    out.fingerprint = strFormat(
        "%s cycles=%llu buckets=%llu,%llu,%llu,%llu,%llu,%llu,%llu "
        "sampled=%llu warmed=%llu",
        out.arch.c_str(), (unsigned long long)t.cycles,
        (unsigned long long)b.issue, (unsigned long long)b.imissStall,
        (unsigned long long)b.dmissStall, (unsigned long long)b.branchFlush,
        (unsigned long long)b.diseStall, (unsigned long long)b.hazard,
        (unsigned long long)b.drain,
        (unsigned long long)t.sampling.sampledInsts,
        (unsigned long long)t.sampling.warmedInsts);
    if (!t.arch.exited || t.arch.exitCode != 0)
        out.broken = "run did not exit cleanly";
    else if (b.total() != t.cycles)
        out.broken = "cycle buckets do not sum to pipeline.cycles";
    if (c && sampled) {
        (*c)["pipeline.sampled.detail_insts"] += double(t.sampling.sampledInsts);
        (*c)["pipeline.sampled.warmed_insts"] += double(t.sampling.warmedInsts);
    } else if (c && fusion) {
        (*c)["acf.fusion.fused_pairs"] += double(sim.core().fusedPairs());
        (*c)["acf.fusion.dyn_insts"] += double(t.arch.dynInsts);
    } else if (c) {
        (*c)["pipeline.cycles"] += double(t.cycles);
        (*c)["pipeline.bucket.issue"] += double(b.issue);
        (*c)["pipeline.bucket.imiss_stall"] += double(b.imissStall);
        (*c)["pipeline.bucket.dmiss_stall"] += double(b.dmissStall);
        (*c)["pipeline.bucket.branch_flush"] += double(b.branchFlush);
        (*c)["pipeline.bucket.dise_stall"] += double(b.diseStall);
        (*c)["pipeline.bucket.hazard"] += double(b.hazard);
        (*c)["pipeline.bucket.drain"] += double(b.drain);
        StatsRegistry reg;
        sim.registerStats(reg);
        for (const char *key :
             {"mem.l1i.accesses", "mem.l1d.accesses", "mem.l1d.misses",
              "mem.l2.accesses", "mem.l2.misses", "bpred.predictions",
              "pipeline.mispredicts"})
            (*c)[key] += reg.value(key);
    }
    return out;
}

/** ExecCore::fillTrace driven alone, as the timing feed drives it. */
void
probeFill(const Program &prog, std::shared_ptr<const ProductionSet> set,
          Tracer &tr)
{
    DiseController controller{DiseConfig{}};
    controller.install(std::move(set));
    ExecCore core(prog, &controller);
    initMfiRegisters(core, prog);
    std::vector<DynInst> ring(64);
    auto s = tr.span("sim.fill");
    while (core.fillTrace(ring.data(), ring.size()) != 0) {
    }
}

PassWorkload
timingSweep()
{
    auto progs = std::make_shared<std::vector<BuiltProgram>>();
    PassWorkload w;
    w.setup = [progs](Tracer &tr) {
        progs->clear();
        for (const char *name : {"bzip2", "gcc", "vpr", "mcf"})
            progs->push_back(
                buildProgram(scaledSpec(workloadSpec(name), kTimingScale), tr,
                             true, false));
    };
    w.ops = [progs] {
        std::vector<Op> ops;
        for (const BuiltProgram &b : *progs) {
            const BuiltProgram *p = &b;
            for (const char *kind : {"full", "fused", "sampled"}) {
                const bool fusion = std::string(kind) == "fused";
                const bool sampled = std::string(kind) == "sampled";
                Op op;
                op.name = b.name + "/" + kind;
                op.group = kind;
                op.run = [p, fusion, sampled](Tracer &tr, Counters *c) {
                    return timingRun(p->prog, p->mfi, fusion, sampled, true,
                                     tr, c);
                };
                // Sampling needs the trace feed, so a sampled run has no
                // step-driven twin: its reference is its own result, and
                // crossCheck ties its architecture to the full run's.
                op.reference = [p, fusion, sampled] {
                    Tracer off;
                    return timingRun(p->prog, p->mfi, fusion, sampled,
                                     sampled, off, nullptr)
                        .fingerprint;
                };
                ops.push_back(std::move(op));
            }
        }
        return ops;
    };
    w.crossCheck = [](const std::vector<Op> &ops, Report &rep) {
        // Ops come in (full, fused, sampled) triples per program: fusion
        // and sampling must leave the architectural result unchanged.
        for (size_t i = 0; i + 2 < ops.size(); i += 3) {
            for (size_t j = i + 1; j <= i + 2; ++j) {
                if (ops[j].warm.arch != ops[i].warm.arch) {
                    uint64_t runs = 0;
                    for (const auto &kv : ops[j].timedFps)
                        runs += kv.second;
                    rep.fail(ops[j].name + ": architectural result "
                                           "differs from " +
                                 ops[i].name,
                             runs);
                }
            }
        }
    };
    w.probe = [progs](Tracer &tr, Counters &c) {
        for (const BuiltProgram &b : *progs) {
            probeProgram(b, tr, c);
            probeFill(b.prog, b.mfi, tr);
        }
    };
    w.layers = [](const Counters &warm, const Counters &probe,
                  const std::map<std::string, double> &perPass,
                  Metrics &layer) {
        setBuildLayers(probe, perPass, layer);
        // Fill alone (probe round) against PipelineSim::run of the same
        // full-detail runs (per pass): the rest is the timing model.
        const double fill = spanSeconds(perPass, "sim.fill");
        const double run = spanSeconds(perPass, "pipeline.run");
        const double cycles = counter(warm, "pipeline.cycles");
        setLayer(layer, "sim.fill_s", fill);
        setLayer(layer, "pipeline.run_s", run);
        setLayer(layer, "pipeline.model_s", run - fill);
        setLayer(layer, "pipeline.cycles", cycles);
        setLayer(layer, "pipeline.ns_per_cycle",
                 safeRatio(run * 1e9, cycles));
        for (const char *b :
             {"issue", "imiss_stall", "dmiss_stall", "branch_flush",
              "dise_stall", "hazard", "drain"}) {
            const std::string key = std::string("pipeline.bucket.") + b;
            setLayer(layer, key, counter(warm, key));
        }
        setLayer(layer, "pipeline.sampled.detail_insts",
                 counter(warm, "pipeline.sampled.detail_insts"));
        setLayer(layer, "pipeline.sampled.warmed_insts",
                 counter(warm, "pipeline.sampled.warmed_insts"));
        setLayer(layer, "mem.l1i.accesses",
                 counter(warm, "mem.l1i.accesses"));
        setLayer(layer, "mem.l1d.accesses",
                 counter(warm, "mem.l1d.accesses"));
        setLayer(layer, "mem.l1d.miss_rate",
                 safeRatio(counter(warm, "mem.l1d.misses"),
                           counter(warm, "mem.l1d.accesses")));
        setLayer(layer, "mem.l2.miss_rate",
                 safeRatio(counter(warm, "mem.l2.misses"),
                           counter(warm, "mem.l2.accesses")));
        setLayer(layer, "branch.lookups",
                 counter(warm, "bpred.predictions"));
        setLayer(layer, "branch.mispredict_rate",
                 safeRatio(counter(warm, "pipeline.mispredicts"),
                           counter(warm, "bpred.predictions")));
        const double pairs = counter(warm, "acf.fusion.fused_pairs");
        setLayer(layer, "acf.fusion.fused_pairs", pairs);
        setLayer(layer, "acf.fusion.coverage",
                 safeRatio(2.0 * pairs,
                           counter(warm, "acf.fusion.dyn_insts")));
    };
    w.named = [](const Figures &fig, Metrics &named) {
        for (const char *g : {"full", "fused", "sampled"})
            named[std::string("timing_mips_") + g] = {fig.groupMips.at(g),
                                                      "MIPS"};
    };
    return w;
}

// ------------------------------------------------------------------
// Probes a traced serve_mix run makes of the layers behind its warm
// starts and campaigns.

/** takeWarmupSnapshot, then ExecCore::restoreSnapshot into a fresh core. */
void
probeSnapshot(const PreparedJob &job, uint64_t warmupAppInsts, Tracer &tr)
{
    SimSnapshot snap;
    {
        auto s = tr.span("sim.snapshot");
        snap = takeWarmupSnapshot(job, warmupAppInsts);
    }
    std::unique_ptr<DiseController> controller;
    if (job.productions) {
        controller = std::make_unique<DiseController>(job.dise);
        controller->install(job.productions);
    }
    ExecCore core(*job.prog, controller.get());
    auto s = tr.span("sim.restore");
    core.restoreSnapshot(snap);
}

/**
 * The faults layer as the mix's campaign requests drive it: the same
 * job with more trials, so the counters mean something, plus its golden
 * run alone. Every run (untimed) also checks the per-trial
 * classification of this snapshot-replay campaign against the same
 * campaign re-executed from reset (useSnapshots = false); @p perturb
 * corrupts one reference outcome.
 */
void
probeCampaign(const PreparedJob &job, uint64_t seed, bool perturb,
              Tracer &tr, Counters &c, Report &rep)
{
    CampaignSetup setup;
    setup.prog = job.prog;
    if (job.productions)
        setup.makeAcf = [set = job.productions] { return set; };
    setup.initCore = job.initCore;
    setup.diseConfig = job.dise;
    CampaignConfig cfg;
    cfg.seed = seed;
    cfg.trials = kProbeCampaignTrials;
    CampaignResult r;
    {
        auto s = tr.span("faults.campaign");
        r = runCampaign(setup, cfg);
    }
    c["faults.injected"] = double(r.injected);
    c["faults.replayed_insts"] = double(r.replayedInsts);
    c["faults.saved_insts"] = double(r.savedInsts);
    {
        auto s = tr.span("faults.golden");
        runFunctionalSim(job);
    }

    cfg.useSnapshots = false;
    const CampaignResult ref = runCampaign(setup, cfg);
    std::vector<TrialOutcome> want;
    for (const TrialRecord &t : ref.trials)
        want.push_back(t.outcome);
    if (perturb && !want.empty())
        want[0] = want[0] == TrialOutcome::Benign
                      ? TrialOutcome::SilentCorruption
                      : TrialOutcome::Benign;
    rep.attempted += r.trials.size();
    if (r.trials.size() != want.size()) {
        rep.fail(strFormat("faults: %zu trials classified, the full-replay "
                           "reference has %zu",
                           r.trials.size(), want.size()),
                 std::max<uint64_t>(1, r.trials.size()));
        return;
    }
    for (size_t i = 0; i < want.size(); ++i) {
        if (r.trials[i].outcome != want[i])
            rep.fail(strFormat("faults: trial %zu classified %s, the "
                               "full-replay reference says %s",
                               i, trialOutcomeName(r.trials[i].outcome),
                               trialOutcomeName(want[i])));
    }
}

// ------------------------------------------------------------------
// serve_mix: an in-process SimServer driven open-loop.

/** Where a server listens: a unix socket, or a loopback TCP port. */
struct Endpoint
{
    std::string unixPath; ///< empty: TCP
    int port = 0;
};

/** Blocking NDJSON client on one connection. */
class Client
{
  public:
    explicit Client(const Endpoint &at)
    {
        int rc = -1;
        if (!at.unixPath.empty()) {
            fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
            sockaddr_un addr = {};
            addr.sun_family = AF_UNIX;
            std::strncpy(addr.sun_path, at.unixPath.c_str(),
                         sizeof(addr.sun_path) - 1);
            if (fd_ >= 0)
                rc = ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                               sizeof(addr));
        } else {
            fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
            sockaddr_in addr = {};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(uint16_t(at.port));
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            if (fd_ >= 0)
                rc = ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                               sizeof(addr));
            // Requests are single small lines: send each at once instead
            // of coalescing it behind an unacknowledged predecessor.
            const int one = 1;
            ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        }
        if (rc != 0) {
            if (fd_ >= 0)
                ::close(fd_);
            fatal("perfbench: cannot connect to the server");
        }
    }
    ~Client() { ::close(fd_); }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** End both directions; a blocked readLine returns empty. */
    void shutdown() { ::shutdown(fd_, SHUT_RDWR); }

    void
    sendLine(const std::string &body)
    {
        const std::string line = body + "\n";
        size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::send(fd_, line.data() + off,
                                     line.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                fatal("perfbench: send() failed");
            off += size_t(n);
        }
    }

    /** One response line; empty when the server closed. */
    std::string
    readLine()
    {
        for (;;) {
            const size_t pos = buf_.find('\n');
            if (pos != std::string::npos) {
                std::string line = buf_.substr(0, pos);
                buf_.erase(0, pos + 1);
                return line;
            }
            char chunk[65536];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return {};
            buf_.append(chunk, size_t(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

enum class MixKind { Unique, Repeat, Warm, Sampled, Campaign };

const char *
mixKindName(MixKind kind)
{
    switch (kind) {
      case MixKind::Unique:
        return "unique";
      case MixKind::Repeat:
        return "repeat";
      case MixKind::Warm:
        return "warm";
      case MixKind::Sampled:
        return "sampled";
      case MixKind::Campaign:
        return "campaign";
    }
    return "?";
}

struct MixRequest
{
    uint64_t id = 0;
    MixKind kind = MixKind::Unique;
    std::string body;
};

/** serve_mix warm starts resume after this many instructions. */
constexpr uint64_t kWarmupInsts = 200000;
/** The budgets of the repeated (result-cache hit) request bodies. */
constexpr uint64_t kRepeatBudgets[3] = {150000, 200000, 250000};

/** serve_mix campaign requests: gzip at this scale, this many trials. */
constexpr const char *kCampaignScale = "0.02";
constexpr uint32_t kServeCampaignTrials = 2;

/**
 * Seeded request generator. Every block of 20 requests holds the same
 * mix — 9 unique functional runs, 4 repeats (result-cache hits), 3 warm
 * starts (snapshot-cache hits), 3 sampled timing runs, 1 campaign — in
 * an order, and with instruction budgets, drawn from the seed. Campaign
 * fault seeds follow a fixed sequence, so the tail's heaviest requests
 * cost the same under every seed.
 */
class MixGen
{
  public:
    explicit MixGen(uint64_t seed) : rng_(seed) {}

    MixRequest
    next(uint64_t id)
    {
        if (deck_.empty()) {
            deck_.assign(9, MixKind::Unique);
            deck_.insert(deck_.end(), 4, MixKind::Repeat);
            deck_.insert(deck_.end(), 3, MixKind::Warm);
            deck_.insert(deck_.end(), 3, MixKind::Sampled);
            deck_.push_back(MixKind::Campaign);
            for (size_t i = deck_.size() - 1; i > 0; --i)
                std::swap(deck_[i], deck_[rng_.below(i + 1)]);
        }
        MixRequest m;
        m.id = id;
        m.kind = deck_.back();
        deck_.pop_back();
        Json doc = Json::object();
        doc["id"] = Json("r" + std::to_string(id));
        doc["workload"] = Json("twolf");
        switch (m.kind) {
          case MixKind::Unique:
            doc["max_insts"] = Json(uniqueBudget(100000, 300000));
            break;
          case MixKind::Repeat:
            doc["max_insts"] = Json(kRepeatBudgets[rng_.below(3)]);
            break;
          case MixKind::Warm:
            doc["warmup_insts"] = Json(kWarmupInsts);
            doc["max_insts"] =
                Json(kWarmupInsts + uniqueBudget(100000, 300000));
            break;
          case MixKind::Sampled:
            doc["mode"] = Json("timing");
            doc["sample_period"] = Json(kSamplePeriod);
            doc["sample_detail"] = Json(kSampleDetail);
            doc["max_insts"] = Json(uniqueBudget(50000, 150000));
            break;
          case MixKind::Campaign:
            doc["workload"] = Json("gzip");
            doc["scale"] = Json(std::stod(kCampaignScale));
            doc["mode"] = Json("campaign");
            doc["trials"] = Json(kServeCampaignTrials);
            doc["seed"] = Json(++campaigns_);
            break;
        }
        m.body = doc.dump();
        return m;
    }

    /** One request of each shape, for priming the server's caches. */
    static std::vector<std::string>
    primingBodies()
    {
        std::vector<std::string> out;
        for (uint64_t budget : kRepeatBudgets)
            out.push_back("{\"workload\":\"twolf\",\"max_insts\":" +
                          std::to_string(budget) + "}");
        out.push_back("{\"workload\":\"twolf\",\"warmup_insts\":" +
                      std::to_string(kWarmupInsts) + ",\"max_insts\":" +
                      std::to_string(kWarmupInsts + 1) + "}");
        out.push_back(std::string("{\"workload\":\"gzip\",\"scale\":") +
                      kCampaignScale +
                      ",\"mode\":\"campaign\",\"trials\":1}");
        return out;
    }

  private:
    /** A budget in [lo, hi) not handed out before (a cache miss). */
    uint64_t
    uniqueBudget(uint64_t lo, uint64_t hi)
    {
        for (;;) {
            const uint64_t b = lo + rng_.below(hi - lo);
            if (used_.insert(b).second)
                return b;
        }
    }

    Rng rng_;
    std::vector<MixKind> deck_;
    std::set<uint64_t> used_;
    uint64_t campaigns_ = 0;
};

struct Sample
{
    MixRequest req;
    double clientMs = 0.0;  ///< receipt - due
    double lateMs = 0.0;    ///< send - due (generator lag)
    std::string response;   ///< the raw line
    std::string status;
    double envelopeMs = 0.0; ///< server latency_ms
    double runMs = 0.0;      ///< host.seconds
    uint64_t dynInsts = 0;
};

struct Phase
{
    double rps = 0.0;
    std::vector<Sample> samples;
    /** Calibration-loop times taken by the sender between requests,
     *  each with the index of the request it followed. */
    std::vector<std::pair<size_t, double>> loops;
};

/**
 * The sender times a quarter of the calibration loop (~0.25 ms on the
 * reference host) after about every 10 ms of requests, when the next
 * request is at least kCalibrationGap off.
 */
constexpr uint32_t kServeCalibrationParts = 4;
constexpr double kServeCalibrationPerSecond = 100.0;
constexpr auto kCalibrationGap = std::chrono::milliseconds(1);

/** A started server with primed caches, and where it listens. */
struct Served
{
    std::unique_ptr<SimServer> server;
    Endpoint at;
};

/** Start a server on unix socket @p unixPath (empty: loopback TCP) and
 *  prime its caches with one request of each shape. */
Served
startServer(const std::string &unixPath)
{
    ServerConfig cfg;
    cfg.listen = unixPath.empty() ? ":0" : "unix:" + unixPath;
    cfg.workers = 1;
    cfg.executors = kServeExecutors;
    // Deep queues: an overloaded step must show as latency, not as shed
    // requests, so no operation of the workload fails.
    cfg.maxPending = 1 << 16;
    cfg.maxPendingPerClient = 1 << 16;
    Served s;
    s.server = std::make_unique<SimServer>(cfg);
    s.server->start();
    s.at = Endpoint{unixPath, s.server->port()};
    Client client(s.at);
    const auto bodies = MixGen::primingBodies();
    for (const std::string &b : bodies)
        client.sendLine(b);
    for (size_t i = 0; i < bodies.size(); ++i) {
        const std::string line = client.readLine();
        if (line.empty() ||
            Json::parse(line).at("status").asString() != "ok")
            fatal("perfbench: priming request failed: " + line);
    }
    return s;
}

/** Send @p n mix requests at @p rps on one connection, reading them back. */
Phase
runPhase(const Endpoint &at, MixGen &gen, double rps, size_t n,
         uint64_t &nextId, Tracer &tr)
{
    Phase ph;
    ph.rps = rps;
    ph.samples.resize(n);
    for (Sample &s : ph.samples)
        s.req = gen.next(nextId++);
    std::vector<Clock::time_point> due(n);
    Client client(at);
    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    const auto gap = std::chrono::duration<double>(1.0 / rps);
    for (size_t i = 0; i < n; ++i)
        due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                          gap * double(i));

    // Errors on either thread are kept and raised after the join: an
    // exception must not leave the reader's thread or skip its join.
    std::string readError;
    std::thread reader([&] {
        try {
            for (size_t i = 0; i < n; ++i) {
                std::string line = client.readLine();
                const auto got = Clock::now();
                if (line.empty())
                    fatal("server closed the connection");
                const Json doc = Json::parse(line);
                const uint64_t seq = doc.at("seq").asUInt();
                if (seq < 1 || seq > n)
                    fatal("response with unknown seq: " + line);
                Sample &s = ph.samples[seq - 1];
                s.clientMs = std::chrono::duration<double, std::milli>(
                                 got - due[seq - 1])
                                 .count();
                s.status = doc.at("status").asString();
                if (s.status == "ok") {
                    s.envelopeMs = doc.at("latency_ms").asDouble();
                    s.runMs = doc.at("host").at("seconds").asDouble() * 1e3;
                    s.dynInsts = doc.at("run").at("dyn_insts").asUInt();
                }
                tr.record("serve.request", tr.at(due[seq - 1]), tr.at(got),
                          s.req.id);
                s.response = std::move(line);
            }
        } catch (const std::exception &e) {
            readError = e.what();
        }
    });
    const size_t stride =
        std::max<size_t>(1, size_t(rps / kServeCalibrationPerSecond));
    std::string sendError;
    try {
        for (size_t i = 0; i < n; ++i) {
            std::this_thread::sleep_until(due[i]);
            ph.samples[i].lateMs = std::chrono::duration<double, std::milli>(
                                       Clock::now() - due[i])
                                       .count();
            client.sendLine(ph.samples[i].req.body);
            // Time the calibration loop in the gap before the next
            // request, so the host's speed is sampled through the phase.
            if (i % stride == 0 && i + 1 < n &&
                due[i + 1] - Clock::now() > kCalibrationGap)
                ph.loops.emplace_back(
                    i, calibrationLoopSeconds(kServeCalibrationParts));
        }
    } catch (const std::exception &e) {
        sendError = e.what();
        client.shutdown(); // the reader sees end-of-stream and stops
    }
    reader.join();
    if (!sendError.empty() || !readError.empty())
        fatal("perfbench: serve phase failed: " + sendError + readError);
    return ph;
}

std::vector<double>
clientLatencies(const Phase &ph)
{
    std::vector<double> v;
    for (const Sample &s : ph.samples)
        v.push_back(s.clientMs);
    return v;
}

/**
 * Functional MIPS as served by requests [lo, hi): the median over unique
 * functional runs of run.dyn_insts / host.seconds (the median, because
 * a run that shared its core with the other executor is slow for
 * reasons of its own).
 */
double
servedMips(const Phase &ph, size_t lo, size_t hi)
{
    std::vector<double> mips;
    for (size_t i = lo; i < hi; ++i) {
        const Sample &s = ph.samples[i];
        if (s.req.kind == MixKind::Unique && s.status == "ok")
            mips.push_back(safeRatio(double(s.dynInsts) / 1e3, s.runMs));
    }
    return median(mips);
}

/**
 * A phase is cut into this many windows of consecutive requests (about
 * a second each). Each window's MIPS and median latency are normalized
 * by the calibration loops taken inside it, and the median window is
 * reported, so a burst of contention moves few windows and the figure
 * not at all.
 */
constexpr size_t kServeWindows = 15;

/** A phase's end-to-end figures (see kServeWindows). */
Figures
servedFigures(const Phase &ph)
{
    const size_t n = ph.samples.size();
    Figures f;
    f.rawMips = servedMips(ph, 0, n);
    f.rawLatencyMs = percentile(clientLatencies(ph), 50.0);
    std::vector<double> all, mips, lat;
    for (const auto &kv : ph.loops)
        all.push_back(kv.second);
    f.slowdown = hostSlowdown(all);
    for (size_t w = 0; w < kServeWindows; ++w) {
        const size_t lo = w * n / kServeWindows;
        const size_t hi = (w + 1) * n / kServeWindows;
        std::vector<double> loops, client;
        for (const auto &[i, s] : ph.loops) {
            if (i >= lo && i < hi)
                loops.push_back(s);
        }
        for (size_t i = lo; i < hi; ++i)
            client.push_back(ph.samples[i].clientMs);
        const double slowdown = hostSlowdown(loops);
        mips.push_back(servedMips(ph, lo, hi) * slowdown);
        lat.push_back(percentile(client, 50.0) / slowdown);
    }
    f.mips = median(mips);
    f.latencyMs = median(lat);
    return f;
}

/**
 * Median client latency of the phase's last fifth: a backlog that grows
 * through the phase makes it exceed the limit, where one slow request
 * at the end would not.
 */
double
backlogMs(const Phase &ph)
{
    const std::vector<double> all = clientLatencies(ph);
    return median(std::vector<double>(all.end() - all.size() / 5, all.end()));
}

bool
phaseMeetsLimit(const Phase &ph)
{
    for (const Sample &s : ph.samples) {
        if (s.status != "ok")
            return false;
    }
    return percentile(clientLatencies(ph), 99.0) <= kServeLatencyLimitMs &&
           backlogMs(ph) <= kServeLatencyLimitMs;
}

/**
 * What a response must reproduce: its architectural result, the cycle
 * count of timing runs, and its detail section (campaign outcome
 * counts and replay accounting, timing buckets and counters) without
 * the host timings.
 */
std::string
checkedContent(const Json &response)
{
    std::string out = response.at("run").dump();
    if (response.contains("cycles"))
        out += " cycles=" + std::to_string(response.at("cycles").asUInt());
    if (response.contains("detail")) {
        Json detail = Json::object();
        for (const auto &kv : response.at("detail").members()) {
            if (kv.first != "host")
                detail[kv.first] = kv.second;
        }
        out += " detail=" + detail.dump();
    }
    return out;
}

/** Worker threads of the untimed serve reference batch. */
constexpr unsigned kCheckWorkers = 3;

/**
 * Check every response against SimSession::run of the same request,
 * run as one untimed batch. Repeated bodies share one reference.
 * @p perturb "run" corrupts the first reference's result, "campaign"
 * the first campaign reference's outcome counts.
 */
void
checkServe(const std::vector<const Phase *> &phases, Report &rep,
           const std::string &perturb, Tracer &tr, Counters &c)
{
    std::map<std::string, size_t> refIndex; // body sans id -> reference
    std::vector<RunRequest> reqs;
    std::vector<std::pair<const Sample *, size_t>> checks;
    for (const Phase *ph : phases) {
        for (const Sample &s : ph->samples) {
            ++rep.attempted;
            if (s.status != "ok") {
                rep.fail("serve: request " + s.req.body + " -> " +
                         s.status);
                continue;
            }
            Json body = Json::parse(s.req.body);
            body["id"] = Json("");
            const auto ins = refIndex.emplace(body.dump(), reqs.size());
            if (ins.second)
                reqs.push_back(RunRequest::fromJson(Json::parse(s.req.body)));
            checks.emplace_back(&s, ins.first->second);
        }
    }

    SimSession session(SessionConfig{kCheckWorkers});
    std::vector<RunResponse> responses = session.runBatch(reqs);
    bool perturbed = false;
    for (RunResponse &r : responses) {
        if (!perturbed && perturb == "run" && r.ok) {
            ++r.arch.dynInsts;
            perturbed = true;
        } else if (!perturbed && perturb == "campaign" && r.ok &&
                   r.mode == RunMode::Campaign) {
            r.detail["injected"] = Json(r.detail.at("injected").asUInt() + 1);
            perturbed = true;
        }
    }
    if (!perturb.empty() && perturb != "trials" && !perturbed)
        fatal("perfbench: no " + perturb + " reference to perturb");
    std::vector<std::string> refs;
    for (const RunResponse &r : responses)
        refs.push_back(r.ok ? checkedContent(r.toJson())
                            : "reference failed: " + r.error);
    for (const auto &[s, idx] : checks) {
        const std::string got = checkedContent(Json::parse(s->response));
        if (got != refs[idx])
            rep.fail("serve: " + s->req.body +
                     " differs from SimSession::run:\n  got " + got +
                     "\n  ref " + refs[idx]);
    }

    if (!tr.enabled)
        return;
    // Response serialization, both directions, on the mix's responses.
    {
        auto s = tr.span("service.serialize");
        for (const RunResponse &r : responses)
            Json::parse(r.toJson().dump());
    }
    c["service.serialized"] = double(responses.size());
}

Json
serverStats(const Endpoint &at)
{
    Client client(at);
    client.sendLine("{\"kind\":\"stats\"}");
    const Json doc = Json::parse(client.readLine());
    return doc.at("stats").at("server");
}

double
statValue(const Json &stats, const char *key)
{
    return stats.contains(key) ? stats.at(key).asDouble() : 0.0;
}

Report
runServe(uint64_t seed, double seconds, bool trace,
         const std::string &perturb, const std::string &socketPath,
         Tracer &tr)
{
    Report rep;
    Served served;
    const Setups setups = timeSetups(
        [&] { served = startServer(socketPath); },
        [&] {
            served.server->requestShutdown();
            served.server->wait();
        });
    MixGen gen(seed);
    uint64_t nextId = 1;
    // The host's speed for the rate is timed just before the load starts,
    // with the loop warm: each set-up's loop runs after the previous
    // server's shutdown has evicted it, and reads up to a fifth slower.
    std::vector<double> rateLoops;
    for (int k = 0; k < 20; ++k)
        rateLoops.push_back(calibrationLoopSeconds());
    const double baseRps = kServeBaseRps / hostSlowdown(rateLoops);

    // Base phase at the lowest rate: the latency figures. Untraced runs
    // then sweep rising rates for the highest one meeting the limit;
    // traced runs repeat the base phase traced.
    std::vector<Phase> phases;
    phases.reserve(kServeSweepSteps + 2); // base is referenced throughout
    const double baseShare = trace ? 0.4 : 0.6;
    const size_t baseN =
        std::max<size_t>(50, size_t(baseRps * seconds * baseShare));
    phases.push_back(runPhase(served.at, gen, baseRps, baseN, nextId, tr));
    const Phase &base = phases[0];
    // Peak memory of the latency phase; the sweep's backlog would add
    // a rate-dependent queue on top.
    const double baseRssMb = peakRssMb();
    double maxRps = phaseMeetsLimit(base) ? baseRps : 0.0;
    if (trace) {
        tr.enabled = true;
        phases.push_back(
            runPhase(served.at, gen, baseRps, baseN, nextId, tr));
        tr.enabled = false;
    } else if (maxRps > 0.0) {
        const double stepSeconds = seconds * 0.05;
        for (int k = 1; k <= kServeSweepSteps; ++k) {
            const double rps = baseRps * std::pow(kServeSweepFactor, k);
            phases.push_back(runPhase(served.at, gen, rps,
                                      size_t(rps * stepSeconds), nextId,
                                      tr));
            if (!phaseMeetsLimit(phases.back()))
                break;
            maxRps = rps;
        }
    }
    const Json stats = serverStats(served.at);
    served.server->requestShutdown();
    if (served.server->wait() != 0)
        rep.fail("serve: server exited with an error");

    // The same base load over loopback TCP, from a client with default
    // socket options but TCP_NODELAY: the latency a TCP client sees,
    // including the daemon's own delivery delay (see README.md).
    Served tcp = startServer("");
    const Phase tcpPhase =
        runPhase(tcp.at, gen, baseRps,
                 std::max<size_t>(20, size_t(baseRps * seconds *
                                             kServeTcpShare)),
                 nextId, tr);
    tcp.server->requestShutdown();
    if (tcp.server->wait() != 0)
        rep.fail("serve: TCP server exited with an error");
    const std::vector<double> tcpLat = clientLatencies(tcpPhase);

    // Untimed probes, spans recorded when traced: prepareJob, warm-start
    // snapshot and restore, and the campaign probe, whose classification
    // is checked on every run.
    Counters probe;
    tr.enabled = trace;
    if (trace) {
        const Program twolf = buildWorkload("twolf");
        RunRequest req;
        req.workload = "twolf";
        req.warmupInsts = kWarmupInsts;
        PreparedJob job;
        {
            auto s = tr.span("service.prepare");
            job = prepareJob(req, &twolf);
        }
        probeSnapshot(job, kWarmupInsts, tr);
    }
    RunRequest campaign;
    campaign.workload = "gzip";
    campaign.scale = std::stod(kCampaignScale);
    campaign.mode = RunMode::Campaign;
    const Program gzip =
        buildWorkload(scaledSpec(workloadSpec("gzip"), campaign.scale));
    probeCampaign(prepareJob(campaign, &gzip), seed, perturb == "trials", tr,
                  probe, rep);
    std::vector<const Phase *> checked = {&tcpPhase};
    for (const Phase &ph : phases)
        checked.push_back(&ph);
    checkServe(checked, rep, perturb, tr, probe);
    tr.enabled = false;
    if (trace) {
        const std::string bad = tr.nestingViolation();
        if (!bad.empty())
            rep.fail("trace: " + bad);
    }

    const std::vector<double> lat = clientLatencies(base);
    std::vector<double> late;
    double busyMs = 0.0;
    for (const Sample &s : base.samples) {
        late.push_back(s.lateMs);
        if (s.req.kind != MixKind::Repeat) // a hit reports the cached run
            busyMs += s.runMs;
    }
    std::printf("sample: %zu requests at %.0f req/s; executors busy %.1f%%; "
                "generator late p50 %.3f ms, max %.3f ms\n",
                lat.size(), baseRps,
                100.0 * busyMs * baseRps /
                    (1e3 * double(lat.size()) * kServeExecutors),
                percentile(late, 50.0), percentile(late, 100.0));
    for (const char *kind :
         {"unique", "repeat", "warm", "sampled", "campaign"}) {
        std::vector<double> client, run;
        for (const Sample &s : base.samples) {
            if (std::string(mixKindName(s.req.kind)) == kind) {
                client.push_back(s.clientMs);
                run.push_back(s.runMs);
            }
        }
        std::printf("mix: %-8s %5zu requests  client p50 %8.3f p99 %8.3f "
                    "ms  host.seconds p50 %8.3f p99 %8.3f ms\n",
                    kind, client.size(), percentile(client, 50.0),
                    percentile(client, 99.0), percentile(run, 50.0),
                    percentile(run, 99.0));
    }
    for (const Phase *ph : checked) {
        std::printf("serve: %-4s %6.0f req/s  %5zu requests  p50 %8.3f ms  "
                    "p99 %8.3f ms  last-fifth p50 %8.3f ms  %s\n",
                    ph == &tcpPhase ? "tcp" : "unix", ph->rps,
                    ph->samples.size(),
                    percentile(clientLatencies(*ph), 50.0),
                    percentile(clientLatencies(*ph), 99.0), backlogMs(*ph),
                    phaseMeetsLimit(*ph) ? "meets limit" : "misses limit");
    }

    const double p50 = percentile(lat, 50.0);
    const Figures fig = servedFigures(base);
    setEndToEnd(rep, setups, fig, baseRssMb);
    rep.named["serve_p50_ms"] = {p50, "ms"};
    rep.named["serve_p99_ms"] = {percentile(lat, 99.0), "ms"};
    rep.named["serve_tcp_p50_ms"] = {percentile(tcpLat, 50.0), "ms"};
    rep.named["serve_tcp_p99_ms"] = {percentile(tcpLat, 99.0), "ms"};
    if (!trace)
        rep.named["serve_max_rps"] = {maxRps, "req/s"};

    if (trace) {
        for (const auto &kv : kLayers)
            rep.layer[kv.first] = {0.0, kv.second};
        const Phase &tp = phases[1];
        std::vector<double> env, run, queue, over;
        for (const Sample &s : tp.samples) {
            if (s.status != "ok")
                continue;
            env.push_back(s.envelopeMs);
            over.push_back(s.clientMs - s.envelopeMs);
            if (s.req.kind != MixKind::Repeat) {
                run.push_back(s.runMs);
                queue.push_back(s.envelopeMs - s.runMs);
            }
        }
        setLayer(rep.layer, "service.latency_ms.p50", percentile(env, 50));
        setLayer(rep.layer, "service.latency_ms.p99", percentile(env, 99));
        setLayer(rep.layer, "service.run_ms.p50", percentile(run, 50));
        setLayer(rep.layer, "service.run_ms.p99", percentile(run, 99));
        setLayer(rep.layer, "service.queue_ms.p50", percentile(queue, 50));
        setLayer(rep.layer, "service.queue_ms.p99", percentile(queue, 99));
        setLayer(rep.layer, "service.client_overhead_ms.p50",
                 percentile(over, 50));
        setLayer(rep.layer, "service.tcp_p50_ms", percentile(tcpLat, 50));
        const double requests = statValue(stats, "requests");
        setLayer(rep.layer, "service.cache_hit_ratio",
                 safeRatio(statValue(stats, "cache_hits"), requests));
        setLayer(rep.layer, "service.admitted", statValue(stats, "admitted"));
        setLayer(rep.layer, "service.shed",
                 statValue(stats, "status_overloaded"));
        setLayer(rep.layer, "service.deadline_exceeded",
                 statValue(stats, "status_deadline_exceeded"));
        const std::map<std::string, double> self =
            tr.selfSeconds(0, tr.spans().size());
        const auto span = [&](const char *n) {
            return spanSeconds(self, n);
        };
        setLayer(rep.layer, "service.prepare_s", span("service.prepare"));
        setLayer(rep.layer, "sim.snapshot_s", span("sim.snapshot"));
        setLayer(rep.layer, "sim.restore_s", span("sim.restore"));
        setLayer(rep.layer, "faults.campaign_s", span("faults.campaign"));
        setLayer(rep.layer, "faults.golden_s", span("faults.golden"));
        const double replayed = counter(probe, "faults.replayed_insts");
        const double saved = counter(probe, "faults.saved_insts");
        setLayer(rep.layer, "faults.injected",
                 counter(probe, "faults.injected"));
        setLayer(rep.layer, "faults.replayed_insts", replayed);
        setLayer(rep.layer, "faults.saved_insts", saved);
        setLayer(rep.layer, "faults.replay_frac",
                 safeRatio(replayed, replayed + saved));
        setLayer(rep.layer, "service.serialize_s",
                 safeRatio(span("service.serialize"),
                           counter(probe, "service.serialized")));
        setLayer(rep.layer, "trace.overhead.guest_mips_norm",
                 servedFigures(tp).mips - fig.mips);
        setLayer(rep.layer, "trace.overhead.latency_ms_norm",
                 servedFigures(tp).latencyMs - fig.latencyMs);
        setLayer(rep.layer, "trace.spans", double(tr.spans().size()));
        std::printf("spans: %-28s %10s %12s\n", "name", "count", "self s");
        for (const auto &kv : self)
            std::printf("spans: %-28s %10zu %12.6f\n", kv.first.c_str(),
                        tr.count(kv.first), kv.second);
    }
    return rep;
}

// ------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
    /** Empty, or which reference result to corrupt: "run" (every
     *  workload), "campaign" or "trials" (serve_mix). */
    std::string perturb;
    /** The unix socket serve_mix's server listens on. */
    std::string socket = "perfbench-serve.sock";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("perfbench: " + flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload") {
            a.workload = value();
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = std::stoull(value());
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value());
            if (!(a.seconds > 0))
                fatal("perfbench: --seconds must be > 0");
        } else if (flag == "--trace") {
            const std::string t = value();
            if (t != "0" && t != "1")
                fatal("perfbench: --trace takes 0 or 1");
            a.trace = t == "1";
        } else if (flag == "--spans") {
            a.spans = value();
        } else if (flag == "--socket") {
            a.socket = value();
        } else if (flag == "--perturb-reference") {
            a.perturb = value();
            if (a.perturb != "run" && a.perturb != "campaign" &&
                a.perturb != "trials")
                fatal("perfbench: --perturb-reference takes run, campaign "
                      "or trials");
        } else {
            fatal("perfbench: unknown argument " + flag);
        }
    }
    if (!haveWorkload)
        fatal("perfbench: --workload is required");
    if (!a.perturb.empty() && a.perturb != "run" &&
        a.workload != "serve_mix")
        fatal("perfbench: --perturb-reference " + a.perturb +
              " applies to serve_mix only");
    return a;
}

void
printMetric(const char *kind, const std::string &name, const Metric *m,
            const std::string &unit)
{
    if (m)
        std::printf("%s %-34s %16.6f %s\n", kind, name.c_str(), m->value,
                    unit.c_str());
    else
        std::printf("%s %-34s %16s %s\n", kind, name.c_str(), "n/a",
                    unit.c_str());
}

int
run(const Args &a)
{
    std::printf("perfbench: workload %s, seed %llu, %.1f s, trace %d\n",
                a.workload.c_str(), (unsigned long long)a.seed, a.seconds,
                int(a.trace));
    std::printf("host: compiler %s, build type %s\n", PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE);
    Tracer tr;
    Report rep;
    if (a.workload == "serve_mix") {
        rep = runServe(a.seed, a.seconds, a.trace, a.perturb, a.socket, tr);
    } else {
        PassWorkload w;
        if (a.workload == "func_sweep")
            w = funcSweep();
        else if (a.workload == "timing_sweep")
            w = timingSweep();
        else
            fatal("perfbench: unknown workload " + a.workload);
        rep = runPassWorkload(w, a.seconds, a.trace, a.perturb == "run", tr);
    }
    if (a.trace && rep.layer.at("pipeline.model_s").value < 0)
        rep.fail("invariant: pipeline.model_s < 0");

    rep.named["failed_frac"] = {
        safeRatio(double(rep.failed), double(rep.attempted)), "ratio"};
    for (const std::string &p : rep.problems)
        std::printf("FAILED: %s\n", p.c_str());
    for (const auto &kv : kNamed) {
        const auto it = rep.named.find(kv.first);
        printMetric("metric", kv.first,
                    it == rep.named.end() ? nullptr : &it->second,
                    kv.second);
    }
    if (a.trace) {
        for (const auto &kv : kLayers)
            printMetric("layer ", kv.first, &rep.layer.at(kv.first),
                        kv.second);
    }
    if (!a.spans.empty()) {
        std::ofstream out(a.spans);
        out << tr.toJson().dump(1) << "\n";
        if (!out)
            fatal("perfbench: cannot write " + a.spans);
    }

    Json metrics = Json::object();
    const Metrics &chosen = a.trace ? rep.layer : rep.e2e;
    for (const auto &kv : chosen) {
        Json m = Json::object();
        m["value"] = Json(kv.second.value);
        m["unit"] = Json(kv.second.unit);
        metrics[kv.first] = std::move(m);
    }
    Json result = Json::object();
    result["correct"] = Json(rep.failed == 0);
    result["attempted"] = Json(rep.attempted);
    result["failed"] = Json(rep.failed);
    result["metrics"] = std::move(metrics);
    std::printf("%s\n", result.dump().c_str());
    return rep.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const PanicError &e) {
        std::fprintf(stderr, "perfbench: simulator invariant: %s\n",
                     e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
