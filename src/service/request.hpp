/**
 * @file
 * The unified simulation-job description: one RunRequest names
 * everything a run needs — the program (a built-in workload or inline
 * assembly), the ACF environment (MFI, watchpoint, compression,
 * productions DSL text), the engine and machine configuration, the
 * execution mode (functional, timing, or fault-injection campaign),
 * budgets, and a seed — and one RunResponse carries the unified
 * RunResult plus mode-specific detail back.
 *
 * Both sides serialize to the schema-versioned JSON the batch
 * front-end (`diserun --batch jobs.json`) and the NDJSON result
 * stream use; see DESIGN.md section 10 for the schema.
 */

#ifndef DISE_SERVICE_REQUEST_HPP
#define DISE_SERVICE_REQUEST_HPP

#include <string>
#include <vector>

#include "src/acf/mfi.hpp"
#include "src/acf/registry.hpp"
#include "src/common/json.hpp"
#include "src/dise/engine.hpp"
#include "src/faults/campaign.hpp"
#include "src/sim/core.hpp"

namespace dise {

/** What kind of run a RunRequest asks for. */
enum class RunMode : uint8_t {
    Functional, ///< architectural simulation (ExecCore)
    Timing,     ///< cycle-level simulation (PipelineSim)
    Campaign,   ///< seeded fault-injection campaign (src/faults)
};

/** Stable lower-case mode name ("functional", "timing", "campaign"). */
const char *runModeName(RunMode mode);

/** Parse a mode name; fatal() on anything else. */
RunMode parseRunMode(const std::string &name);

/**
 * @name Machine geometry checks.
 * fatal(), with @p what naming the setting, unless the model can be
 * built: an L1 I-cache of @p kb KB (0 = perfect) on the default line
 * size and associativity, and an RT of @p entries (0 = perfect) in
 * @p assoc ways. The models' constructors assert the same rules. Both
 * models allocate every line or entry up front, so sizes are capped:
 * an I-cache at the modeled L2's size (1,024 KB), an RT at
 * kMaxRtEntries. Every figure uses at most 64 KB and 2,048 entries.
 */
/// @{
constexpr uint32_t kMaxRtEntries = 65536;
void checkICacheGeometry(uint32_t kb, const std::string &what);
void checkRtGeometry(uint32_t entries, uint32_t assoc,
                     const std::string &what);
/// @}

/** One simulation job. */
struct RunRequest
{
    /** Job label echoed into the response; defaults to
     *  "<workload-or-source>/<regime>" when empty. */
    std::string id;

    /** @name Program: exactly one of workload / source. */
    /// @{
    std::string workload; ///< built-in workload name (src/workloads)
    std::string source;   ///< inline assembly text
    /** Scale the workload's dynamic-instruction target and kernel
     *  iterations (workload programs only). */
    double scale = 1.0;
    /// @}

    /** Regime label for artifacts/tables. */
    std::string regime = "default";

    RunMode mode = RunMode::Functional;

    /** @name ACF environment.
     *
     *  The primary form is the ordered "acfs" spec list, resolved by
     *  AcfRegistry (src/acf/registry.hpp). The booleans below are the
     *  legacy aliases; they desugar to the canonical list (see
     *  normalizedAcfs) and a request mixing both forms is rejected. */
    /// @{
    /** Ordered ACF-spec list; authoritative when acfsExplicit. */
    std::vector<AcfSpec> acfs;
    /** True when the request used the "acfs" form (JSON key present,
     *  or a caller filled @c acfs directly). */
    bool acfsExplicit = false;
    bool mfi = false;
    MfiVariant mfiVariant = MfiVariant::Dise3;
    /** Watchpoint assertion merged over the MFI set (requires mfi). */
    bool watchpoint = false;
    /** Binary-rewriting MFI baseline (no DISE). */
    bool rewriteMfi = false;
    /** Compress the text and install the decompression dictionary. */
    bool compress = false;
    /** Production DSL text to install (parsed against the program's
     *  symbols). Both forms use it; the acfs form additionally needs a
     *  {"kind": "productions"} entry fixing its position. */
    std::string productions;
    /** Path-profiler ACF (installs productions + dedicated regs). */
    bool profile = false;
    /// @}

    /** @name Engine and machine configuration. */
    /// @{
    DiseConfig dise;
    bool traceCache = true; ///< translated basic-block fast path
    /** Batched retire-trace delivery into the timing model (timing
     *  mode); false selects the step()-per-instruction reference path.
     *  Results are bit-identical either way — this is a speed knob
     *  kept as a knob only so the identity is checkable. */
    bool traceFeed = true;
    /** @name SMARTS-style sampled timing (timing mode; requires the
     *  trace feed). samplePeriod = 0 disables sampling; otherwise each
     *  period-instruction unit starts with sampleDetail instructions
     *  of detailed pipeline timing and functionally warms the caches
     *  and branch predictor through the rest. */
    /// @{
    uint64_t samplePeriod = 0;
    uint64_t sampleDetail = 0;
    /// @}
    uint32_t icacheKB = 32; ///< 0 = perfect (timing mode)
    uint32_t width = 4;     ///< machine width (timing mode)
    /// @}

    /** @name Budgets. */
    /// @{
    uint64_t maxInsts = ~uint64_t(0);
    uint64_t maxCycles = 0; ///< timing watchdog; 0 = unlimited
    /// @}

    /**
     * Warm-start point (functional mode): restore from a session-cached
     * snapshot taken after this many application instructions instead
     * of executing the prefix. Jobs sharing (program, ACF environment,
     * warmup point) execute the warmup once per session; results are
     * bit-identical to cold runs (see src/sim/snapshot.hpp). 0 = cold.
     */
    uint64_t warmupInsts = 0;

    /** @name Campaign shape (mode == Campaign). */
    /// @{
    uint64_t seed = 2003;
    uint32_t trials = 48;
    std::vector<FaultTarget> faultTargets = {FaultTarget::MemoryData,
                                             FaultTarget::RegisterFile,
                                             FaultTarget::InstructionWord};
    /** Replay trials from per-trigger COW snapshots (O(delta) per
     *  trial) instead of from reset; classifications are identical
     *  either way, so this is purely a speed knob. */
    bool snapshots = true;
    /// @}

    /** The response/artifact label this request resolves to. */
    std::string label() const;

    /**
     * The canonical ACF-spec list: @c acfs when the request used the
     * new form, otherwise the legacy booleans desugared in the fixed
     * historical order [productions, mfi, watchpoint/merged,
     * profiler, rewrite_mfi, compress]. This is what prepareJob
     * resolves through the AcfRegistry, so an aliased request and its
     * desugared spelling are equivalent by construction.
     */
    std::vector<AcfSpec> normalizedAcfs() const;

    /** fatal() on contradictions (no program, bad scale, machine
     *  geometry the models cannot build, ...). */
    void validate() const;

    Json toJson() const;

    /** Parse a request object; fatal() on unknown keys or bad types
     *  (batch files fail loudly, not silently half-applied). */
    static RunRequest fromJson(const Json &doc);
};

/** The unified result of one executed RunRequest. */
struct RunResponse
{
    std::string id;
    RunMode mode = RunMode::Functional;

    /** False when the job failed with a user-level FatalError; the
     *  batch keeps running and @c error carries the message. */
    bool ok = true;
    std::string error;

    /** Unified architectural result: the run itself (functional and
     *  timing modes) or the campaign's golden run. */
    RunResult arch;

    /** Cycle count (timing mode only; 0 otherwise). */
    uint64_t cycles = 0;

    /**
     * Mode-specific detail, shaped like the corresponding bench
     * artifact entry: timing = the full timing entry (cycles, buckets,
     * counters, host), campaign = the campaign entry (outcome counts,
     * fractions, host), functional = the run registry (run counters,
     * engine stats when present, host).
     */
    Json detail;

    /** Host wall-clock seconds of the run() call. */
    double hostSeconds = 0.0;

    /** One NDJSON-line object (run = RunResult::toJson serializer). */
    Json toJson() const;
};

} // namespace dise

#endif // DISE_SERVICE_REQUEST_HPP
