/**
 * @file
 * BenchConfig — the one validated configuration every benchmark main
 * shares: the DISE_BENCH_* / DISE_FAULT_* environment with CLI flags
 * layered on top. Only the bench mains use it; the strict numeric
 * parsers behind its values live in src/common/strict_parse.hpp,
 * shared with the tool front-ends.
 *
 * Sources, later wins:
 *   1. defaults (below),
 *   2. environment: DISE_BENCH_JOBS, DISE_BENCH_SCALE, DISE_BENCH_ONLY,
 *      DISE_BENCH_JSON, DISE_FAULT_TRIALS, DISE_FAULT_SEED,
 *      DISE_FAULT_FULL_REPLAY,
 *   3. CLI flags: --jobs N, --scale X, --only a,b, --json DIR,
 *      --fault-trials N, --fault-seed N, --fault-full-replay, --help.
 *
 * benchInit() (bench/harness.hpp) calls init() from every bench main;
 * init() strips the flags it consumed from argv so benches that parse
 * their own arguments afterwards (bench_engine_micro hands the rest to
 * Google Benchmark) see only what's left. Every value is validated on
 * entry — a bad DISE_BENCH_JOBS fails the bench loudly instead of
 * silently running serial.
 */

#ifndef DISE_BENCH_BENCH_CONFIG_HPP
#define DISE_BENCH_BENCH_CONFIG_HPP

#include <cstdint>
#include <string>

namespace dise {

struct BenchConfig
{
    /** Worker threads for sharded suites and campaign trials. */
    unsigned jobs = 1;
    /** Workload dynamic-instruction scale (0.25 = quick pass). */
    double scale = 1.0;
    /** Comma-separated benchmark names to run; empty = all. */
    std::string only;
    /** JSON-artifact directory; empty = no artifacts. */
    std::string jsonDir;
    /** Fault-campaign trials per regime. */
    uint32_t faultTrials = 48;
    /** Fault-campaign seed. */
    uint64_t faultSeed = 2003;

    /** The process-wide config (env applied on first use). */
    static BenchConfig &get();

    /**
     * Apply CLI flags on top of get(), stripping consumed flags from
     * @p argv. --help prints the flag reference and exits 0; any
     * malformed value fatal()s.
     */
    static void init(int &argc, char **argv, const char *benchName);

    /** Fault campaigns replay every trial from reset instead of from
     *  per-trigger snapshots (the O(n^2) reference configuration). */
    bool faultFullReplay = false;

    /** Does the --only/DISE_BENCH_ONLY filter select this name? */
    bool selected(const std::string &name) const;
};

} // namespace dise

#endif // DISE_BENCH_BENCH_CONFIG_HPP
