/**
 * @file
 * diserun — command-line driver for the DISE simulator.
 *
 * Assembles a program (or generates a built-in workload), optionally
 * installs ACFs, and runs it on the functional or cycle-level
 * simulator. All execution routes through the simulation service
 * (src/service): one run builds a RunRequest and executes it via
 * prepareJob()/run*Sim(); --batch hands a whole job file to a
 * SimSession, which shards it across a worker pool.
 *
 *   diserun [options] <program.s>
 *   diserun [options] --workload <name>
 *   diserun --batch <jobs.json> [--jobs N] [--batch-out <file>]
 *   diserun --serve --listen <addr:port|unix:path> [serving options]
 *
 * Options:
 *   --batch <file>           run a JSON batch: either a top-level array
 *                            of RunRequest objects or {"jobs": [...]}.
 *                            Results stream as NDJSON (one JSON object
 *                            per line, with an "index" field) in
 *                            completion order; exit 1 if any job failed.
 *                            Every line is flushed as written and write
 *                            failures (a closed pipe, a full disk) end
 *                            the batch with a clean nonzero exit
 *   --jobs <n>               batch worker threads (default 1); with
 *                            --serve, the SimSession worker pool
 *   --batch-out <file>       write the NDJSON stream here (default
 *                            stdout)
 *
 * Serving options (see src/service/server.hpp for the protocol):
 *   --serve                  run as an NDJSON-over-socket daemon;
 *                            SIGTERM/SIGINT drain gracefully
 *   --listen <addr>          "host:port" (":0" = loopback, ephemeral;
 *                            the bound address is printed on stdout)
 *                            or "unix:/path"
 *   --executors <n>          concurrent request executors (default 2)
 *   --max-pending <n>        global admission cap (default 64)
 *   --max-pending-per-client <n>
 *                            per-connection admission cap (default 16)
 *   --default-deadline-ms <n>
 *                            wall-clock budget for requests carrying
 *                            no deadline_ms (default 0 = unlimited)
 *   --default-max-insts <n>  instruction budget imposed on requests
 *                            that set none (default 0 = leave as-is)
 *   --drain-timeout-ms <n>   shutdown drain budget (default 5000)
 *   --max-cached-results <n> idempotent result-cache entry cap, LRU
 *                            eviction beyond it (default 1024;
 *                            0 = never evict)
 *   --timing                 cycle-level model (default: functional)
 *   --no-trace-feed          timing mode: drive the timing model with
 *                            step() per instruction (the reference
 *                            delivery path) instead of batched
 *                            retire-trace feeding; results are
 *                            bit-identical, only slower
 *   --timing-sample <period>:<detail>
 *                            timing mode: SMARTS-style sampled timing
 *                            — per period instructions, time the first
 *                            detail in full and functionally warm the
 *                            caches/predictor through the rest;
 *                            reports measured + extrapolated CPI
 *   --acf <kind[:variant][/compose]>
 *                            append one entry to the ordered ACF-spec
 *                            list (the RunRequest "acfs" form), e.g.
 *                            --acf mfi:dise4 --acf watchpoint/merged
 *                            --acf fusion. Resolved by the AcfRegistry;
 *                            cannot be mixed with the legacy ACF flags
 *                            below
 *   --productions <file>     install productions from a DSL file (with
 *                            --acf, add an "--acf productions" entry
 *                            fixing its position in the list)
 *   --mfi[=dise3|dise4|sandbox]
 *                            memory fault isolation via DISE (legacy
 *                            alias of --acf mfi:<variant>)
 *   --watchpoint             merge the watchpoint assertion over MFI
 *                            (legacy alias of --acf watchpoint/merged)
 *   --rewrite-mfi            binary-rewriting MFI baseline (no DISE)
 *   --compress               compress the text, run via decompression
 *   --profile                path profiler; prints the records
 *
 * Generator / differential-harness options (src/workloads/generator):
 *   --gen-seed <n>           run the seeded random program for seed n
 *                            instead of a file/workload (--dump-asm
 *                            prints its source). Composes with --acf,
 *                            --timing, --stats, ...
 *   --gen-diff <n>           differential harness: generate n programs
 *                            (per-program seeds derived from the
 *                            --gen-seed base, default 2003) and check
 *                            native-vs-fused architectural identity
 *                            and fast-vs-slow bit-identity for each,
 *                            natively and under MFI (whose expansions
 *                            the summary counts), sharded over --jobs
 *                            threads. Prints a
 *                            worker-count-independent result digest;
 *                            any failure dumps the reproducing seed and
 *                            writes the program listing next to the
 *                            cwd, then exits 1
 *   --trace <n>              print the first n dynamic instructions
 *   --icache <KB>            L1I size (0 = perfect; else a power of
 *                            two)
 *   --width <n>              machine width
 *   --rt <entries>           RT capacity (0 = perfect)
 *   --rt-assoc <n>           RT associativity (must divide --rt into
 *                            a power-of-two set count)
 *   --no-trace-cache         disable the translated basic-block fast
 *                            path (functional mode; pure step() loop)
 *   --placement <free|stall|pipe>
 *   --max-insts <n>          dynamic instruction cap
 *   --scale <x>              workload scale (workloads only)
 *   --snapshot-at <n>        functional mode: capture a copy-on-write
 *                            state snapshot at application instruction
 *                            n, then run the remainder from it (the
 *                            result is bit-identical to an
 *                            uninterrupted run)
 *   --restore                after the run, restore the --snapshot-at
 *                            state and replay the suffix (time-travel
 *                            trap debugging: combine with --trace to
 *                            step the path from the snapshot to a trap
 *                            without re-executing the prefix); verifies
 *                            the replay is bit-identical
 *
 * All numeric flags are strictly validated: the whole token must be a
 * number of the right sign and integrality (and fit in 32 bits where
 * the setting is 32-bit), so "--jobs 4x" or "--scale banana" exit with
 * usage instead of silently running with a half-parsed value. Unknown
 * --mfi=/--placement spellings are rejected the same way. An I-cache
 * or RT geometry the models cannot build is a user error naming the
 * flag (exit 1).
 *
 *   --dump-asm               print the program source (workloads only)
 *   --stats                  dump engine/cache/predictor counters
 *   --stats-json <file>      write the full stats registry (all
 *                            component counters, derived ratios, cycle
 *                            buckets, host wall clock) as JSON
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include <poll.h>
#include <unistd.h>

#include "src/common/logging.hpp"
#include "src/common/rng.hpp"
#include "src/common/strict_parse.hpp"
#include "src/isa/disasm.hpp"
#include "src/service/server.hpp"
#include "src/service/session.hpp"
#include "src/workloads/generator.hpp"
#include "src/workloads/workloads.hpp"

using namespace dise;

namespace {

struct Options
{
    RunRequest req;
    std::string sourceFile;
    std::string productionsFile;
    std::string batchFile;
    std::string batchOutFile;
    unsigned jobs = 1;
    uint64_t traceInsts = 0;
    uint64_t genSeed = 2003;
    bool genSeedSet = false;
    uint64_t genDiff = 0; ///< 0 = no differential harness
    uint64_t snapshotAt = 0; ///< 0 = no snapshot
    bool restore = false;
    bool dumpAsm = false;
    bool stats = false;
    std::string statsJsonFile;
    bool serve = false;
    ServerConfig server;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options] <program.s> | --workload <name> | "
                 "--batch <jobs.json>\n"
                 "see the file header for the option list\n",
                 argv0);
    std::exit(2);
}

/**
 * Run one of the strict parsers (src/common/strict_parse) over a flag
 * value; on a malformed token the parser's fatal() diagnostic (naming
 * the flag and the offending text) lands on stderr and we exit with
 * usage, never with a half-parsed value.
 */
template <typename Parse>
auto
parsed(const char *argv0, Parse &&parse) -> decltype(parse())
{
    try {
        return parse();
    } catch (const FatalError &) {
        usage(argv0);
    }
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    const char *argv0 = argv[0];
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    // Every numeric flag goes through the validated parsers: positive
    // where 0 is meaningless, non-negative where 0 selects a mode
    // (--icache 0 = perfect, --rt 0 = perfect, --trace 0 = off).
    auto positiveInt = [&](int &i, const char *flag) {
        const char *text = need(i);
        return parsed(argv0, [&] {
            return parsePositiveInt(text, flag);
        });
    };
    auto nonNegativeInt = [&](int &i, const char *flag) {
        const char *text = need(i);
        return parsed(argv0, [&] {
            return parseNonNegativeInt(text, flag);
        });
    };
    // 32-bit settings are refused above 2^32-1, never truncated.
    auto uint32Of = [&](uint64_t value, const char *flag) {
        if (value > UINT32_MAX) {
            std::fprintf(stderr, "%s: must be at most 4294967295, got "
                         "%llu\n", flag, (unsigned long long)value);
            usage(argv0);
        }
        return static_cast<uint32_t>(value);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--batch") {
            opts.batchFile = need(i);
        } else if (arg == "--serve") {
            opts.serve = true;
        } else if (arg == "--listen") {
            opts.server.listen = need(i);
        } else if (arg == "--executors") {
            opts.server.executors =
                uint32Of(positiveInt(i, "--executors"), "--executors");
        } else if (arg == "--max-pending") {
            opts.server.maxPending = positiveInt(i, "--max-pending");
        } else if (arg == "--max-pending-per-client") {
            opts.server.maxPendingPerClient =
                positiveInt(i, "--max-pending-per-client");
        } else if (arg == "--default-deadline-ms") {
            opts.server.defaultDeadlineMs =
                nonNegativeInt(i, "--default-deadline-ms");
        } else if (arg == "--default-max-insts") {
            opts.server.defaultMaxInsts =
                nonNegativeInt(i, "--default-max-insts");
        } else if (arg == "--drain-timeout-ms") {
            opts.server.drainTimeoutMs =
                nonNegativeInt(i, "--drain-timeout-ms");
        } else if (arg == "--max-cached-results") {
            opts.server.maxCachedResults =
                nonNegativeInt(i, "--max-cached-results");
        } else if (arg == "--jobs") {
            opts.jobs = uint32Of(positiveInt(i, "--jobs"), "--jobs");
        } else if (arg == "--batch-out") {
            opts.batchOutFile = need(i);
        } else if (arg == "--timing") {
            opts.req.mode = RunMode::Timing;
        } else if (arg == "--no-trace-feed") {
            opts.req.traceFeed = false;
        } else if (arg == "--timing-sample") {
            const std::string spec = need(i);
            const size_t colon = spec.find(':');
            uint64_t period = 0, detail = 0;
            bool parsedOk = colon != std::string::npos && colon > 0 &&
                            colon + 1 < spec.size();
            if (parsedOk) {
                parsedOk = parsed(argv0, [&] {
                    period =
                        parsePositiveInt(spec.substr(0, colon).c_str(),
                                         "--timing-sample period");
                    detail =
                        parsePositiveInt(spec.substr(colon + 1).c_str(),
                                         "--timing-sample detail");
                    return true;
                });
            }
            if (!parsedOk || period == 0 || detail == 0 ||
                detail > period) {
                std::fprintf(stderr,
                             "--timing-sample %s: expected "
                             "<period>:<detail> with 1 <= detail <= "
                             "period\n",
                             spec.c_str());
                usage(argv0);
            }
            opts.req.samplePeriod = period;
            opts.req.sampleDetail = detail;
        } else if (arg == "--acf") {
            // kind[:variant][/compose], e.g. mfi:dise4, fusion,
            // watchpoint/merged. Repeatable; order is the list order.
            std::string body = need(i);
            AcfSpec spec;
            const size_t slash = body.find('/');
            if (slash != std::string::npos) {
                spec.compose = parsed(argv0, [&] {
                    return parseAcfCompose(body.substr(slash + 1));
                });
                body = body.substr(0, slash);
            }
            const size_t colon = body.find(':');
            if (colon != std::string::npos) {
                spec.variant = body.substr(colon + 1);
                body = body.substr(0, colon);
            }
            spec.kind = body;
            if (!AcfRegistry::instance().known(spec.kind)) {
                std::fprintf(
                    stderr, "--acf %s: unknown ACF kind (valid: %s)\n",
                    spec.kind.c_str(),
                    AcfRegistry::instance().kindList().c_str());
                usage(argv0);
            }
            opts.req.acfs.push_back(std::move(spec));
            opts.req.acfsExplicit = true;
        } else if (arg == "--gen-seed") {
            opts.genSeed = nonNegativeInt(i, "--gen-seed");
            opts.genSeedSet = true;
        } else if (arg == "--gen-diff") {
            opts.genDiff = positiveInt(i, "--gen-diff");
        } else if (arg == "--productions") {
            opts.productionsFile = need(i);
        } else if (arg == "--mfi" || arg.rfind("--mfi=", 0) == 0) {
            opts.req.mfi = true;
            if (arg == "--mfi" || arg == "--mfi=dise3") {
                opts.req.mfiVariant = MfiVariant::Dise3;
            } else if (arg == "--mfi=dise4") {
                opts.req.mfiVariant = MfiVariant::Dise4;
            } else if (arg == "--mfi=sandbox") {
                opts.req.mfiVariant = MfiVariant::Sandbox;
            } else {
                std::fprintf(stderr,
                             "%s: unknown MFI variant (valid: "
                             "--mfi=dise3, --mfi=dise4, --mfi=sandbox)"
                             "\n",
                             arg.c_str());
                usage(argv0);
            }
        } else if (arg == "--watchpoint") {
            opts.req.watchpoint = true;
        } else if (arg == "--rewrite-mfi") {
            opts.req.rewriteMfi = true;
        } else if (arg == "--compress") {
            opts.req.compress = true;
        } else if (arg == "--profile") {
            opts.req.profile = true;
        } else if (arg == "--trace") {
            opts.traceInsts = nonNegativeInt(i, "--trace");
        } else if (arg == "--icache") {
            opts.req.icacheKB =
                uint32Of(nonNegativeInt(i, "--icache"), "--icache");
            checkICacheGeometry(opts.req.icacheKB, "--icache");
        } else if (arg == "--width") {
            opts.req.width = uint32Of(positiveInt(i, "--width"), "--width");
        } else if (arg == "--rt") {
            opts.req.dise.rtEntries =
                uint32Of(nonNegativeInt(i, "--rt"), "--rt");
        } else if (arg == "--rt-assoc") {
            opts.req.dise.rtAssoc =
                uint32Of(positiveInt(i, "--rt-assoc"), "--rt-assoc");
        } else if (arg == "--no-trace-cache") {
            opts.req.traceCache = false;
        } else if (arg == "--placement") {
            const std::string p = need(i);
            if (p == "free") {
                opts.req.dise.placement = DisePlacement::Free;
            } else if (p == "stall") {
                opts.req.dise.placement = DisePlacement::Stall;
            } else if (p == "pipe") {
                opts.req.dise.placement = DisePlacement::Pipe;
            } else {
                std::fprintf(stderr,
                             "--placement %s: unknown placement "
                             "(valid: free, stall, pipe)\n",
                             p.c_str());
                usage(argv0);
            }
        } else if (arg == "--max-insts") {
            opts.req.maxInsts = positiveInt(i, "--max-insts");
        } else if (arg == "--scale") {
            const char *text = need(i);
            opts.req.scale = parsed(argv0, [&] {
                return parsePositiveValue(text, "--scale");
            });
        } else if (arg == "--snapshot-at") {
            opts.snapshotAt = positiveInt(i, "--snapshot-at");
        } else if (arg == "--restore") {
            opts.restore = true;
        } else if (arg == "--workload") {
            opts.req.workload = need(i);
        } else if (arg == "--dump-asm") {
            opts.dumpAsm = true;
        } else if (arg == "--stats") {
            opts.stats = true;
        } else if (arg == "--stats-json") {
            opts.statsJsonFile = need(i);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
        } else {
            opts.sourceFile = arg;
        }
    }
    // --rt and --rt-assoc may come in either order.
    checkRtGeometry(opts.req.dise.rtEntries, opts.req.dise.rtAssoc,
                    "--rt/--rt-assoc");
    if (opts.req.acfsExplicit &&
        (opts.req.mfi || opts.req.watchpoint || opts.req.rewriteMfi ||
         opts.req.compress || opts.req.profile)) {
        std::fprintf(stderr,
                     "--acf cannot be mixed with the legacy ACF flags "
                     "(--mfi/--watchpoint/--rewrite-mfi/--compress/"
                     "--profile)\n");
        usage(argv0);
    }
    if (opts.snapshotAt > 0) {
        for (const AcfSpec &spec : opts.req.acfs) {
            if (spec.kind == "fusion") {
                std::fprintf(stderr,
                             "--snapshot-at counts single application "
                             "instructions and cannot be combined with "
                             "--acf fusion\n");
                usage(argv0);
            }
        }
    }
    if (opts.restore && opts.snapshotAt == 0) {
        std::fprintf(stderr, "--restore requires --snapshot-at\n");
        usage(argv0);
    }
    if (opts.snapshotAt > 0 && opts.req.mode != RunMode::Functional) {
        std::fprintf(stderr,
                     "--snapshot-at applies to functional mode only\n");
        usage(argv0);
    }
    if (opts.serve) {
        if (!opts.batchFile.empty() || !opts.sourceFile.empty() ||
            !opts.req.workload.empty()) {
            std::fprintf(stderr,
                         "--serve takes no program or batch input\n");
            usage(argv0);
        }
        opts.server.workers = opts.jobs;
        return opts;
    }
    if (!opts.batchFile.empty())
        return opts;
    if (opts.genDiff > 0 || opts.genSeedSet) {
        if (!opts.sourceFile.empty() || !opts.req.workload.empty()) {
            std::fprintf(stderr,
                         "--gen-seed/--gen-diff generate the program; "
                         "drop the file/--workload input\n");
            usage(argv0);
        }
        return opts;
    }
    if (opts.sourceFile.empty() == opts.req.workload.empty())
        usage(argv[0]); // exactly one input source
    return opts;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeStatsJson(const std::string &path, const Json &doc)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write " + path);
    out << doc.dump(2) << "\n";
    if (!out)
        fatal("write failed: " + path);
}

void
printRun(const RunResult &r)
{
    std::printf("outcome:       %s\n", runOutcomeName(r.outcome));
    if (r.outcome == RunOutcome::Trap) {
        std::printf("trap:          %s at 0x%llx:%u (fault addr 0x%llx)"
                    "\n               %s\n",
                    trapCauseName(r.trap.cause),
                    (unsigned long long)r.trap.pc, r.trap.disepc,
                    (unsigned long long)r.trap.faultAddr,
                    r.trap.message.c_str());
    }
    if (r.acfDetections > 0) {
        std::printf("acf detects:   %llu\n",
                    (unsigned long long)r.acfDetections);
    }
    std::printf("exited:        %s (code %d)\n", r.exited ? "yes" : "NO",
                r.exitCode);
    if (!r.output.empty())
        std::printf("output:        %s\n", r.output.c_str());
    std::printf("dyn insts:     %llu (app %llu + dise %llu)\n",
                (unsigned long long)r.dynInsts,
                (unsigned long long)r.appInsts,
                (unsigned long long)r.diseInsts);
    std::printf("expansions:    %llu\n",
                (unsigned long long)r.expansions);
    std::printf("loads/stores:  %llu / %llu\n",
                (unsigned long long)r.loads,
                (unsigned long long)r.stores);
}

void
printProfile(const std::vector<PathRecord> &records, size_t show)
{
    std::printf("path records:  %zu\n", records.size());
    show = std::min(records.size(), show);
    for (size_t i = 0; i < show; ++i) {
        std::printf("    0x%llx : 0x%llx\n",
                    (unsigned long long)records[i].endpointPC,
                    (unsigned long long)records[i].history);
    }
}

/** Self-pipe the SIGTERM/SIGINT handler writes to; the serve loop
 *  polls it so shutdown starts from the main thread, not the handler
 *  (where no lock may be taken). */
int gSignalPipe[2] = {-1, -1};

extern "C" void
handleStopSignal(int)
{
    const char byte = 0;
    (void)!write(gSignalPipe[1], &byte, 1);
}

/** Run the NDJSON serving daemon until a stop signal or a panic. */
int
runServe(const Options &opts)
{
    if (::pipe(gSignalPipe) != 0)
        fatal("serve: pipe() failed");
    std::signal(SIGTERM, handleStopSignal);
    std::signal(SIGINT, handleStopSignal);

    SimServer server(opts.server);
    server.start();
    // The bound address on stdout is the startup handshake: scripts
    // read it to learn the ephemeral port before sending requests.
    if (opts.server.listen.rfind("unix:", 0) == 0) {
        std::printf("serve: listening on %s\n",
                    opts.server.listen.c_str());
    } else {
        // The actually-bound address (getsockname), not a hard-coded
        // loopback: --listen 0.0.0.0 must not hand scripts a lie.
        std::printf("serve: listening on %s:%d\n",
                    server.host().c_str(), server.port());
    }
    std::fflush(stdout);

    // Wait for a stop signal or a server-initiated stop (panic).
    for (;;) {
        pollfd pfd = {gSignalPipe[0], POLLIN, 0};
        const int rc = ::poll(&pfd, 1, 200);
        if (rc > 0 && (pfd.revents & POLLIN)) {
            std::fprintf(stderr, "serve: stop signal, draining\n");
            server.requestShutdown();
            break;
        }
        if (server.stopping())
            break;
    }
    const int code = server.wait();
    std::fprintf(stderr, "serve: drained, exiting %d\n", code);
    return code;
}

/** Run a parsed batch file through a SimSession, streaming NDJSON. */
int
runBatch(const Options &opts)
{
    Json doc = Json::parse(readFile(opts.batchFile));
    Json *jobsDoc = &doc;
    if (doc.isObject()) {
        if (!doc.contains("jobs"))
            fatal("batch file: expected a top-level array or an object "
                  "with a \"jobs\" array");
        jobsDoc = &doc["jobs"];
    }
    std::vector<RunRequest> reqs;
    for (const Json &entry : jobsDoc->items())
        reqs.push_back(RunRequest::fromJson(entry));

    std::ofstream outFile;
    if (!opts.batchOutFile.empty()) {
        outFile.open(opts.batchOutFile);
        if (!outFile)
            fatal("cannot write " + opts.batchOutFile);
    }
    std::ostream &out = opts.batchOutFile.empty()
                            ? static_cast<std::ostream &>(std::cout)
                            : outFile;

    SimSession session({opts.jobs});
    // Stream one NDJSON line per job as it completes (the session
    // serializes callbacks); "index" identifies the request so
    // consumers can reorder deterministically. Every line is flushed
    // as written — a consumer killed mid-batch still has every
    // completed result — and a failed write (closed pipe: SIGPIPE is
    // ignored so it surfaces as a stream error; short write to
    // --batch-out: full disk) aborts the batch with a clean FatalError
    // instead of silently dropping results on the floor.
    const char *sink = opts.batchOutFile.empty()
                           ? "stdout"
                           : opts.batchOutFile.c_str();
    const auto responses = session.runBatch(
        reqs, [&](size_t index, const RunResponse &resp) {
            Json line = resp.toJson();
            line["index"] = Json(uint64_t(index));
            out << line.dump() << "\n";
            out.flush();
            if (!out)
                fatal(std::string("batch: write to ") + sink +
                      " failed (closed pipe or full disk); results "
                      "are incomplete");
        });

    out.flush();
    if (!out)
        fatal(std::string("batch: write to ") + sink + " failed");
    if (!opts.batchOutFile.empty()) {
        outFile.close();
        if (!outFile)
            fatal("batch: short write closing " + opts.batchOutFile);
    }
    size_t failed = 0;
    for (const RunResponse &resp : responses)
        failed += resp.ok ? 0 : 1;
    std::fprintf(stderr, "batch: %zu jobs, %zu failed, %u workers\n",
                 responses.size(), failed, opts.jobs);
    return failed == 0 ? 0 : 1;
}

/**
 * Generator differential harness (--gen-diff N).
 *
 * For each of N derived seeds, runs the generated program under six
 * functional regimes — {native, fused, MFI} x {slow step loop, chained
 * trace-cache fast path}. The native and fused results must be
 * bit-identical (same outcome, counters, and printed checksum); MFI
 * inserts instructions, so its two regimes must match each other. The
 * MFI regimes are the ones that install productions, so they alone
 * run the translated Engine slots and lowered sequences; the summary
 * counts their expansions. A generated program that traps or hangs
 * natively fails the run too: the generator guarantees clean
 * termination, so either is a generator bug worth a reproducing seed.
 *
 * Work is sharded over --jobs threads; results land in a seed-indexed
 * array, so the summary digest is independent of the worker count —
 * CI runs the same block with --jobs 1 and --jobs 4 and compares
 * digests to prove scheduler-independence.
 */
int
runGenDiff(const Options &opts)
{
    struct Regime
    {
        const char *acf; ///< the one ACF installed; null: native
        bool fast;
        const char *name;
        size_t reference; ///< the regime whose result this one must match
    };
    static const std::array<Regime, 6> kRegimes = {{
        {nullptr, false, "native-slow", 0},
        {nullptr, true, "native-fast", 0},
        {"fusion", false, "fused-slow", 0},
        {"fusion", true, "fused-fast", 0},
        {"mfi", false, "mfi-slow", 4},
        {"mfi", true, "mfi-fast", 4},
    }};

    const uint64_t count = opts.genDiff;
    struct Row
    {
        uint64_t seed = 0;
        bool failed = false;
        std::string why;
        std::string canonical; ///< native-slow result JSON
        uint64_t fusedPairs = 0;
        uint64_t fusedDynInsts = 0;
        uint64_t mfiExpansions = 0;
    };
    std::vector<Row> rows(count);
    std::atomic<size_t> nextIndex{0};
    std::mutex dumpMutex;

    auto worker = [&]() {
        for (;;) {
            const size_t i = nextIndex.fetch_add(1);
            if (i >= count)
                return;
            Row &row = rows[i];
            row.seed = Rng::deriveSeed(opts.genSeed, i);
            GeneratorOptions gen;
            gen.seed = row.seed;
            const std::string src = generateRandomSource(gen);

            std::array<std::string, kRegimes.size()> results;
            for (size_t k = 0; k < kRegimes.size(); ++k) {
                const Regime &regime = kRegimes[k];
                const std::string acf = regime.acf ? regime.acf : "";
                RunRequest req;
                req.source = src;
                req.maxInsts = 20000000; // generous Hang backstop
                req.traceCache = regime.fast;
                if (!acf.empty()) {
                    req.acfsExplicit = true;
                    req.acfs = {{acf, "", AcfCompose::Append}};
                }
                SimOptions simOpts;
                const bool wantCoverage = acf == "fusion" && regime.fast;
                simOpts.registry = wantCoverage;
                const FunctionalOutcome out =
                    runFunctionalSim(prepareJob(req), simOpts);
                results[k] = out.arch.toJson().dump();
                // The generator promises clean termination: a trap,
                // hang, or nonzero exit from the reference regime is a
                // generator bug, not a simulator one — fail loudly.
                if (k == 0 &&
                    !(out.arch.exited && out.arch.exitCode == 0)) {
                    row.failed = true;
                    row.why +=
                        "generated program did not exit cleanly:\n  " +
                        results[0] + "\n";
                }
                if (wantCoverage && out.registry.isObject() &&
                    out.registry.contains("acf")) {
                    const Json &fz = out.registry.at("acf").at("fusion");
                    row.fusedPairs += fz.at("fused_pairs").asUInt();
                    row.fusedDynInsts += out.arch.dynInsts;
                }
                if (acf == "mfi" && regime.fast)
                    row.mfiExpansions += out.arch.expansions;
                const size_t ref = regime.reference;
                if (k != ref && results[k] != results[ref]) {
                    row.failed = true;
                    row.why += std::string(regime.name) +
                               " diverged from " + kRegimes[ref].name +
                               ":\n  " + results[ref] + "\n  vs\n  " +
                               results[k] + "\n";
                }
            }
            row.canonical = results[0];
            if (row.failed) {
                // Reproduction artifact: the seed plus the listing.
                std::lock_guard<std::mutex> lock(dumpMutex);
                const std::string file =
                    "gen-diff-failure-" + std::to_string(row.seed) +
                    ".s";
                std::ofstream dump(file);
                dump << "# diserun --gen-seed " << row.seed
                     << " reproduces this program\n"
                     << src;
                std::fprintf(stderr,
                             "gen-diff FAILURE seed=%llu (listing: %s)"
                             "\n%s",
                             (unsigned long long)row.seed, file.c_str(),
                             row.why.c_str());
            }
        }
    };

    std::vector<std::thread> pool;
    for (unsigned t = 1; t < opts.jobs; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();

    // Order-stable FNV-1a digest over the canonical per-seed results:
    // identical across worker counts or the sharding leaked state.
    uint64_t digest = 14695981039346656037ull;
    uint64_t failures = 0, fusedPairs = 0, fusedDynInsts = 0;
    uint64_t mfiExpansions = 0;
    for (const Row &row : rows) {
        for (const char c : row.canonical) {
            digest ^= static_cast<unsigned char>(c);
            digest *= 1099511628211ull;
        }
        failures += row.failed ? 1 : 0;
        fusedPairs += row.fusedPairs;
        fusedDynInsts += row.fusedDynInsts;
        mfiExpansions += row.mfiExpansions;
    }
    std::printf("gen-diff: programs=%llu regimes=%zu failures=%llu "
                "fused_pairs=%llu coverage=%.2f%% mfi_expansions=%llu "
                "digest=%016llx\n",
                (unsigned long long)count, kRegimes.size(),
                (unsigned long long)failures,
                (unsigned long long)fusedPairs,
                fusedDynInsts
                    ? 100.0 * 2.0 * double(fusedPairs) /
                          double(fusedDynInsts)
                    : 0.0,
                (unsigned long long)mfiExpansions,
                (unsigned long long)digest);
    return failures == 0 ? 0 : 1;
}

int
runMain(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    if (opts.serve)
        return runServe(opts);
    if (!opts.batchFile.empty())
        return runBatch(opts);
    if (opts.genDiff > 0)
        return runGenDiff(opts);

    RunRequest &req = opts.req;
    if (opts.genSeedSet) {
        GeneratorOptions gen;
        gen.seed = opts.genSeed;
        req.source = generateRandomSource(gen);
        if (req.id.empty())
            req.id = "gen-" + std::to_string(opts.genSeed);
        if (opts.dumpAsm) {
            std::fputs(req.source.c_str(), stdout);
            return 0;
        }
    }
    if (!opts.sourceFile.empty())
        req.source = readFile(opts.sourceFile);
    if (!opts.productionsFile.empty())
        req.productions = readFile(opts.productionsFile);
    if (opts.dumpAsm && !req.workload.empty()) {
        std::fputs(
            generateWorkloadSource(workloadSpec(req.workload)).c_str(),
            stdout);
        return 0;
    }

    const PreparedJob job = prepareJob(req);
    std::printf("program:       %zu insts (%.1f KB text, %.1f KB "
                "data), entry 0x%llx\n",
                job.prog->text.size(), job.prog->textBytes() / 1024.0,
                job.prog->data.size() / 1024.0,
                (unsigned long long)job.prog->entry);

    SimOptions simOpts;
    simOpts.statsText = opts.stats;
    simOpts.registry = !opts.statsJsonFile.empty();

    if (req.mode == RunMode::Timing) {
        const TimingOutcome out = runTimingSim(job, simOpts);
        const TimingResult &t = out.timing;
        printRun(t.arch);
        std::printf("cycles:        %llu (IPC %.2f)\n",
                    (unsigned long long)t.cycles, t.ipc());
        std::printf("mispredicts:   %llu (+%llu unpredicted-sequence, "
                    "%llu decode redirects)\n",
                    (unsigned long long)t.mispredicts,
                    (unsigned long long)t.diseMispredicts,
                    (unsigned long long)t.decodeRedirects);
        std::printf("cache misses:  L1I %llu, L1D %llu, L2 %llu\n",
                    (unsigned long long)t.icacheMisses,
                    (unsigned long long)t.dcacheMisses,
                    (unsigned long long)t.l2Misses);
        std::printf("PT/RT stalls:  %llu cycles\n",
                    (unsigned long long)t.missStallCycles);
        if (t.sampling.enabled) {
            std::printf(
                "sampling:      %llu:%llu — %llu insts timed, %llu "
                "warmed; measured CPI %.4f, estimated %llu cycles\n",
                (unsigned long long)t.sampling.period,
                (unsigned long long)t.sampling.detail,
                (unsigned long long)t.sampling.sampledInsts,
                (unsigned long long)t.sampling.warmedInsts,
                t.sampling.measuredCpi(),
                (unsigned long long)t.estimatedCycles());
        }
        if (req.profile)
            printProfile(out.profile, 0);
        if (opts.stats)
            std::fputs(out.statsText.c_str(), stdout);
        if (!opts.statsJsonFile.empty())
            writeStatsJson(opts.statsJsonFile, out.registry);
    } else {
        const auto trace = [](const DynInst &dyn, uint64_t i) {
            std::printf("%6llu  0x%llx:%u  %s\n", (unsigned long long)i,
                        (unsigned long long)dyn.pc, dyn.disepc,
                        disassemble(dyn.inst, dyn.pc).c_str());
        };
        // With --restore, --trace applies to the replay (the whole
        // point: step the suffix without re-tracing the prefix).
        if (!opts.restore) {
            simOpts.traceInsts = opts.traceInsts;
            simOpts.onTrace = trace;
        }
        SimSnapshot snap;
        if (opts.snapshotAt > 0) {
            snap = takeWarmupSnapshot(job, opts.snapshotAt);
            std::printf("snapshot:      app inst %llu (dyn inst %llu, "
                        "pc 0x%llx, %zu pages)\n",
                        (unsigned long long)snap.appInsts,
                        (unsigned long long)snap.result.dynInsts,
                        (unsigned long long)snap.pc,
                        snap.memory.pagesTouched());
            // The main run resumes from the snapshot; its result is
            // bit-identical to an uninterrupted run (src/sim/snapshot).
            simOpts.resume = &snap;
        }
        const FunctionalOutcome out = runFunctionalSim(job, simOpts);
        printRun(out.arch);
        if (req.profile)
            printProfile(out.profile, 10);
        if (opts.stats)
            std::fputs(out.statsText.c_str(), stdout);
        if (!opts.statsJsonFile.empty())
            writeStatsJson(opts.statsJsonFile, out.registry);
        if (opts.restore) {
            std::printf("\nrestored app inst %llu, replaying:\n",
                        (unsigned long long)snap.appInsts);
            SimOptions replayOpts = simOpts;
            replayOpts.traceInsts = opts.traceInsts;
            replayOpts.onTrace = trace;
            const FunctionalOutcome replay =
                runFunctionalSim(job, replayOpts);
            printRun(replay.arch);
            const bool identical = replay.arch.toJson().dump() ==
                                   out.arch.toJson().dump();
            std::printf("replay:        %s\n",
                        identical ? "bit-identical to the original run"
                                  : "MISMATCH vs the original run");
            if (!identical)
                return 1;
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A consumer closing its end of a pipe (head -1 over --batch, a
    // serve client vanishing mid-write) must surface as a write error
    // we can report, not a SIGPIPE process kill.
    std::signal(SIGPIPE, SIG_IGN);
    // Guest failures are architected Trap/Hang outcomes and never throw;
    // the only exceptions reaching here are host-level, already logged
    // to stderr by fatal()/panic(). Separate the two error classes by
    // exit code: user error (bad input, unreadable file) is 1, a
    // simulator invariant violation is 2. Any other exception (a
    // std::bad_alloc for a machine too large for the host) is reported
    // as a user error.
    try {
        return runMain(argc, argv);
    } catch (const PanicError &) {
        return 2;
    } catch (const FatalError &) {
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "diserun: %s\n", e.what());
        return 1;
    }
}
