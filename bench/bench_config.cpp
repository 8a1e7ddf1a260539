#include "bench/bench_config.hpp"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/common/logging.hpp"
#include "src/common/strict_parse.hpp"

namespace dise {

namespace {

BenchConfig
fromEnvironment()
{
    BenchConfig cfg;
    if (const char *env = std::getenv("DISE_BENCH_JOBS"))
        cfg.jobs = unsigned(parsePositiveInt(env, "DISE_BENCH_JOBS"));
    if (const char *env = std::getenv("DISE_BENCH_SCALE"))
        cfg.scale = parsePositiveValue(env, "DISE_BENCH_SCALE");
    if (const char *env = std::getenv("DISE_BENCH_ONLY"))
        cfg.only = env;
    if (const char *env = std::getenv("DISE_BENCH_JSON"))
        cfg.jsonDir = env;
    if (const char *env = std::getenv("DISE_FAULT_TRIALS"))
        cfg.faultTrials =
            uint32_t(parsePositiveInt(env, "DISE_FAULT_TRIALS"));
    if (const char *env = std::getenv("DISE_FAULT_SEED"))
        cfg.faultSeed = parsePositiveInt(env, "DISE_FAULT_SEED");
    if (const char *env = std::getenv("DISE_FAULT_FULL_REPLAY"))
        cfg.faultFullReplay =
            parseNonNegativeInt(env, "DISE_FAULT_FULL_REPLAY") != 0;
    return cfg;
}

[[noreturn]] void
printHelp(const char *benchName)
{
    std::printf(
        "usage: %s [flags]\n"
        "\n"
        "  --jobs N          worker threads for sharded runs "
        "(DISE_BENCH_JOBS; default 1)\n"
        "  --scale X         workload dynamic-instruction scale "
        "(DISE_BENCH_SCALE; default 1.0)\n"
        "  --only a,b        run only the named benchmarks "
        "(DISE_BENCH_ONLY)\n"
        "  --json DIR        write BENCH_<name>.json artifacts into DIR "
        "(DISE_BENCH_JSON)\n"
        "  --fault-trials N  fault-campaign trials per regime "
        "(DISE_FAULT_TRIALS; default 48)\n"
        "  --fault-seed N    fault-campaign seed "
        "(DISE_FAULT_SEED; default 2003)\n"
        "  --fault-full-replay\n"
        "                    replay campaign trials from reset instead "
        "of from snapshots (DISE_FAULT_FULL_REPLAY=1)\n"
        "  --help            this message\n"
        "\n"
        "Flags override the environment; unrecognized arguments are "
        "left for the bench.\n",
        benchName);
    std::exit(0);
}

} // namespace

BenchConfig &
BenchConfig::get()
{
    static BenchConfig cfg = fromEnvironment();
    return cfg;
}

void
BenchConfig::init(int &argc, char **argv, const char *benchName)
{
    BenchConfig &cfg = get();
    std::vector<char *> keep;
    keep.push_back(argv[0]);
    auto need = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            fatal(std::string(flag) + ": missing value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs") {
            cfg.jobs =
                unsigned(parsePositiveInt(need(i, "--jobs"), "--jobs"));
        } else if (arg == "--scale") {
            cfg.scale = parsePositiveValue(need(i, "--scale"), "--scale");
        } else if (arg == "--only") {
            cfg.only = need(i, "--only");
        } else if (arg == "--json") {
            cfg.jsonDir = need(i, "--json");
        } else if (arg == "--fault-trials") {
            cfg.faultTrials = uint32_t(parsePositiveInt(
                need(i, "--fault-trials"), "--fault-trials"));
        } else if (arg == "--fault-seed") {
            cfg.faultSeed =
                parsePositiveInt(need(i, "--fault-seed"), "--fault-seed");
        } else if (arg == "--fault-full-replay") {
            cfg.faultFullReplay = true;
        } else if (arg == "--help" || arg == "-h") {
            printHelp(benchName);
        } else {
            keep.push_back(argv[i]);
        }
    }
    argc = int(keep.size());
    for (int i = 0; i < argc; ++i)
        argv[i] = keep[size_t(i)];
    argv[argc] = nullptr;
}

bool
BenchConfig::selected(const std::string &name) const
{
    if (only.empty())
        return true;
    const std::string padded = "," + only + ",";
    return padded.find("," + name + ",") != std::string::npos;
}

} // namespace dise
