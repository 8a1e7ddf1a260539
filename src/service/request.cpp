#include "src/service/request.hpp"

#include "src/common/bits.hpp"
#include "src/common/logging.hpp"
#include "src/common/stats.hpp"
#include "src/mem/cache.hpp"

namespace dise {

const char *
runModeName(RunMode mode)
{
    switch (mode) {
      case RunMode::Functional:
        return "functional";
      case RunMode::Timing:
        return "timing";
      case RunMode::Campaign:
        return "campaign";
    }
    return "?";
}

RunMode
parseRunMode(const std::string &name)
{
    if (name == "functional")
        return RunMode::Functional;
    if (name == "timing")
        return RunMode::Timing;
    if (name == "campaign")
        return RunMode::Campaign;
    fatal("RunRequest: unknown mode \"" + name + "\"");
}

namespace {

const char *
placementName(DisePlacement placement)
{
    switch (placement) {
      case DisePlacement::Free:
        return "free";
      case DisePlacement::Stall:
        return "stall";
      case DisePlacement::Pipe:
        return "pipe";
    }
    return "?";
}

DisePlacement
parsePlacement(const std::string &name)
{
    if (name == "free")
        return DisePlacement::Free;
    if (name == "stall")
        return DisePlacement::Stall;
    if (name == "pipe")
        return DisePlacement::Pipe;
    fatal("RunRequest: unknown placement \"" + name + "\"");
}

FaultTarget
parseFaultTarget(const std::string &name)
{
    for (const FaultTarget t :
         {FaultTarget::MemoryData, FaultTarget::RegisterFile,
          FaultTarget::InstructionWord, FaultTarget::PtEntry,
          FaultTarget::RtEntry}) {
        if (name == faultTargetName(t))
            return t;
    }
    fatal("RunRequest: unknown fault target \"" + name + "\"");
}

/** @name Checked scalar reads.
 *  Client JSON is untrusted input: a wrong-typed value must be a
 *  per-request FatalError naming the key, never the process-killing
 *  panic Json's as*() accessors raise on type mismatch (a negative
 *  number parses as Number, not UInt, so checkUInt also rejects
 *  every negative). */
/// @{
uint64_t
checkUInt(const std::string &key, const Json &value)
{
    if (value.type() != Json::Type::UInt)
        fatal("RunRequest: \"" + key +
              "\" must be a non-negative integer");
    return value.asUInt();
}

uint32_t
checkUInt32(const std::string &key, const Json &value)
{
    const uint64_t v = checkUInt(key, value);
    if (v > UINT32_MAX)
        fatal("RunRequest: \"" + key + "\" must be at most 4294967295");
    return uint32_t(v);
}

bool
checkBool(const std::string &key, const Json &value)
{
    if (value.type() != Json::Type::Bool)
        fatal("RunRequest: \"" + key + "\" must be a boolean");
    return value.asBool();
}

const std::string &
checkString(const std::string &key, const Json &value)
{
    if (!value.isString())
        fatal("RunRequest: \"" + key + "\" must be a string");
    return value.asString();
}

double
checkNumber(const std::string &key, const Json &value)
{
    if (!value.isNumeric())
        fatal("RunRequest: \"" + key + "\" must be a number");
    return value.asDouble();
}
/// @}

} // namespace

void
checkICacheGeometry(uint32_t kb, const std::string &what)
{
    if (kb == 0)
        return; // perfect I-cache
    // The cache allocates every line up front: at most the L2's size.
    const MemHierarchyParams mem;
    const uint64_t setBytes = uint64_t(mem.lineBytes) * mem.l1iAssoc;
    const uint64_t bytes = uint64_t(kb) * 1024;
    if (bytes > mem.l2Size || bytes % setBytes != 0 ||
        !isPow2(bytes / setBytes)) {
        fatal(strFormat("%s: a %u KB L1 I-cache (%u-way, %u-byte lines) "
                        "needs a power-of-two set count and at most the "
                        "modeled L2's %u KB; use 0 (perfect) or a power "
                        "of two",
                        what.c_str(), kb, mem.l1iAssoc, mem.lineBytes,
                        mem.l2Size / 1024));
    }
}

void
checkRtGeometry(uint32_t entries, uint32_t assoc, const std::string &what)
{
    if (entries == 0)
        return; // perfect RT
    // The engine allocates every entry up front.
    if (entries > kMaxRtEntries || assoc == 0 || entries % assoc != 0 ||
        !isPow2(entries / assoc)) {
        fatal(strFormat("%s: an RT of %u entries in %u ways needs at "
                        "most %u entries and an associativity that "
                        "divides them into a power-of-two set count",
                        what.c_str(), entries, assoc, kMaxRtEntries));
    }
}

std::string
RunRequest::label() const
{
    if (!id.empty())
        return id;
    const std::string what = !workload.empty() ? workload : "source";
    return what + "/" + regime;
}

std::vector<AcfSpec>
RunRequest::normalizedAcfs() const
{
    if (acfsExplicit)
        return acfs;
    // Desugar the legacy booleans in the order prepareJob historically
    // applied them; the watchpoint was always merged over the MFI set.
    std::vector<AcfSpec> specs;
    if (!productions.empty())
        specs.push_back({"productions", "", AcfCompose::Append});
    if (mfi)
        specs.push_back(
            {"mfi", mfiVariantName(mfiVariant), AcfCompose::Append});
    if (watchpoint)
        specs.push_back({"watchpoint", "", AcfCompose::Merged});
    if (profile)
        specs.push_back({"profiler", "", AcfCompose::Append});
    if (rewriteMfi)
        specs.push_back({"rewrite_mfi", "", AcfCompose::Append});
    if (compress)
        specs.push_back({"compress", "", AcfCompose::Append});
    return specs;
}

void
RunRequest::validate() const
{
    if (workload.empty() == source.empty())
        fatal("RunRequest: exactly one of workload/source required");
    if (!(scale > 0))
        fatal("RunRequest: scale must be > 0");
    if (workload.empty() && scale != 1.0)
        fatal("RunRequest: scale applies to workloads only");
    if (width == 0)
        fatal("RunRequest: width must be >= 1");
    checkICacheGeometry(icacheKB, "RunRequest: \"icache_kb\"");
    checkRtGeometry(dise.rtEntries, dise.rtAssoc,
                    "RunRequest: \"rt_entries\"/\"rt_assoc\"");
    if (acfsExplicit &&
        (mfi || watchpoint || rewriteMfi || compress || profile)) {
        fatal("RunRequest: the \"acfs\" list cannot be mixed with the "
              "legacy ACF booleans (mfi, watchpoint, rewrite_mfi, "
              "compress, profile) — use one form");
    }
    if (watchpoint && !mfi)
        fatal("RunRequest: watchpoint requires mfi");
    const std::vector<AcfSpec> specs = normalizedAcfs();
    AcfRegistry::instance().validate(specs, !productions.empty());
    bool fusion = false;
    for (const AcfSpec &spec : specs)
        fusion = fusion || spec.kind == "fusion";
    if (fusion) {
        // Fusion retires instruction pairs, so nothing that needs an
        // exactly-N single-instruction boundary can run under it.
        if (warmupInsts > 0)
            fatal("RunRequest: fusion retires instruction pairs and "
                  "cannot honour the exact warm-start boundary — drop "
                  "warmup_insts");
        if (samplePeriod != 0)
            fatal("RunRequest: fusion is incompatible with sampled "
                  "timing (sampling units count single retired "
                  "instructions)");
        if (mode == RunMode::Campaign)
            fatal("RunRequest: fusion is incompatible with campaign "
                  "mode (fault triggers count single application "
                  "instructions)");
    }
    if (samplePeriod != 0) {
        if (mode != RunMode::Timing)
            fatal("RunRequest: sample_period applies to timing mode "
                  "only");
        if (!traceFeed)
            fatal("RunRequest: sampled timing requires the trace feed "
                  "(drop \"trace_feed\": false)");
        if (sampleDetail == 0 || sampleDetail > samplePeriod)
            fatal("RunRequest: sample_detail must be in [1, "
                  "sample_period]");
    } else if (sampleDetail != 0) {
        fatal("RunRequest: sample_detail requires sample_period");
    }
    if (warmupInsts > 0 && mode != RunMode::Functional)
        fatal("RunRequest: warmup_insts applies to functional mode only");
    if (mode == RunMode::Campaign) {
        if (trials == 0)
            fatal("RunRequest: campaign needs trials >= 1");
        if (faultTargets.empty())
            fatal("RunRequest: campaign needs fault targets");
    }
}

Json
RunRequest::toJson() const
{
    Json doc = Json::object();
    doc["id"] = Json(id);
    doc["workload"] = Json(workload);
    doc["source"] = Json(source);
    doc["scale"] = Json(scale);
    doc["regime"] = Json(regime);
    doc["mode"] = Json(std::string(runModeName(mode)));
    // Emit only the ACF form the request used: a round-tripped
    // request must parse back without tripping the mixing rejection.
    if (acfsExplicit) {
        Json list = Json::array();
        for (const AcfSpec &spec : acfs)
            list.push_back(spec.toJson());
        doc["acfs"] = std::move(list);
    } else {
        doc["mfi"] = Json(mfi);
        doc["mfi_variant"] =
            Json(std::string(mfiVariantName(mfiVariant)));
        doc["watchpoint"] = Json(watchpoint);
        doc["rewrite_mfi"] = Json(rewriteMfi);
        doc["compress"] = Json(compress);
        doc["profile"] = Json(profile);
    }
    doc["productions"] = Json(productions);
    doc["rt_entries"] = Json(dise.rtEntries);
    doc["rt_assoc"] = Json(dise.rtAssoc);
    doc["placement"] = Json(std::string(placementName(dise.placement)));
    doc["parity_checks"] = Json(dise.parityChecks);
    doc["trace_cache"] = Json(traceCache);
    doc["trace_feed"] = Json(traceFeed);
    doc["sample_period"] = Json(samplePeriod);
    doc["sample_detail"] = Json(sampleDetail);
    doc["icache_kb"] = Json(icacheKB);
    doc["width"] = Json(width);
    doc["max_insts"] = Json(maxInsts);
    doc["max_cycles"] = Json(maxCycles);
    doc["warmup_insts"] = Json(warmupInsts);
    doc["seed"] = Json(seed);
    doc["trials"] = Json(trials);
    doc["snapshots"] = Json(snapshots);
    Json targets = Json::array();
    for (const FaultTarget t : faultTargets)
        targets.push_back(Json(std::string(faultTargetName(t))));
    doc["fault_targets"] = std::move(targets);
    return doc;
}

RunRequest
RunRequest::fromJson(const Json &doc)
{
    if (!doc.isObject())
        fatal("RunRequest: job entry is not a JSON object");
    RunRequest req;
    // Campaign knobs set to a non-default value on a non-campaign
    // request are a contradiction worth naming, not silently ignoring
    // (a client that meant "mode": "campaign" would otherwise get a
    // functional run with its campaign shape dropped). Defaults are
    // accepted everywhere so fromJson(toJson()) round-trips.
    std::string campaignKey;
    // First legacy ACF key seen; presence (not value) is what counts,
    // so "mfi": false still conflicts with an "acfs" list.
    std::string legacyAcfKey;
    const RunRequest defaults;
    for (const auto &kv : doc.members()) {
        const std::string &key = kv.first;
        const Json &value = kv.second;
        if (key == "id") {
            req.id = checkString(key, value);
        } else if (key == "workload") {
            req.workload = checkString(key, value);
        } else if (key == "source") {
            req.source = checkString(key, value);
        } else if (key == "scale") {
            req.scale = checkNumber(key, value);
        } else if (key == "regime") {
            req.regime = checkString(key, value);
        } else if (key == "mode") {
            req.mode = parseRunMode(checkString(key, value));
        } else if (key == "acfs") {
            if (!value.isArray())
                fatal("RunRequest: \"acfs\" must be an array");
            req.acfs.clear();
            for (const Json &entry : value.items())
                req.acfs.push_back(AcfSpec::fromJson(entry));
            req.acfsExplicit = true;
        } else if (key == "mfi") {
            req.mfi = checkBool(key, value);
            legacyAcfKey = key;
        } else if (key == "mfi_variant") {
            req.mfiVariant = parseMfiVariant(checkString(key, value));
            legacyAcfKey = key;
        } else if (key == "watchpoint") {
            req.watchpoint = checkBool(key, value);
            legacyAcfKey = key;
        } else if (key == "rewrite_mfi") {
            req.rewriteMfi = checkBool(key, value);
            legacyAcfKey = key;
        } else if (key == "compress") {
            req.compress = checkBool(key, value);
            legacyAcfKey = key;
        } else if (key == "productions") {
            req.productions = checkString(key, value);
        } else if (key == "profile") {
            req.profile = checkBool(key, value);
            legacyAcfKey = key;
        } else if (key == "rt_entries") {
            req.dise.rtEntries = checkUInt32(key, value);
        } else if (key == "rt_assoc") {
            req.dise.rtAssoc = checkUInt32(key, value);
        } else if (key == "placement") {
            req.dise.placement = parsePlacement(checkString(key, value));
        } else if (key == "parity_checks") {
            req.dise.parityChecks = checkBool(key, value);
        } else if (key == "trace_cache") {
            req.traceCache = checkBool(key, value);
        } else if (key == "trace_feed") {
            req.traceFeed = checkBool(key, value);
        } else if (key == "sample_period") {
            req.samplePeriod = checkUInt(key, value);
        } else if (key == "sample_detail") {
            req.sampleDetail = checkUInt(key, value);
        } else if (key == "icache_kb") {
            req.icacheKB = checkUInt32(key, value);
        } else if (key == "width") {
            req.width = checkUInt32(key, value);
        } else if (key == "max_insts") {
            req.maxInsts = checkUInt(key, value);
        } else if (key == "max_cycles") {
            req.maxCycles = checkUInt(key, value);
        } else if (key == "warmup_insts") {
            req.warmupInsts = checkUInt(key, value);
        } else if (key == "snapshots") {
            req.snapshots = checkBool(key, value);
            if (req.snapshots != defaults.snapshots)
                campaignKey = key;
        } else if (key == "seed") {
            req.seed = checkUInt(key, value);
            if (req.seed != defaults.seed)
                campaignKey = key;
        } else if (key == "trials") {
            req.trials = checkUInt32(key, value);
            if (req.trials != defaults.trials)
                campaignKey = key;
        } else if (key == "fault_targets") {
            if (!value.isArray())
                fatal("RunRequest: \"fault_targets\" must be an array");
            req.faultTargets.clear();
            for (const Json &t : value.items())
                req.faultTargets.push_back(
                    parseFaultTarget(checkString(key, t)));
            if (req.faultTargets != defaults.faultTargets)
                campaignKey = key;
        } else {
            fatal("RunRequest: unknown key \"" + key + "\"");
        }
    }
    if (req.mode != RunMode::Campaign && !campaignKey.empty())
        fatal("RunRequest: \"" + campaignKey +
              "\" applies to campaign mode only");
    if (req.acfsExplicit && !legacyAcfKey.empty())
        fatal("RunRequest: \"acfs\" cannot be mixed with the legacy "
              "ACF key \"" + legacyAcfKey + "\" — use one form");
    req.validate();
    return req;
}

Json
RunResponse::toJson() const
{
    Json doc = Json::object();
    doc["id"] = Json(id);
    doc["mode"] = Json(std::string(runModeName(mode)));
    doc["ok"] = Json(ok);
    if (!ok) {
        doc["error"] = Json(error);
        return doc;
    }
    doc["run"] = arch.toJson();
    if (mode == RunMode::Timing)
        doc["cycles"] = Json(cycles);
    if (!detail.isNull())
        doc["detail"] = detail;
    Json host = Json::object();
    host["seconds"] = Json(hostSeconds);
    host["insts_per_second"] = Json(
        safeRatio(double(arch.dynInsts), hostSeconds));
    doc["host"] = std::move(host);
    return doc;
}

} // namespace dise
