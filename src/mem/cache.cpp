#include "src/mem/cache.hpp"

#include "src/common/bits.hpp"
#include "src/common/logging.hpp"

namespace dise {

Cache::Cache(const CacheParams &params, Cache *next, uint32_t memLatency)
    : params_(params), next_(next), memLatency_(memLatency),
      perfect_(params.sizeBytes == 0), stats_(params.name)
{
    if (perfect_)
        return;
    DISE_ASSERT(isPow2(params_.lineBytes), "line size must be pow2");
    DISE_ASSERT(params_.assoc > 0, "assoc must be nonzero");
    DISE_ASSERT(params_.sizeBytes %
                        (params_.lineBytes * params_.assoc) == 0,
                "size must be a multiple of line*assoc");
    numSets_ = params_.sizeBytes / (params_.lineBytes * params_.assoc);
    DISE_ASSERT(isPow2(numSets_), "set count must be pow2");
    lineShift_ = log2i(params_.lineBytes);
    tagShift_ = log2i(numSets_);
    lines_.assign(size_t(numSets_) * params_.assoc, Line());
    mru_.assign(numSets_, 0);
}

uint32_t
Cache::accessFillPath(Addr addr, bool write, uint64_t set, uint64_t tag)
{
    Line *way = &lines_[set * params_.assoc];
    Line *hit = nullptr;
    Line *victim = &way[0];
    for (uint32_t w = 0; w < params_.assoc; ++w) {
        if (way[w].valid && way[w].tag == tag) {
            hit = &way[w];
            break;
        }
        if (!way[w].valid || way[w].lastUse < victim->lastUse)
            victim = &way[w];
    }

    if (hit) {
        hit->lastUse = ++useCounter_;
        if (write)
            hit->dirty = true;
        mru_[set] = static_cast<uint32_t>(hit - way);
        return params_.hitLatency;
    }

    ++misses_;
    uint32_t latency = params_.hitLatency;
    // Write back the victim.
    if (victim->valid && victim->dirty) {
        ++writebacks_;
        if (next_) {
            const uint64_t victimLine =
                (victim->tag << log2i(numSets_)) | set;
            next_->access(victimLine * params_.lineBytes, true);
        }
    }
    // Fill from below.
    if (next_)
        latency += next_->access(addr, false);
    else
        latency += memLatency_;
    victim->valid = true;
    victim->dirty = write;
    victim->tag = tag;
    victim->lastUse = ++useCounter_;
    mru_[set] = static_cast<uint32_t>(victim - way);
    return latency;
}

bool
Cache::probe(Addr addr) const
{
    if (perfect_)
        return true;
    const uint64_t la = lineAddr(addr);
    const uint64_t set = la & (numSets_ - 1);
    const uint64_t tag = la >> log2i(numSets_);
    const Line *way = &lines_[set * params_.assoc];
    for (uint32_t w = 0; w < params_.assoc; ++w)
        if (way[w].valid && way[w].tag == tag)
            return true;
    return false;
}

void
Cache::invalidateAll()
{
    // Dropping a dirty line loses store traffic the timing stats would
    // otherwise see at the next level; count each occurrence so runs
    // that invalidate mid-stream can't silently shed writebacks.
    for (auto &line : lines_) {
        writebacksDropped_ += line.valid && line.dirty;
        line = Line();
    }
}

void
Cache::adoptState(const Cache &other)
{
    DISE_ASSERT(numSets_ == other.numSets_ &&
                    params_.assoc == other.params_.assoc &&
                    params_.lineBytes == other.params_.lineBytes &&
                    perfect_ == other.perfect_,
                "adoptState between caches of different geometry");
    lines_ = other.lines_;
    mru_ = other.mru_;
    useCounter_ = other.useCounter_;
    accesses_ = other.accesses_;
    writes_ = other.writes_;
    misses_ = other.misses_;
    writebacks_ = other.writebacks_;
    writebacksDropped_ = other.writebacksDropped_;
    stats_ = other.stats_;
}

const StatGroup &
Cache::stats() const
{
    const auto put = [this](const char *key, uint64_t value) {
        if (value)
            stats_.set(key, value);
    };
    put("accesses", accesses_);
    put("writes", writes_);
    put("misses", misses_);
    put("writebacks", writebacks_);
    put("writebacks_dropped", writebacksDropped_);
    return stats_;
}

MemHierarchy::MemHierarchy(const MemHierarchyParams &params)
    : params_(params)
{
    CacheParams l2p;
    l2p.name = "l2";
    l2p.sizeBytes = params.l2Size;
    l2p.assoc = params.l2Assoc;
    l2p.lineBytes = params.lineBytes;
    l2p.hitLatency = params.l2Latency;
    l2_ = std::make_unique<Cache>(l2p, nullptr, params.memLatency);

    CacheParams l1i;
    l1i.name = "l1i";
    l1i.sizeBytes = params.l1iSize;
    l1i.assoc = params.l1iAssoc;
    l1i.lineBytes = params.lineBytes;
    l1i.hitLatency = params.l1Latency;
    icache_ = std::make_unique<Cache>(l1i, l2_.get(), params.memLatency);

    CacheParams l1d;
    l1d.name = "l1d";
    l1d.sizeBytes = params.l1dSize;
    l1d.assoc = params.l1dAssoc;
    l1d.lineBytes = params.lineBytes;
    l1d.hitLatency = params.l1Latency;
    dcache_ = std::make_unique<Cache>(l1d, l2_.get(), params.memLatency);
}

} // namespace dise
