/**
 * @file
 * Set-associative LRU caches and the two-level hierarchy used by the
 * timing model (32 KB split L1s over a unified 1 MB L2 by default,
 * matching the paper's simulated machine). A cache counts its own
 * events (accesses, writes, misses, writebacks, dropped writebacks) in
 * plain members and writes them into its StatGroup only when stats() is
 * read, so the one inline access() serves every caller.
 */

#ifndef DISE_MEM_CACHE_HPP
#define DISE_MEM_CACHE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bits.hpp"
#include "src/common/stats.hpp"
#include "src/isa/inst.hpp"

namespace dise {

/** Configuration for one cache level. */
struct CacheParams
{
    std::string name = "cache";
    /** Capacity in bytes; 0 means a perfect (always-hit) cache. */
    uint32_t sizeBytes = 32 * 1024;
    uint32_t assoc = 2;
    uint32_t lineBytes = 64;
    /** Latency of a hit in this level, in cycles. */
    uint32_t hitLatency = 1;
};

/**
 * One cache level. Write-back, write-allocate, true-LRU replacement.
 * Misses recurse into the next level (or pay the memory latency).
 */
class Cache
{
  public:
    /**
     * @param params Geometry and latency.
     * @param next Next level, or nullptr if backed directly by memory.
     * @param memLatency Latency of a memory access (used when next is
     *                   nullptr).
     */
    Cache(const CacheParams &params, Cache *next, uint32_t memLatency);

    /**
     * Access one address: write-back, write-allocate, true LRU. The
     * MRU way is probed inline; other hits and the miss path are out of
     * line (accessFillPath).
     * @param addr Byte address (the whole access is assumed to fit in
     *             one line).
     * @param write True for stores.
     * @return Total latency in cycles, including lower levels on a miss.
     */
    DISE_ALWAYS_INLINE uint32_t
    access(Addr addr, bool write)
    {
        ++accesses_;
        writes_ += write;
        if (perfect_)
            return params_.hitLatency;
        const uint64_t la = uint64_t(addr) >> lineShift_;
        const uint64_t set = la & (numSets_ - 1);
        const uint64_t tag = la >> tagShift_;
        Line *way = &lines_[set * params_.assoc];
        Line &mruLine = way[mru_[set]];
        if (mruLine.valid && mruLine.tag == tag) {
            mruLine.lastUse = ++useCounter_;
            if (write)
                mruLine.dirty = true;
            return params_.hitLatency;
        }
        return accessFillPath(addr, write, set, tag);
    }

    /** True if @p addr is resident (no state change, no stats). */
    bool probe(Addr addr) const;

    /**
     * Drop all lines. Dirty victims are NOT written back to the next
     * level; each one discarded is counted in the "writebacks_dropped"
     * stat so lost store traffic stays visible in the timing stats.
     */
    void invalidateAll();

    bool isPerfect() const { return perfect_; }
    uint32_t lineBytes() const { return params_.lineBytes; }

    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }
    double
    missRate() const
    {
        return safeRatio(double(misses()), double(accesses()));
    }

    /**
     * The event counters as a named group: each is written once it is
     * nonzero, when this is read (as DiseEngine::stats does).
     */
    const StatGroup &stats() const;

    /**
     * Adopt another cache's line/LRU/statistics state (checkpoint
     * restore). Geometry must match; the next-level link is untouched,
     * so adopting never re-wires a hierarchy.
     */
    void adoptState(const Cache &other);

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        uint64_t tag = 0;
        uint64_t lastUse = 0;
    };

    uint64_t lineAddr(Addr addr) const { return addr / params_.lineBytes; }

    /** Non-MRU hits and the whole miss path of access(). */
    uint32_t accessFillPath(Addr addr, bool write, uint64_t set,
                            uint64_t tag);

    CacheParams params_;
    Cache *next_;
    uint32_t memLatency_;
    bool perfect_;
    uint32_t numSets_ = 1;
    uint32_t lineShift_ = 0; ///< log2(lineBytes); valid when !perfect_
    uint32_t tagShift_ = 0;  ///< log2(numSets_); valid when !perfect_
    std::vector<Line> lines_; ///< numSets_ x assoc, row-major
    /**
     * Most-recently-used way per set: access() probes it before the
     * associative scan, so the common hit-the-MRU-line case exits
     * early. Purely a fast path — hit/miss/writeback accounting and LRU
     * state are identical with or without it.
     */
    std::vector<uint32_t> mru_;
    uint64_t useCounter_ = 0;
    /** @name Event counters (see stats()). */
    /// @{
    uint64_t accesses_ = 0;
    uint64_t writes_ = 0;
    uint64_t misses_ = 0;
    uint64_t writebacks_ = 0;
    uint64_t writebacksDropped_ = 0;
    /// @}
    mutable StatGroup stats_;
};

/** Configuration of the full hierarchy. */
struct MemHierarchyParams
{
    uint32_t l1iSize = 32 * 1024; ///< 0 = perfect I-cache
    uint32_t l1iAssoc = 2;
    uint32_t l1dSize = 32 * 1024;
    uint32_t l1dAssoc = 2;
    uint32_t l2Size = 1 << 20;
    uint32_t l2Assoc = 8;
    uint32_t lineBytes = 64;
    uint32_t l1Latency = 1;
    uint32_t l2Latency = 10;
    uint32_t memLatency = 100;
};

/** Split L1 I/D over a unified L2. */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const MemHierarchyParams &params);

    /** Instruction fetch of the line containing @p addr. */
    uint32_t fetchAccess(Addr addr) { return icache_->access(addr, false); }
    /** Data access. */
    uint32_t
    dataAccess(Addr addr, bool write)
    {
        return dcache_->access(addr, write);
    }

    Cache &icache() { return *icache_; }
    Cache &dcache() { return *dcache_; }
    Cache &l2() { return *l2_; }

    const MemHierarchyParams &params() const { return params_; }

    /** Adopt another (same-geometry) hierarchy's cache state. */
    void
    adoptState(const MemHierarchy &other)
    {
        l2_->adoptState(*other.l2_);
        icache_->adoptState(*other.icache_);
        dcache_->adoptState(*other.dcache_);
    }

  private:
    MemHierarchyParams params_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Cache> icache_;
    std::unique_ptr<Cache> dcache_;
};

} // namespace dise

#endif // DISE_MEM_CACHE_HPP
