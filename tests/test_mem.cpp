/**
 * @file
 * Memory image and cache tests: sparse memory semantics, LRU
 * replacement, associativity, write-back traffic, the perfect-cache
 * mode, and the two-level hierarchy.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <map>
#include <random>
#include <vector>

#include "src/assembler/assembler.hpp"
#include "src/common/logging.hpp"
#include "src/mem/cache.hpp"
#include "src/mem/memory.hpp"

namespace dise {
namespace {

TEST(Memory, UnwrittenReadsZero)
{
    Memory mem;
    EXPECT_EQ(mem.read(0x12345678, 8), 0u);
    EXPECT_EQ(mem.pagesTouched(), 0u);
}

TEST(Memory, ByteReadWrite)
{
    Memory mem;
    mem.writeByte(100, 0xab);
    EXPECT_EQ(mem.readByte(100), 0xab);
    EXPECT_EQ(mem.readByte(101), 0);
}

TEST(Memory, LittleEndianMultiByte)
{
    Memory mem;
    mem.write(0x1000, 0x1122334455667788ULL, 8);
    EXPECT_EQ(mem.readByte(0x1000), 0x88);
    EXPECT_EQ(mem.readByte(0x1007), 0x11);
    EXPECT_EQ(mem.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(mem.read(0x1004, 4), 0x11223344u);
}

TEST(Memory, CrossPageAccess)
{
    Memory mem;
    const Addr addr = Memory::kPageSize - 4;
    mem.write(addr, 0xdeadbeefcafef00dULL, 8);
    EXPECT_EQ(mem.read(addr, 8), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(mem.pagesTouched(), 2u);
}

TEST(Memory, LoadProgram)
{
    const Program prog = assemble(
        ".text\n    nop\n    syscall\n.data\nx:\n    .quad 42\n");
    Memory mem;
    mem.loadProgram(prog);
    EXPECT_EQ(mem.readWord(prog.textBase + 4), prog.text[1]);
    EXPECT_EQ(mem.readQuad(prog.symbol("x")), 42u);
}

TEST(Memory, ChecksumDetectsChanges)
{
    Memory mem;
    const uint64_t empty = mem.checksum(0, 64);
    mem.writeByte(10, 1);
    EXPECT_NE(mem.checksum(0, 64), empty);
}

CacheParams
smallCache(uint32_t sizeBytes, uint32_t assoc)
{
    CacheParams params;
    params.name = "test";
    params.sizeBytes = sizeBytes;
    params.assoc = assoc;
    params.lineBytes = 64;
    params.hitLatency = 1;
    return params;
}

TEST(Cache, HitAfterFill)
{
    Cache cache(smallCache(1024, 2), nullptr, 100);
    EXPECT_GT(cache.access(0, false), 1u); // cold miss
    EXPECT_EQ(cache.access(0, false), 1u); // hit
    EXPECT_EQ(cache.access(63, false), 1u); // same line
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.accesses(), 3u);
}

TEST(Cache, MissLatencyIncludesMemory)
{
    Cache cache(smallCache(1024, 2), nullptr, 100);
    EXPECT_EQ(cache.access(0, false), 101u);
}

TEST(Cache, LruReplacementWithinSet)
{
    // 2-way, 8 sets: lines 0, 8, 16 map to set 0.
    Cache cache(smallCache(1024, 2), nullptr, 100);
    cache.access(0 * 64 * 8, false);
    cache.access(1 * 64 * 8 , false);
    cache.access(0, false);              // touch line 0 (now MRU)
    cache.access(2 * 64 * 8, false);     // evicts line at 8*64
    EXPECT_TRUE(cache.probe(0));
    EXPECT_FALSE(cache.probe(64 * 8));
    EXPECT_TRUE(cache.probe(2 * 64 * 8));
}

TEST(Cache, DirectMappedConflicts)
{
    Cache cache(smallCache(512, 1), nullptr, 100); // 8 sets
    cache.access(0, false);
    cache.access(64 * 8, false); // same set, evicts
    EXPECT_FALSE(cache.probe(0));
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, CapacityHoldsWorkingSet)
{
    // 4KB, 2-way: 64 lines; a 32-line working set must all stick.
    Cache cache(smallCache(4096, 2), nullptr, 100);
    for (int round = 0; round < 3; ++round)
        for (int i = 0; i < 32; ++i)
            cache.access(uint64_t(i) * 64, false);
    EXPECT_EQ(cache.misses(), 32u); // cold only
}

TEST(Cache, WritebackOnDirtyEviction)
{
    Cache l2(smallCache(4096, 2), nullptr, 100);
    Cache l1(smallCache(512, 1), &l2, 100);
    l1.access(0, true);       // dirty
    l1.access(64 * 8, false); // evicts dirty line -> writeback to L2
    EXPECT_EQ(l1.stats().get("writebacks"), 1u);
    EXPECT_GE(l2.stats().get("writes"), 1u);
}

TEST(Cache, PerfectCacheNeverMisses)
{
    CacheParams params = smallCache(0, 1);
    Cache cache(params, nullptr, 100);
    for (uint64_t a = 0; a < 100; ++a)
        EXPECT_EQ(cache.access(a * 4096, false), params.hitLatency);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_TRUE(cache.probe(0xdeadbeef));
}

TEST(Cache, InvalidateAll)
{
    Cache cache(smallCache(1024, 2), nullptr, 100);
    cache.access(0, false);
    cache.invalidateAll();
    EXPECT_FALSE(cache.probe(0));
}

TEST(Cache, InvalidateAllCountsDroppedWritebacks)
{
    // Dirty lines discarded by invalidateAll are lost store traffic;
    // the cache must account for them instead of dropping silently.
    Cache cache(smallCache(1024, 2), nullptr, 100);
    cache.access(0, true);    // dirty
    cache.access(64, true);   // dirty
    cache.access(128, false); // clean
    cache.invalidateAll();
    EXPECT_EQ(cache.stats().get("writebacks_dropped"), 2u);
    EXPECT_EQ(cache.stats().get("writebacks"), 0u); // not real writebacks
    // Nothing dirty remains: a second invalidate adds nothing.
    cache.invalidateAll();
    EXPECT_EQ(cache.stats().get("writebacks_dropped"), 2u);
}

TEST(Cache, MissRate)
{
    Cache cache(smallCache(1024, 2), nullptr, 100);
    cache.access(0, false);
    cache.access(0, false);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.5);
}

TEST(Hierarchy, L2BacksBothL1s)
{
    MemHierarchyParams params;
    params.l1iSize = 1024;
    params.l1dSize = 1024;
    params.l2Size = 64 * 1024;
    MemHierarchy mem(params);
    // I-fetch warms L2; a D-access to the same line hits in L2.
    const uint32_t cold = mem.fetchAccess(0x4000);
    EXPECT_EQ(cold, 1u + 10u + 100u);
    const uint32_t dmiss = mem.dataAccess(0x4000, false);
    EXPECT_EQ(dmiss, 1u + 10u); // L1 miss, L2 hit
    EXPECT_EQ(mem.dataAccess(0x4000, false), 1u);
}

TEST(Hierarchy, PerfectICacheConfig)
{
    MemHierarchyParams params;
    params.l1iSize = 0;
    MemHierarchy mem(params);
    EXPECT_EQ(mem.fetchAccess(0x123456), params.l1Latency);
    EXPECT_TRUE(mem.icache().isPerfect());
}

/**
 * Differential test for the in-page memcpy and page-pointer translation
 * fast paths: every multi-byte access must behave exactly like a
 * byte-at-a-time loop, including page-crossing and unaligned accesses
 * and pages whose numbers collide in the direct-mapped translation
 * cache (multiples of 64 pages apart).
 */
TEST(Memory, RandomizedDifferentialVsByteModel)
{
    std::mt19937_64 rng(0xd15ec0de);
    Memory mem;
    std::map<Addr, uint8_t> ref; // unwritten bytes read as zero

    // Address pool deliberately stresses the fast-path edge cases:
    // page-boundary straddles, odd alignments, and translation-cache
    // aliasing pairs (page numbers differing by multiples of 64).
    const uint64_t basePages[] = {3, 3 + 64, 3 + 128, 7, 7 + 64,
                                  1000, 1000 + 192};
    std::vector<Addr> pool;
    for (uint64_t pn : basePages) {
        const Addr page = pn << Memory::kPageShift;
        for (int d = -9; d <= 9; ++d)
            pool.push_back(page + Memory::kPageSize / 2 + d);
        for (int d = -9; d < 9; ++d)
            pool.push_back(page + ((d < 0) ? Memory::kPageSize + d : d));
    }

    const unsigned sizes[] = {1, 2, 4, 8};
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = pool[rng() % pool.size()];
        const unsigned size = sizes[rng() % 4];
        if (rng() & 1) {
            const uint64_t value = rng();
            mem.write(addr, value, size);
            for (unsigned b = 0; b < size; ++b)
                ref[addr + b] = uint8_t(value >> (8 * b));
        } else {
            uint64_t expect = 0;
            for (unsigned b = 0; b < size; ++b) {
                const auto it = ref.find(addr + b);
                const uint8_t byte = (it == ref.end()) ? 0 : it->second;
                expect |= uint64_t(byte) << (8 * b);
            }
            ASSERT_EQ(mem.read(addr, size), expect)
                << "addr 0x" << std::hex << addr << " size " << size;
        }
    }

    // Full sweep: the byte accessors and the multi-byte accessors must
    // agree with the reference model everywhere it has state.
    for (const auto &[addr, byte] : ref)
        ASSERT_EQ(mem.readByte(addr), byte);
}

TEST(Memory, TranslationCacheAliasingPages)
{
    // kTransEntries = 64: page numbers 5 and 69 share a cache slot.
    Memory mem;
    const Addr a = Addr(5) << Memory::kPageShift;
    const Addr b = Addr(5 + 64) << Memory::kPageShift;
    mem.write(a, 0x1111111111111111ULL, 8);
    mem.write(b, 0x2222222222222222ULL, 8);
    // Ping-pong: each access evicts the other page's translation.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(mem.read(a, 8), 0x1111111111111111ULL);
        EXPECT_EQ(mem.read(b, 8), 0x2222222222222222ULL);
    }
    // A write through a re-filled translation entry must land.
    mem.write(a + 16, 0x33, 1);
    EXPECT_EQ(mem.read(b + 16, 1), 0u);
    EXPECT_EQ(mem.read(a + 16, 1), 0x33u);
}

TEST(Memory, InvalidWidthPanics)
{
    // The width check sits on the out-of-line slow path. The inline
    // path must route every bad width there, including an in-page
    // access to a page the translation cache holds write-valid.
    Memory mem;
    const Addr page = Addr(9) << Memory::kPageShift;
    mem.write(page, 0x1122334455667788ULL, 8);
    const Addr inPage = page + 64;
    const Addr crossing = page + Memory::kPageSize - 2;
    for (const unsigned size : {0u, 3u, 5u, 16u}) {
        for (const Addr addr : {inPage, crossing}) {
            EXPECT_THROW(mem.read(addr, size), PanicError)
                << "read size " << size << " at 0x" << std::hex << addr;
            EXPECT_THROW(mem.write(addr, 0, size), PanicError)
                << "write size " << size << " at 0x" << std::hex << addr;
        }
    }
    EXPECT_EQ(mem.read(page, 8), 0x1122334455667788ULL);
}

TEST(Memory, AccessWrappingTheAddressSpace)
{
    // The last bytes of the address space and page 0 share no
    // translation-cache entry, so a wrapping access must take the
    // per-byte path even with both pages cached.
    Memory mem;
    const Addr top = ~Addr(0) - 3;
    mem.write(0, 0, 8);
    mem.write(top - 8, 0, 8);
    mem.write(top, 0x8877665544332211ULL, 8);
    EXPECT_EQ(mem.read(top, 8), 0x8877665544332211ULL);
    EXPECT_EQ(mem.readByte(~Addr(0)), 0x44);
    EXPECT_EQ(mem.read(0, 4), 0x88776655u);
}

/** Plain associative-LRU write-back model, no MRU shortcut. */
struct RefLruCache
{
    struct Line
    {
        uint64_t tag;
        bool dirty;
    };
    uint32_t numSets, assoc, lineBytes;
    std::vector<std::list<Line>> sets; // front = MRU, back = LRU
    uint64_t accesses = 0, misses = 0, writebacks = 0;

    RefLruCache(uint32_t sizeBytes, uint32_t assoc_, uint32_t lineBytes_)
        : numSets(sizeBytes / (lineBytes_ * assoc_)), assoc(assoc_),
          lineBytes(lineBytes_), sets(numSets)
    {
    }

    void
    access(Addr addr, bool write)
    {
        ++accesses;
        const uint64_t la = addr / lineBytes;
        auto &set = sets[la % numSets];
        const uint64_t tag = la / numSets;
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->tag == tag) {
                it->dirty |= write;
                set.splice(set.begin(), set, it);
                return;
            }
        }
        ++misses;
        if (set.size() == assoc) {
            if (set.back().dirty)
                ++writebacks;
            set.pop_back();
        }
        set.push_front({tag, write});
    }
};

/**
 * The MRU-first probe in Cache::access is a pure lookup shortcut: hit,
 * miss, and writeback counts must match a reference LRU model with no
 * such shortcut on any access stream.
 */
TEST(Cache, MruShortcutStatsMatchReferenceLru)
{
    Cache cache(smallCache(2048, 4), nullptr, 100);
    RefLruCache ref(2048, 4, 64);

    std::mt19937_64 rng(0xcac4e);
    for (int i = 0; i < 50000; ++i) {
        Addr addr;
        if (rng() % 3 == 0) {
            addr = rng() % (16 * 1024); // conflict-heavy near range
        } else {
            // Bursty reuse: hammer one line to exercise the MRU probe.
            addr = (rng() % 8) * 64 + (rng() % 64);
        }
        const bool write = (rng() % 4) == 0;
        cache.access(addr, write);
        ref.access(addr, write);
    }

    EXPECT_EQ(cache.accesses(), ref.accesses);
    EXPECT_EQ(cache.misses(), ref.misses);
    EXPECT_EQ(cache.stats().get("writebacks"), ref.writebacks);
}

// ---- Copy-on-write forks and translation-cache coherence ----

/**
 * operator= adopts the source's pages; the destination's previously
 * cached page pointers reference its OLD image and must be dropped, in
 * both directions and for move-assignment too (the moved-from map's
 * storage is gone entirely).
 */
TEST(Memory, AssignmentInvalidatesTranslationCache)
{
    Memory a, b;
    a.write(0x5000, 0x1111, 8); // cache a's page 5 translation
    b.write(0x5000, 0x2222, 8); // cache b's page 5 translation
    ASSERT_EQ(a.read(0x5000, 8), 0x1111u);

    a = b; // a's cached pointer into its old page 5 is now stale
    EXPECT_EQ(a.read(0x5000, 8), 0x2222u);

    // Writes through a stale write-valid entry must not reach b.
    a.write(0x5000, 0x3333, 8);
    EXPECT_EQ(a.read(0x5000, 8), 0x3333u);
    EXPECT_EQ(b.read(0x5000, 8), 0x2222u);

    Memory c;
    c.write(0x5000, 0x4444, 8);
    c = std::move(b);
    EXPECT_EQ(c.read(0x5000, 8), 0x2222u);
    // The moved-from image is empty and its cache reset: accesses are
    // safe and see an untouched image.
    EXPECT_EQ(b.read(0x5000, 8), 0u);
    b.write(0x5000, 1, 1);
    EXPECT_EQ(b.read(0x5000, 1), 1u);
}

TEST(Memory, CopyConstructionInvalidatesTranslationCache)
{
    Memory a;
    a.write(0x7008, 0xabcd, 8); // warm a's cache (write-valid entry)
    Memory b(a);                // page 7 now shared
    // The source's write-valid entry was demoted: this write must
    // clone, not scribble on the shared page.
    a.write(0x7008, 0xef01, 8);
    EXPECT_EQ(a.read(0x7008, 8), 0xef01u);
    EXPECT_EQ(b.read(0x7008, 8), 0xabcdu);

    Memory d(std::move(a));
    EXPECT_EQ(d.read(0x7008, 8), 0xef01u);
    EXPECT_EQ(a.read(0x7008, 8), 0u); // moved-from: empty, cache reset
}

/** Write-after-fork isolation in both directions, including pages that
 *  alias in the translation cache and pages touched only post-fork. */
TEST(Memory, CowForkWriteIsolationBothDirections)
{
    Memory parent;
    const Addr pa = Addr(5) << Memory::kPageShift;
    const Addr pb = Addr(5 + 64) << Memory::kPageShift; // aliases pa
    parent.write(pa, 0x1111, 8);
    parent.write(pb, 0x2222, 8);

    Memory child(parent);
    EXPECT_EQ(child.read(pa, 8), 0x1111u);

    // Parent writes must not appear in the child...
    parent.write(pa, 0xAAAA, 8);
    EXPECT_EQ(parent.read(pa, 8), 0xAAAAu);
    EXPECT_EQ(child.read(pa, 8), 0x1111u);
    // ...and child writes must not appear in the parent.
    child.write(pb, 0xBBBB, 8);
    EXPECT_EQ(child.read(pb, 8), 0xBBBBu);
    EXPECT_EQ(parent.read(pb, 8), 0x2222u);

    // Pages allocated after the fork are private from birth.
    child.write(0x9000, 0xCC, 1);
    EXPECT_EQ(parent.read(0x9000, 1), 0u);
    parent.write(0xA000, 0xDD, 1);
    EXPECT_EQ(child.read(0xA000, 1), 0u);
}

/**
 * Randomized differential: a COW fork must be indistinguishable from a
 * deep copy under any interleaving of reads and writes on both images
 * — byte-exact against independent reference models, with fork points
 * mid-stream so forks inherit warm translation caches.
 */
TEST(Memory, RandomizedCowForkVsDeepCopyModel)
{
    std::mt19937_64 rng(0xf0c0f0c0);
    Memory images[2];
    std::map<Addr, uint8_t> ref[2]; // per-image byte model

    // Aliasing-prone pool, as in RandomizedDifferentialVsByteModel.
    const uint64_t basePages[] = {3, 3 + 64, 9, 9 + 128, 500};
    std::vector<Addr> pool;
    for (uint64_t pn : basePages) {
        const Addr page = pn << Memory::kPageShift;
        for (int d = -9; d <= 9; ++d)
            pool.push_back(page + Memory::kPageSize / 2 + d);
        pool.push_back(page);
        pool.push_back(page + Memory::kPageSize - 8);
    }

    const unsigned sizes[] = {1, 2, 4, 8};
    for (int i = 0; i < 30000; ++i) {
        const int which = int(rng() & 1);
        const Addr addr = pool[rng() % pool.size()];
        const unsigned size = sizes[rng() % 4];
        const uint64_t action = rng() % 100;
        if (action < 2) {
            // Fork one image over the other (both directions occur).
            images[which] = images[which ^ 1];
            ref[which] = ref[which ^ 1];
        } else if (action < 50) {
            const uint64_t value = rng();
            images[which].write(addr, value, size);
            for (unsigned b = 0; b < size; ++b)
                ref[which][addr + b] = uint8_t(value >> (8 * b));
        } else {
            uint64_t expect = 0;
            for (unsigned b = 0; b < size; ++b) {
                const auto it = ref[which].find(addr + b);
                expect |= uint64_t(it == ref[which].end() ? 0 : it->second)
                          << (8 * b);
            }
            ASSERT_EQ(images[which].read(addr, size), expect)
                << "image " << which << " addr 0x" << std::hex << addr
                << " size " << size << " iter " << std::dec << i;
        }
    }
    for (int which = 0; which < 2; ++which)
        for (const auto &[addr, byte] : ref[which])
            ASSERT_EQ(images[which].readByte(addr), byte) << which;
}

TEST(Hierarchy, GeometryValidation)
{
    CacheParams bad = smallCache(1000, 3); // not line*assoc multiple
    EXPECT_THROW((void)Cache(bad, nullptr, 100), PanicError);
}

} // namespace
} // namespace dise
