/**
 * @file
 * Sparse byte-addressable memory image with little-endian multi-byte
 * accessors. Backing store is a page map, so the 64-bit address space
 * costs only what is touched.
 *
 * Pages are copy-on-write: a copied Memory shares page storage with its
 * source via shared_ptr and clones a page only when one side writes it.
 * Forking an image is O(pages touched) pointer copies; the divergent
 * state after a fork costs only the pages actually written (O(delta)).
 * A frozen source (e.g. a snapshot) is never mutated by copies taken
 * from it, so many threads may fork the same image concurrently.
 *
 * Two simulator fast paths sit in front of the page map (architectural
 * behavior is identical with or without them):
 *
 *  - A small direct-mapped page-pointer translation cache maps page
 *    numbers straight to page storage so hot accesses skip the
 *    unordered_map probe. Each entry is separately read-valid
 *    (pageNum) and write-valid (writableNum): a shared page may be
 *    read through the cache but the first write must take the slow
 *    path so it can clone. Copies/moves of a Memory reset the
 *    destination cache rather than inherit pointers into another
 *    image's pages, and copying *from* an image demotes the source's
 *    write-valid entries (its pages just became shared).
 *
 *  - read() and write() are inline for the common case: a valid width
 *    (1, 2, 4 or 8 bytes), inside one page, whose page the translation
 *    cache holds (write-valid, for a write). At a compile-time width
 *    that case is one tag compare and one host load or store, with no
 *    call. All other accesses take the out-of-line readSlow() /
 *    writeSlow(): a bad width panics, a page-crossing access
 *    decomposes into per-byte page lookups, a cache miss fills the
 *    entry (allocating an absent page, or cloning a shared one, on a
 *    write), and a big-endian host always takes the per-byte path.
 */

#ifndef DISE_MEM_MEMORY_HPP
#define DISE_MEM_MEMORY_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/assembler/program.hpp"
#include "src/isa/inst.hpp"

namespace dise {

/** Flat simulated memory. Unwritten bytes read as zero. */
class Memory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr uint64_t kPageSize = uint64_t(1) << kPageShift;

    Memory() = default;
    /**
     * Copies share the source's pages copy-on-write and never inherit
     * its cached pointers. The source's write-valid cache entries are
     * demoted (its pages are now shared); entries already demoted are
     * left untouched, so copying from a frozen snapshot performs no
     * stores on the shared object and is safe from many threads.
     */
    Memory(const Memory &other) : pages_(other.pages_)
    {
        other.demoteWritable();
    }
    Memory(Memory &&other) noexcept : pages_(std::move(other.pages_))
    {
        other.resetTranslationCache();
    }
    Memory &
    operator=(const Memory &other)
    {
        if (this != &other) {
            pages_ = other.pages_;
            resetTranslationCache();
            other.demoteWritable();
        }
        return *this;
    }
    Memory &
    operator=(Memory &&other) noexcept
    {
        if (this != &other) {
            pages_ = std::move(other.pages_);
            resetTranslationCache();
            other.resetTranslationCache();
        }
        return *this;
    }

    uint8_t
    readByte(Addr addr) const
    {
        const uint8_t *page = pageData(addr);
        return page ? page[addr & (kPageSize - 1)] : 0;
    }
    void
    writeByte(Addr addr, uint8_t value)
    {
        pageDataForWrite(addr)[addr & (kPageSize - 1)] = value;
    }

    /** Little-endian read of 1, 2, 4 or 8 bytes. */
    uint64_t
    read(Addr addr, unsigned size) const
    {
        const TransEntry &e = trans_[(addr >> kPageShift) % kTransEntries];
        if (!inlineHit(e.pageNum, addr, size))
            return readSlow(addr, size);
        uint64_t value = 0;
        std::memcpy(&value, e.data + addr % kPageSize, size);
        return value;
    }
    /** Little-endian write of 1, 2, 4 or 8 bytes. */
    void
    write(Addr addr, uint64_t value, unsigned size)
    {
        const TransEntry &e = trans_[(addr >> kPageShift) % kTransEntries];
        if (inlineHit(e.writableNum, addr, size))
            std::memcpy(e.data + addr % kPageSize, &value, size);
        else
            writeSlow(addr, value, size);
    }

    uint32_t readWord(Addr addr) const
    {
        return static_cast<uint32_t>(read(addr, 4));
    }
    uint64_t readQuad(Addr addr) const { return read(addr, 8); }

    /** Copy a program's text and data into memory. */
    void loadProgram(const Program &prog);

    /** Bulk write. */
    void writeBlock(Addr addr, const uint8_t *src, size_t len);

    /** FNV-1a checksum over [addr, addr+len); used by integration tests. */
    uint64_t checksum(Addr addr, uint64_t len) const;

    /**
     * Flip one bit: fault-injection hook. @p bit selects within the byte
     * at @p addr + bit/8 (i.e. bit indexes a little-endian bit offset
     * from @p addr).
     */
    void
    flipBit(Addr addr, unsigned bit)
    {
        const Addr byteAddr = addr + bit / 8;
        writeByte(byteAddr, readByte(byteAddr) ^ uint8_t(1u << (bit % 8)));
    }

    /** Number of distinct pages touched. */
    size_t pagesTouched() const { return pages_.size(); }

    /** Number of pages whose storage is shared with another image. */
    size_t
    pagesShared() const
    {
        size_t n = 0;
        for (const auto &kv : pages_)
            if (kv.second && kv.second.use_count() > 1)
                ++n;
        return n;
    }

  private:
    using Page = std::vector<uint8_t>;

    /**
     * Direct-mapped page-number -> page-storage translation cache.
     * pageNum validates the entry for reads; writableNum additionally
     * validates it for writes (only uniquely-owned pages may be
     * written in place).
     */
    struct TransEntry
    {
        uint64_t pageNum = ~uint64_t(0);
        uint64_t writableNum = ~uint64_t(0);
        uint8_t *data = nullptr;
    };
    static constexpr size_t kTransEntries = 64;

    /** One host memcpy matches the architected little-endian layout
     *  only on a little-endian host; others take the per-byte path. */
    static constexpr bool kHostLittleEndian =
        std::endian::native == std::endian::little;

    /**
     * Whether a @p size-byte access at @p addr finishes inline through
     * the cache entry at addr's index, whose read or write tag is
     * @p tag: a valid width on a little-endian host, and @p tag naming
     * the page of the access's last byte. A valid entry at addr's
     * index holds a page congruent to addr's modulo kTransEntries, and
     * the last byte of a valid width is at most one page further on,
     * so a match proves the whole access lies in that one cached page.
     */
    static bool
    inlineHit(uint64_t tag, Addr addr, unsigned size)
    {
        return kHostLittleEndian &&
               (size == 1 || size == 2 || size == 4 || size == 8) &&
               tag == (addr + size - 1) >> kPageShift;
    }
    /** The accesses read() and write() do not finish inline. */
    uint64_t readSlow(Addr addr, unsigned size) const;
    void writeSlow(Addr addr, uint64_t value, unsigned size);

    void
    resetTranslationCache()
    {
        trans_.fill(TransEntry());
    }

    /**
     * Drop write permission from every cache entry; reads stay cached.
     * Called on the *source* of a copy. The store is conditional so a
     * frozen image (cache already demoted or reset) is never written.
     */
    void
    demoteWritable() const
    {
        for (TransEntry &e : trans_) {
            if (e.writableNum != ~uint64_t(0))
                e.writableNum = ~uint64_t(0);
        }
    }

    /** Page storage holding @p addr, or nullptr when untouched. */
    const uint8_t *
    pageData(Addr addr) const
    {
        const uint64_t pn = addr >> kPageShift;
        TransEntry &entry = trans_[pn & (kTransEntries - 1)];
        if (entry.pageNum == pn)
            return entry.data;
        const auto it = pages_.find(pn);
        if (it == pages_.end() || !it->second)
            return nullptr; // absent pages are not cached: they may appear
        entry.pageNum = pn;
        // A uniquely-owned page may also be written through the cache;
        // a shared one must write-fault so it can be cloned first.
        entry.writableNum = it->second.use_count() == 1 ? pn : ~uint64_t(0);
        entry.data = it->second->data();
        return entry.data;
    }

    /** Page storage holding @p addr, allocated or cloned on first write. */
    uint8_t *
    pageDataForWrite(Addr addr)
    {
        const uint64_t pn = addr >> kPageShift;
        TransEntry &entry = trans_[pn & (kTransEntries - 1)];
        if (entry.writableNum == pn)
            return entry.data;
        return pageDataForWriteSlow(pn, entry);
    }

    /** Write miss: allocate an untouched page or clone a shared one. */
    uint8_t *pageDataForWriteSlow(uint64_t pn, TransEntry &entry);

    std::unordered_map<uint64_t, std::shared_ptr<Page>> pages_;
    mutable std::array<TransEntry, kTransEntries> trans_{};
};

} // namespace dise

#endif // DISE_MEM_MEMORY_HPP
