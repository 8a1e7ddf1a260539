#include "src/mem/memory.hpp"

#include <algorithm>
#include <cstring>

#include "src/common/logging.hpp"

namespace dise {

uint8_t *
Memory::pageDataForWriteSlow(uint64_t pn, TransEntry &entry)
{
    std::shared_ptr<Page> &slot = pages_[pn];
    if (!slot) {
        slot = std::make_shared<Page>(kPageSize, uint8_t(0));
    } else if (slot.use_count() > 1) {
        // Write fault on a shared page: clone it. Other owners keep the
        // old storage alive, so their cached read pointers stay valid.
        slot = std::make_shared<Page>(*slot);
    }
    entry.pageNum = pn;
    entry.writableNum = pn;
    entry.data = slot->data();
    return entry.data;
}

uint64_t
Memory::readSlow(Addr addr, unsigned size) const
{
    DISE_ASSERT(size == 1 || size == 2 || size == 4 || size == 8,
                "bad access size");
    const uint64_t off = addr & (kPageSize - 1);
    if (kHostLittleEndian && off + size <= kPageSize) {
        const uint8_t *page = pageData(addr);
        if (!page)
            return 0; // whole access inside an untouched page
        uint64_t value = 0;
        std::memcpy(&value, page + off, size);
        return value;
    }
    // Page-crossing (or big-endian-host) fallback: per-byte lookups.
    uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i)
        value |= static_cast<uint64_t>(readByte(addr + i)) << (8 * i);
    return value;
}

void
Memory::writeSlow(Addr addr, uint64_t value, unsigned size)
{
    DISE_ASSERT(size == 1 || size == 2 || size == 4 || size == 8,
                "bad access size");
    const uint64_t off = addr & (kPageSize - 1);
    if (kHostLittleEndian && off + size <= kPageSize) {
        std::memcpy(pageDataForWrite(addr) + off, &value, size);
        return;
    }
    for (unsigned i = 0; i < size; ++i)
        writeByte(addr + i, static_cast<uint8_t>(value >> (8 * i)));
}

void
Memory::loadProgram(const Program &prog)
{
    for (size_t i = 0; i < prog.text.size(); ++i)
        write(prog.textBase + i * 4, prog.text[i], 4);
    if (!prog.data.empty())
        writeBlock(prog.dataBase, prog.data.data(), prog.data.size());
}

void
Memory::writeBlock(Addr addr, const uint8_t *src, size_t len)
{
    while (len > 0) {
        const uint64_t off = addr & (kPageSize - 1);
        const size_t chunk =
            static_cast<size_t>(std::min<uint64_t>(len, kPageSize - off));
        std::memcpy(pageDataForWrite(addr) + off, src, chunk);
        addr += chunk;
        src += chunk;
        len -= chunk;
    }
}

uint64_t
Memory::checksum(Addr addr, uint64_t len) const
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (uint64_t i = 0; i < len; ++i) {
        hash ^= readByte(addr + i);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace dise
