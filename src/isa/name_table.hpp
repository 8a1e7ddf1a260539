/**
 * @file
 * Lookup structure behind opFromName() and regFromName(). Every opcode
 * mnemonic and register spelling is one to eight bytes long, so a name
 * packs into one integer key: a lookup is a multiply, a shift and an
 * integer compare or two, with no string hashing and no heap.
 */

#ifndef DISE_ISA_NAME_TABLE_HPP
#define DISE_ISA_NAME_TABLE_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "src/common/logging.hpp"

namespace dise {

/** Open-addressing map from short names to @p T, 2^kLogSlots slots. */
template <typename T, unsigned kLogSlots>
class NameTable
{
  public:
    void
    add(std::string_view name, T value)
    {
        const uint64_t key = pack(name);
        DISE_ASSERT(key != 0, "name table names are 1..8 non-NUL bytes");
        ++size_;
        DISE_ASSERT(size_ <= kSlots / 2, "name table over half full");
        size_t i = home(key);
        for (; slots_[i].key != 0; i = (i + 1) % kSlots)
            DISE_ASSERT(slots_[i].key != key, "duplicate name");
        slots_[i] = {key, value};
    }

    std::optional<T>
    find(std::string_view name) const
    {
        const uint64_t key = pack(name);
        if (key == 0)
            return std::nullopt;
        for (size_t i = home(key);; i = (i + 1) % kSlots) {
            if (slots_[i].key == key)
                return slots_[i].value;
            if (slots_[i].key == 0)
                return std::nullopt;
        }
    }

  private:
    static constexpr size_t kSlots = size_t(1) << kLogSlots;

    /**
     * The bytes of @p name as one integer. Without NUL bytes the first
     * byte is nonzero, so distinct names get distinct keys; 0 (no
     * table key) for names that cannot be in a table.
     */
    static uint64_t
    pack(std::string_view name)
    {
        if (name.empty() || name.size() > 8)
            return 0;
        uint64_t key = 0;
        for (const char c : name) {
            if (c == '\0')
                return 0;
            key = key << 8 | static_cast<uint8_t>(c);
        }
        return key;
    }

    /** Fibonacci hashing: the top kLogSlots bits of key * 2^64/phi. */
    static size_t
    home(uint64_t key)
    {
        return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                   (64 - kLogSlots));
    }

    struct Slot
    {
        uint64_t key = 0; ///< 0 marks a free slot
        T value{};
    };

    std::array<Slot, kSlots> slots_{};
    size_t size_ = 0;
};

} // namespace dise

#endif // DISE_ISA_NAME_TABLE_HPP
