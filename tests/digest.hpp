/**
 * @file
 * FNV-1a digest for golden-output tests: a test feeds it everything an
 * output holds and compares the value to a constant recorded from a
 * known-good build, so any byte that moves shows.
 */

#ifndef DISE_TESTS_DIGEST_HPP
#define DISE_TESTS_DIGEST_HPP

#include <cstdint>
#include <string_view>

namespace dise {

/** FNV-1a, fed explicitly little-endian so digests match across hosts. */
class Digest
{
  public:
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(uint8_t(v >> (8 * i)));
    }
    void
    str(std::string_view s)
    {
        u64(s.size());
        for (const char c : s)
            byte(uint8_t(c));
    }
    void
    byte(uint8_t b)
    {
        h_ = (h_ ^ b) * 0x100000001b3ull;
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

} // namespace dise

#endif // DISE_TESTS_DIGEST_HPP
