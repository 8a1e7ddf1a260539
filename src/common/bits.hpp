/**
 * @file
 * Bit-manipulation utilities shared by the ISA, DISE engine and caches,
 * plus the force-inline attribute of the per-instruction hot paths.
 */

#ifndef DISE_COMMON_BITS_HPP
#define DISE_COMMON_BITS_HPP

#include <cstdint>
#include <type_traits>

/**
 * Force inlining of a small hot-path helper whose caller keeps its state
 * in locals: one out-of-line call would make that state escape to
 * memory. Plain `inline` elsewhere (and on non-GNU compilers).
 */
#if defined(__GNUC__)
#define DISE_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define DISE_ALWAYS_INLINE inline
#endif

namespace dise {

/**
 * Extract the bit field [lo, lo+width) from a value.
 *
 * @param value Source word.
 * @param lo Least-significant bit of the field.
 * @param width Field width in bits (1..64).
 * @return The field, right-justified and zero-extended.
 */
constexpr uint64_t
bits(uint64_t value, unsigned lo, unsigned width)
{
    if (width >= 64)
        return value >> lo;
    return (value >> lo) & ((uint64_t(1) << width) - 1);
}

/**
 * Insert a field into a word at [lo, lo+width), replacing the old contents.
 */
constexpr uint64_t
insertBits(uint64_t word, unsigned lo, unsigned width, uint64_t field)
{
    const uint64_t mask =
        (width >= 64) ? ~uint64_t(0) : ((uint64_t(1) << width) - 1);
    return (word & ~(mask << lo)) | ((field & mask) << lo);
}

/**
 * Sign-extend the low @p width bits of a value to 64 bits.
 */
constexpr int64_t
signExtend(uint64_t value, unsigned width)
{
    if (width == 0 || width >= 64)
        return static_cast<int64_t>(value);
    const uint64_t sign = uint64_t(1) << (width - 1);
    const uint64_t masked = value & ((uint64_t(1) << width) - 1);
    return static_cast<int64_t>((masked ^ sign) - sign);
}

/** True if @p value fits in a @p width-bit signed field. */
constexpr bool
fitsSigned(int64_t value, unsigned width)
{
    if (width >= 64)
        return true;
    const int64_t lo = -(int64_t(1) << (width - 1));
    const int64_t hi = (int64_t(1) << (width - 1)) - 1;
    return value >= lo && value <= hi;
}

/** True if @p value fits in a @p width-bit unsigned field. */
constexpr bool
fitsUnsigned(uint64_t value, unsigned width)
{
    if (width >= 64)
        return true;
    return value < (uint64_t(1) << width);
}

/** Integer base-2 logarithm (value must be a power of two). */
constexpr unsigned
log2i(uint64_t value)
{
    unsigned n = 0;
    while (value > 1) {
        value >>= 1;
        ++n;
    }
    return n;
}

/** True if @p value is a (nonzero) power of two. */
constexpr bool
isPow2(uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** Count of set bits. */
constexpr unsigned
popCount(uint64_t value)
{
    unsigned n = 0;
    while (value) {
        value &= value - 1;
        ++n;
    }
    return n;
}

} // namespace dise

#endif // DISE_COMMON_BITS_HPP
