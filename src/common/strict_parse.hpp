/**
 * @file
 * Strict numeric argument parsing, shared by the tool front-ends
 * (diserun's flags, SimServer's listen port) and the bench harness.
 *
 * The whole token must parse: trailing junk and non-numeric input
 * fatal() with @p what naming the flag. The integer forms go through
 * double, so they also reject fractions ("0.5" is not a trial count)
 * while accepting exponent spellings ("1e6") that fit exactly.
 */

#ifndef DISE_COMMON_STRICT_PARSE_HPP
#define DISE_COMMON_STRICT_PARSE_HPP

#include <cstdint>
#include <string>

namespace dise {

/** A strictly positive value ("--scale 0.25"). */
double parsePositiveValue(const char *text, const std::string &what);
/** A strictly positive integer ("--jobs 4"). */
uint64_t parsePositiveInt(const char *text, const std::string &what);
/** A non-negative integer; 0 is meaningful ("--icache 0" = perfect). */
uint64_t parseNonNegativeInt(const char *text, const std::string &what);

} // namespace dise

#endif // DISE_COMMON_STRICT_PARSE_HPP
