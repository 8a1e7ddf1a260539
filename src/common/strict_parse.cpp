#include "src/common/strict_parse.hpp"

#include <cstdlib>

#include "src/common/logging.hpp"

namespace dise {

double
parsePositiveValue(const char *text, const std::string &what)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0')
        fatal(what + ": cannot parse \"" + text + "\"");
    if (!(value > 0))
        fatal(what + ": must be > 0, got \"" + text + "\"");
    return value;
}

uint64_t
parsePositiveInt(const char *text, const std::string &what)
{
    const double value = parsePositiveValue(text, what);
    if (value != double(uint64_t(value)))
        fatal(what + ": not an integer: \"" + std::string(text) + "\"");
    return uint64_t(value);
}

uint64_t
parseNonNegativeInt(const char *text, const std::string &what)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0')
        fatal(what + ": cannot parse \"" + text + "\"");
    if (!(value >= 0))
        fatal(what + ": must be >= 0, got \"" + text + "\"");
    if (value != double(uint64_t(value)))
        fatal(what + ": not an integer: \"" + std::string(text) + "\"");
    return uint64_t(value);
}

} // namespace dise
