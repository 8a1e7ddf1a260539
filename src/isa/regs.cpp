#include "src/isa/regs.hpp"

#include <array>
#include <cctype>

#include "src/common/logging.hpp"
#include "src/isa/name_table.hpp"

namespace dise {

namespace {

const std::array<const char *, kNumArchRegs> kAliases = {
    "v0", "t0", "t1", "t2", "t3", "t4", "t5", "t6",
    "t7", "s0", "s1", "s2", "s3", "s4", "s5", "fp",
    "a0", "a1", "a2", "a3", "a4", "a5", "t8", "t9",
    "t10", "t11", "ra", "t12", "at", "gp", "sp", "zero",
};

} // namespace

std::string
regName(RegIndex r)
{
    if (isArchReg(r))
        return kAliases[r];
    if (isDiseReg(r))
        return "$dr" + std::to_string(r - kDiseRegBase);
    return "<badreg>";
}

std::optional<RegIndex>
regFromName(std::string_view name)
{
    static const NameTable<RegIndex, 8> byName = [] {
        NameTable<RegIndex, 8> t;
        for (unsigned i = 0; i < kNumArchRegs; ++i) {
            t.add(kAliases[i], static_cast<RegIndex>(i));
            t.add("r" + std::to_string(i), static_cast<RegIndex>(i));
            t.add("$" + std::to_string(i), static_cast<RegIndex>(i));
        }
        for (unsigned i = 0; i < kNumDiseRegs; ++i) {
            t.add("$dr" + std::to_string(i),
                  static_cast<RegIndex>(kDiseRegBase + i));
            t.add("dr" + std::to_string(i),
                  static_cast<RegIndex>(kDiseRegBase + i));
        }
        return t;
    }();
    return byName.find(name);
}

} // namespace dise
