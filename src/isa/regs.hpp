/**
 * @file
 * Register-space definitions: 32 architectural registers plus 8 DISE
 * dedicated registers that only replacement sequences can name.
 */

#ifndef DISE_ISA_REGS_HPP
#define DISE_ISA_REGS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dise {

/** Logical register index (architectural 0..31, dedicated 32..39). */
using RegIndex = uint8_t;

constexpr unsigned kNumArchRegs = 32;
constexpr unsigned kNumDiseRegs = 8;
constexpr unsigned kNumLogicalRegs = kNumArchRegs + kNumDiseRegs;

/** The architectural zero register (Alpha r31). */
constexpr RegIndex kZeroReg = 31;
/** Stack pointer (Alpha r30). */
constexpr RegIndex kSpReg = 30;
/** Conventional return-address register (Alpha r26). */
constexpr RegIndex kRaReg = 26;
/** First argument register (Alpha a0 = r16). */
constexpr RegIndex kArg0Reg = 16;
/** Return-value register (Alpha v0 = r0). */
constexpr RegIndex kRetReg = 0;

/** First DISE dedicated register ($dr0). */
constexpr RegIndex kDiseRegBase = kNumArchRegs;

/** True for a DISE dedicated register index. */
constexpr bool
isDiseReg(RegIndex r)
{
    return r >= kDiseRegBase && r < kNumLogicalRegs;
}

/** True for an index an application instruction could encode. */
constexpr bool
isArchReg(RegIndex r)
{
    return r < kNumArchRegs;
}

/**
 * Canonical register name: the ABI alias for architectural registers
 * (v0, t0..t11, s0..s5, fp, a0..a5, ra, at, gp, sp, zero) and $drN for
 * dedicated ones.
 */
std::string regName(RegIndex r);

/**
 * Parse a register name. Accepts rN, $N, ABI aliases, and $drN.
 * @return Empty optional for unknown names.
 */
std::optional<RegIndex> regFromName(std::string_view name);

} // namespace dise

#endif // DISE_ISA_REGS_HPP
