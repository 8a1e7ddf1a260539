/**
 * @file
 * Decoded instruction representation, field encodings, and the trigger
 * field roles (T.RS / T.RT / T.RD / T.IMM / T.P*) that DISE replacement
 * directives reference.
 *
 * Encoding formats (all 32-bit):
 *
 *   Memory:   op[31:26] ra[25:21] rb[20:16] disp[15:0]       op ra,disp(rb)
 *   Branch:   op[31:26] ra[25:21] disp[20:0]                 op ra,target
 *   Jump:     op[31:26] ra[25:21] rb[20:16] 0[15:0]          op ra,(rb)
 *   Operate:  op[31:26] ra[25:21] rb[20:16] lit[20:13]
 *             litflag[12] 0[11:5] rc[4:0]                    op ra,rb|#l,rc
 *   Codeword: op[31:26] tag[25:15] p1[14:10] p2[9:5] p3[4:0]
 *
 * Codeword parameter fields double as a single 15-bit signed immediate
 * parameter (bits [14:0]); the interpretation is chosen by the matching
 * production's directives, not by the instruction itself.
 */

#ifndef DISE_ISA_INST_HPP
#define DISE_ISA_INST_HPP

#include <bit>
#include <cstdint>

#include "src/common/bits.hpp"
#include "src/isa/opcodes.hpp"
#include "src/isa/regs.hpp"

namespace dise {

/** Virtual address type (byte addresses). */
using Addr = uint64_t;

/**
 * The timing descriptor of one instruction: its destination and up to
 * three sources, padded with the zero register (never a destination,
 * so its ready time stays 0). DecodedInst::timingRegs computes it.
 */
struct TimingRegs
{
    RegIndex dest = kZeroReg;
    RegIndex src[3] = {kZeroReg, kZeroReg, kZeroReg};

    bool operator==(const TimingRegs &) const = default;
};

static_assert(
    [] {
        for (const OpInfo &info : kOpTable) {
            const unsigned sys = info.reads & opread::Sys ? 3 : 0;
            if (std::popcount(unsigned(info.reads & ~opread::Sys)) + sys > 3)
                return false;
        }
        return true;
    }(),
    "an op row reads more registers than TimingRegs holds");

/** A decoded (or DISE-synthesized) instruction. */
struct DecodedInst
{
    Opcode op = Opcode::NOP;
    OpClass cls = OpClass::Nop;
    /** Field ra; dest for loads/lda/branch-links, source for stores. */
    RegIndex ra = 0;
    /** Field rb; base register / second operate source / jump target. */
    RegIndex rb = 0;
    /** Field rc; operate destination. */
    RegIndex rc = 0;
    /** Operate literal form (8-bit unsigned literal in imm). */
    bool useLit = false;
    /**
     * Immediate: sign-extended displacement (memory), word displacement
     * (branch), unsigned literal (operate), or 15-bit signed parameter
     * immediate (codeword).
     */
    int64_t imm = 0;
    /** Codeword replacement-sequence tag (11 bits); 0 otherwise. */
    uint16_t tag = 0;
    /** Original encoding; 0 for instructions synthesized by the IL. */
    Word raw = 0;

    bool isNop() const { return cls == OpClass::Nop; }
    bool isLoad() const { return cls == OpClass::Load; }
    bool isStore() const { return cls == OpClass::Store; }
    bool isControl() const { return isControlClass(cls); }
    bool isDiseBranch() const { return cls == OpClass::DiseBranch; }
    bool isCodeword() const { return cls == OpClass::Codeword; }

    /** Register @p f of this instruction; kZeroReg for RegField::None. */
    DISE_ALWAYS_INLINE RegIndex
    reg(RegField f) const
    {
        switch (f) {
          case RegField::Ra: return ra;
          case RegField::Rb: return rb;
          case RegField::Rc: return rc;
          default: return kZeroReg;
        }
    }

    /**
     * Call @p visit(field, reg) on each register the instruction reads,
     * in its op row's opread order, zero-register operands included (it
     * reads as 0). The syscall triple has no field: RegField::None. An
     * Invalid-class word (including a raw word with fused-op bits)
     * reads nothing. This and destReg() are the one register walk: the
     * timing model's hazard walk (through timingRegs() on the trace
     * feed), composition's scratch-register analysis and T.RT all read
     * it.
     */
    template <typename Visit>
    DISE_ALWAYS_INLINE void
    visitSrcRegs(Visit &&visit) const
    {
        if (cls == OpClass::Invalid)
            return;
        // Shift each opread bit down in turn: testing a fixed mask per
        // field made GCC spill every test result in timeBatch's loop.
        unsigned reads = opInfo(op).reads;
        if (reads & 1) // Base
            visit(RegField::Rb, rb);
        if ((reads >>= 1) & 1) // Ra
            visit(RegField::Ra, ra);
        if (((reads >>= 1) & 1) && !useLit) // Rb
            visit(RegField::Rb, rb);
        if ((reads >>= 1) & 1) // Rc
            visit(RegField::Rc, rc);
        if ((reads >>= 1) & 1) { // Sys
            visit(RegField::None, kRetReg);
            visit(RegField::None, kArg0Reg);
            visit(RegField::None, static_cast<RegIndex>(kArg0Reg + 1));
        }
    }

    /**
     * Destination register, or kZeroReg when the instruction writes
     * nothing architecturally visible.
     */
    DISE_ALWAYS_INLINE RegIndex destReg() const { return reg(rdField()); }

    /**
     * destReg() and the visitSrcRegs() walk as a TimingRegs, resolved
     * once per static instruction: translation stamps it into every
     * trace record, so the timing feed never walks the op table.
     */
    TimingRegs
    timingRegs() const
    {
        TimingRegs r;
        r.dest = destReg();
        unsigned n = 0;
        visitSrcRegs([&r, &n](RegField, RegIndex src) { r.src[n++] = src; });
        return r;
    }

    /**
     * @name Trigger field roles (paper Section 2.1).
     *
     * Each role is a field (what composition rewires) and the register
     * in it (what instantiation and pattern matching read).
     */
    /// @{
    /** T.RS: the format's primary source field (triggerRSField). */
    RegField rsField() const { return triggerRSField(opInfo(op).format); }
    /** T.RT: the format's second source field, when this reads it. */
    RegField
    rtField() const
    {
        const RegField f = triggerRTField(opInfo(op).format);
        bool read = false;
        visitSrcRegs([f, &read](RegField g, RegIndex) { read |= g == f; });
        return read ? f : RegField::None;
    }
    /** T.RD: the field the op row writes; None for an Invalid word. */
    DISE_ALWAYS_INLINE RegField
    rdField() const
    {
        return cls == OpClass::Invalid ? RegField::None : opInfo(op).writes;
    }
    RegIndex triggerRS() const { return reg(rsField()); }
    RegIndex triggerRT() const { return reg(rtField()); }
    RegIndex triggerRD() const { return reg(rdField()); }
    /// @}

    /** Direct-branch target for a trigger fetched at @p pc. */
    Addr
    branchTarget(Addr pc) const
    {
        return pc + 4 + static_cast<uint64_t>(imm) * 4;
    }

    bool operator==(const DecodedInst &other) const;
};

/** Decode a raw word. Invalid encodings yield cls == OpClass::Invalid. */
DecodedInst decode(Word word);

/**
 * Re-encode a decoded instruction.
 * Panics if a field does not fit (e.g. a dedicated register in an
 * application encoding, or an out-of-range displacement).
 */
Word encode(const DecodedInst &inst);

/** @name Encoding constructors. */
/// @{
Word makeNop();
Word makeMemory(Opcode op, RegIndex ra, RegIndex rb, int64_t disp);
Word makeBranch(Opcode op, RegIndex ra, int64_t wordDisp);
Word makeJump(Opcode op, RegIndex ra, RegIndex rb);
Word makeOperate(Opcode op, RegIndex ra, RegIndex rb, RegIndex rc);
Word makeOperateImm(Opcode op, RegIndex ra, uint8_t lit, RegIndex rc);
Word makeCodeword(Opcode op, uint16_t tag, uint8_t p1, uint8_t p2,
                  uint8_t p3);
Word makeCodewordImm(Opcode op, uint16_t tag, int64_t imm15);
Word makeSyscall();
/// @}

/** Maximum codeword tag value (11-bit field). */
constexpr uint16_t kMaxCodewordTag = 0x7ff;

} // namespace dise

#endif // DISE_ISA_INST_HPP
