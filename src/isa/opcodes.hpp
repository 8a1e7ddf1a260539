/**
 * @file
 * Opcode and opcode-class definitions for the DISE target ISA.
 *
 * The ISA is a regularized Alpha-flavoured 64-bit RISC: 32-bit fixed-width
 * instructions, 6-bit opcodes, 32 architectural integer registers, and a
 * bank of 8 DISE dedicated registers reachable only from replacement
 * sequences. The regular encoding lets the DISE pattern table match on
 * masked raw instruction bits, as Section 2.2 of the paper assumes.
 *
 * Four reserved opcodes (RES0..RES3) are set aside for aware-ACF codewords,
 * and a family of DISE-internal branches (DBEQ/DBNE/DBR/DBLT/DBGE) move the
 * DISEPC instead of the PC; these never occur in application text.
 */

#ifndef DISE_ISA_OPCODES_HPP
#define DISE_ISA_OPCODES_HPP

#include <cstdint>
#include <optional>
#include <string_view>

namespace dise {

/** A raw 32-bit instruction word. */
using Word = uint32_t;

/** Instruction opcodes; the enumerator value is the 6-bit encoding. */
enum class Opcode : uint8_t {
    NOP   = 0x00,
    // Address arithmetic (operate-style adds encoded in memory format).
    LDA   = 0x01, ///< ra <- rb + disp
    LDAH  = 0x02, ///< ra <- rb + (disp << 16)
    // Loads / stores.
    LDBU  = 0x03, ///< load byte, zero-extend
    LDL   = 0x04, ///< load 32-bit, sign-extend
    LDQ   = 0x05, ///< load 64-bit
    STB   = 0x06,
    STL   = 0x07,
    STQ   = 0x08,
    // Direct branches (branch format; target = pc + 4 + disp*4).
    BR    = 0x09, ///< unconditional, ra <- pc + 4
    BSR   = 0x0a, ///< call, ra <- pc + 4
    BEQ   = 0x0b,
    BNE   = 0x0c,
    BLT   = 0x0d,
    BLE   = 0x0e,
    BGT   = 0x0f,
    BGE   = 0x10,
    BLBC  = 0x11, ///< branch if low bit clear
    BLBS  = 0x12, ///< branch if low bit set
    // Indirect jumps (jump format).
    JMP   = 0x13, ///< ra <- pc + 4, pc <- rb
    JSR   = 0x14, ///< call through register
    RET   = 0x15, ///< return through register
    SYSCALL = 0x16, ///< OS request; function code in r0
    // Integer operate (operate format; rb or 8-bit literal).
    ADDQ  = 0x18,
    SUBQ  = 0x19,
    MULQ  = 0x1a,
    AND   = 0x1b,
    BIC   = 0x1c, ///< ra & ~rb
    OR    = 0x1d,
    ORNOT = 0x1e,
    XOR   = 0x1f,
    SLL   = 0x20,
    SRL   = 0x21,
    SRA   = 0x22,
    CMPEQ = 0x23,
    CMPLT = 0x24,
    CMPLE = 0x25,
    CMPULT = 0x26,
    CMPULE = 0x27,
    CMOVEQ = 0x28, ///< rc <- rb if ra == 0
    CMOVNE = 0x29, ///< rc <- rb if ra != 0
    // Fused internal ops (macro-op fusion ACF, src/acf/fusion). These
    // never appear in application text or assembler input: the decoder
    // synthesizes them from adjacent dependent pairs at fetch, so the
    // table marks them invalid (no encoding surface) while still giving
    // them a mnemonic and class for disassembly and timing.
    FCMPBR = 0x2a, ///< cmpXX ra,rb|#lit,rc ; bYY rc,disp
    FLDAC  = 0x2b, ///< ldah r,h(base) ; lda r,l(r)   (constant formation)
    FSHADD = 0x2c, ///< sll ra,#k,rc ; addq rc,rb,rc  (scaled index)
    FLDAL  = 0x2d, ///< lda r,d(base) ; ldX r,d2(r)   (address-formed load)
    FLDAS  = 0x2e, ///< lda r,d(base) ; stX rx,d2(r)  (address-formed store)
    FLDOP  = 0x2f, ///< ldq r,d(base) ; OP r,rx,r     (load-op)
    // Reserved opcodes: DISE codewords for aware ACFs.
    RES0  = 0x30,
    RES1  = 0x31,
    RES2  = 0x32,
    RES3  = 0x33,
    // DISE-internal branches: branch format, but the displacement moves the
    // DISEPC within the current replacement sequence, not the PC.
    DBEQ  = 0x38,
    DBNE  = 0x39,
    DBR   = 0x3a,
    DBLT  = 0x3b,
    DBGE  = 0x3c,

    NUM_OPCODES = 0x40,
};

/** Broad behavioural classes; DISE patterns can match on these. */
enum class OpClass : uint8_t {
    Nop,
    IntAlu,       ///< add/sub/logic/shift/compare/cmov/lda/ldah
    IntMult,
    Load,
    Store,
    CondBranch,   ///< conditional PC-relative branch
    UncondBranch, ///< BR
    Call,         ///< BSR
    Jump,         ///< JMP (indirect)
    CallIndirect, ///< JSR
    Return,       ///< RET
    Syscall,
    Codeword,     ///< reserved opcodes used as aware-ACF triggers
    DiseBranch,   ///< DISEPC-relative branch, replacement sequences only
    Invalid,
};

/** Encoding formats. */
enum class InstFormat : uint8_t {
    Nop,      ///< all fields ignored
    Memory,   ///< op ra, disp(rb)
    Branch,   ///< op ra, disp  (21-bit word displacement)
    Jump,     ///< op ra, (rb)
    Operate,  ///< op ra, rb|#lit, rc
    Codeword, ///< op tag, p1, p2, p3 / 15-bit immediate parameter
    Syscall,
};

/** Static properties of an opcode. */
struct OpInfo
{
    Opcode op;
    const char *mnemonic;
    InstFormat format;
    OpClass cls;
    bool valid; ///< false for holes in the opcode space
};

/** Look up static info; unassigned encodings return an invalid entry. */
const OpInfo &opInfo(Opcode op);

/** Mnemonic for an opcode ("<inv>" for invalid ones). */
const char *opName(Opcode op);

/** Parse a mnemonic; empty when unknown. */
std::optional<Opcode> opFromName(std::string_view name);

/**
 * True for the fused internal opcodes synthesized by the macro-op
 * fusion ACF. Fused ops have no encoding (opInfo(op).valid is false):
 * they exist only in synthesized DecodedInsts, so a decoded raw word
 * carrying one of these opcode bits still classifies as Invalid.
 */
inline bool
isFusedOp(Opcode op)
{
    return op >= Opcode::FCMPBR && op <= Opcode::FLDOP;
}

/** True if @p cls reads memory. */
inline bool
isLoadClass(OpClass cls)
{
    return cls == OpClass::Load;
}

/** True if @p cls writes memory. */
inline bool
isStoreClass(OpClass cls)
{
    return cls == OpClass::Store;
}

/** True for any instruction that can redirect the application PC. */
inline bool
isControlClass(OpClass cls)
{
    switch (cls) {
      case OpClass::CondBranch:
      case OpClass::UncondBranch:
      case OpClass::Call:
      case OpClass::Jump:
      case OpClass::CallIndirect:
      case OpClass::Return:
        return true;
      default:
        return false;
    }
}

/** True for indirect control transfers (target from a register). */
inline bool
isIndirectClass(OpClass cls)
{
    return cls == OpClass::Jump || cls == OpClass::CallIndirect ||
           cls == OpClass::Return;
}

/** Human-readable class name. */
const char *opClassName(OpClass cls);

} // namespace dise

#endif // DISE_ISA_OPCODES_HPP
