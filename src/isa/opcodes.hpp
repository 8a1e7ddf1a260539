/**
 * @file
 * The op table of the DISE target ISA: every opcode's encoding,
 * mnemonic, format, class and register operands, in one row each.
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

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

/**
 * One row per opcode:
 *
 *   X(OP, encoding, mnemonic, format, class, valid, reads, writes)
 *
 * valid is false for the fused ops, which have no encoding. reads names
 * the register fields the op reads, as opread bits; writes is the
 * RegField it writes. The rows generate the Opcode enum and the
 * constexpr OpInfo table; DecodedInst's register walk (src/isa/inst.hpp)
 * reads the last two columns and nothing else.
 */
#define DISE_OPCODES(X)                                                        \
    X(NOP,     0x00, "nop",     Nop,      Nop,          true,  0,        None) \
    /* Address arithmetic: operate-style adds in memory format. */             \
    X(LDA,     0x01, "lda",     Memory,   IntAlu,       true,  Base,     Ra)   \
    X(LDAH,    0x02, "ldah",    Memory,   IntAlu,       true,  Base,     Ra)   \
    /* Loads (ldbu zero-extends, ldl sign-extends) and stores. */              \
    X(LDBU,    0x03, "ldbu",    Memory,   Load,         true,  Base,     Ra)   \
    X(LDL,     0x04, "ldl",     Memory,   Load,         true,  Base,     Ra)   \
    X(LDQ,     0x05, "ldq",     Memory,   Load,         true,  Base,     Ra)   \
    X(STB,     0x06, "stb",     Memory,   Store,        true,  Base|Ra,  None) \
    X(STL,     0x07, "stl",     Memory,   Store,        true,  Base|Ra,  None) \
    X(STQ,     0x08, "stq",     Memory,   Store,        true,  Base|Ra,  None) \
    /* Direct branches: target pc + 4 + disp * 4; br and bsr link in ra. */    \
    X(BR,      0x09, "br",      Branch,   UncondBranch, true,  0,        Ra)   \
    X(BSR,     0x0a, "bsr",     Branch,   Call,         true,  0,        Ra)   \
    X(BEQ,     0x0b, "beq",     Branch,   CondBranch,   true,  Ra,       None) \
    X(BNE,     0x0c, "bne",     Branch,   CondBranch,   true,  Ra,       None) \
    X(BLT,     0x0d, "blt",     Branch,   CondBranch,   true,  Ra,       None) \
    X(BLE,     0x0e, "ble",     Branch,   CondBranch,   true,  Ra,       None) \
    X(BGT,     0x0f, "bgt",     Branch,   CondBranch,   true,  Ra,       None) \
    X(BGE,     0x10, "bge",     Branch,   CondBranch,   true,  Ra,       None) \
    X(BLBC,    0x11, "blbc",    Branch,   CondBranch,   true,  Ra,       None) \
    X(BLBS,    0x12, "blbs",    Branch,   CondBranch,   true,  Ra,       None) \
    /* Indirect jumps: ra <- pc + 4, pc <- rb. */                              \
    X(JMP,     0x13, "jmp",     Jump,     Jump,         true,  Base,     Ra)   \
    X(JSR,     0x14, "jsr",     Jump,     CallIndirect, true,  Base,     Ra)   \
    X(RET,     0x15, "ret",     Jump,     Return,       true,  Base,     Ra)   \
    /* OS request: function code in v0, arguments in a0 and a1. */             \
    X(SYSCALL, 0x16, "syscall", Syscall,  Syscall,      true,  Sys,      None) \
    /* Integer operate: rc <- ra OP (rb or an 8-bit literal). */               \
    X(ADDQ,    0x18, "addq",    Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    X(SUBQ,    0x19, "subq",    Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    X(MULQ,    0x1a, "mulq",    Operate,  IntMult,      true,  Ra|Rb,    Rc)   \
    X(AND,     0x1b, "and",     Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    X(BIC,     0x1c, "bic",     Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    X(OR,      0x1d, "or",      Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    X(ORNOT,   0x1e, "ornot",   Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    X(XOR,     0x1f, "xor",     Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    X(SLL,     0x20, "sll",     Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    X(SRL,     0x21, "srl",     Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    X(SRA,     0x22, "sra",     Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    X(CMPEQ,   0x23, "cmpeq",   Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    X(CMPLT,   0x24, "cmplt",   Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    X(CMPLE,   0x25, "cmple",   Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    X(CMPULT,  0x26, "cmpult",  Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    X(CMPULE,  0x27, "cmpule",  Operate,  IntAlu,       true,  Ra|Rb,    Rc)   \
    /* Conditional moves: rc <- rb under a condition on ra, so they read */    \
    /* the old rc. */                                                          \
    X(CMOVEQ,  0x28, "cmoveq",  Operate,  IntAlu,       true,  Ra|Rb|Rc, Rc)   \
    X(CMOVNE,  0x29, "cmovne",  Operate,  IntAlu,       true,  Ra|Rb|Rc, Rc)   \
    /* Fused internal ops (macro-op fusion ACF, src/acf/fusion): the */        \
    /* decoder synthesizes them from adjacent dependent pairs at fetch. */     \
    /* They have no encoding (a raw word with these bits decodes Invalid), */  \
    /* only a mnemonic, class and operands for disassembly and timing. */      \
    /* fcmpbr  cmpXX ra,rb|#lit,rc ; bYY rc,disp */                            \
    X(FCMPBR,  0x2a, "fcmpbr",  Operate,  CondBranch,   false, Ra|Rb,    Rc)   \
    /* fldac   ldah r,h(base) ; lda r,l(r)  (constant formation) */            \
    X(FLDAC,   0x2b, "fldac",   Operate,  IntAlu,       false, Ra|Rb,    Rc)   \
    /* fshadd  sll ra,#k,rc ; addq rc,rb,rc  (scaled index) */                 \
    X(FSHADD,  0x2c, "fshadd",  Operate,  IntAlu,       false, Ra|Rb,    Rc)   \
    /* fldal   lda r,d(base) ; ldX r,d2(r)  (address-formed load) */           \
    X(FLDAL,   0x2d, "fldal",   Memory,   Load,         false, Base,     Ra)   \
    /* fldas   lda r,d(base) ; stX rx,d2(r)  (address-formed store) */         \
    X(FLDAS,   0x2e, "fldas",   Memory,   Store,        false, Base|Ra,  Rc)   \
    /* fldop   ldq r,d(base) ; OP r,rx,r  (load-op) */                         \
    X(FLDOP,   0x2f, "fldop",   Memory,   Load,         false, Base|Rc,  Ra)   \
    /* Reserved opcodes: DISE codewords for aware ACFs. */                     \
    X(RES0,    0x30, "res0",    Codeword, Codeword,     true,  0,        None) \
    X(RES1,    0x31, "res1",    Codeword, Codeword,     true,  0,        None) \
    X(RES2,    0x32, "res2",    Codeword, Codeword,     true,  0,        None) \
    X(RES3,    0x33, "res3",    Codeword, Codeword,     true,  0,        None) \
    /* DISE-internal branches: branch format, but the displacement moves */    \
    /* the DISEPC within the current replacement sequence. */                  \
    X(DBEQ,    0x38, "dbeq",    Branch,   DiseBranch,   true,  Ra,       None) \
    X(DBNE,    0x39, "dbne",    Branch,   DiseBranch,   true,  Ra,       None) \
    X(DBR,     0x3a, "dbr",     Branch,   DiseBranch,   true,  Ra,       None) \
    X(DBLT,    0x3b, "dblt",    Branch,   DiseBranch,   true,  Ra,       None) \
    X(DBGE,    0x3c, "dbge",    Branch,   DiseBranch,   true,  Ra,       None)

namespace dise {

/** A raw 32-bit instruction word. */
using Word = uint32_t;

/** Instruction opcodes; the enumerator value is the 6-bit encoding. */
enum class Opcode : uint8_t {
#define DISE_X(OP, code, ...) OP = code,
    DISE_OPCODES(DISE_X)
#undef DISE_X
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

/** A register field of an instruction; None names no register. */
enum class RegField : uint8_t { None, Ra, Rb, Rc };

/**
 * The register reads of an op row, as consecutive bits. The order is
 * the walk's: DecodedInst::visitSrcRegs shifts through them lowest
 * first.
 */
namespace opread {
enum : uint8_t {
    Base = 1 << 0, ///< rb as a base or jump target: read in every form
    Ra = 1 << 1,
    Rb = 1 << 2,   ///< rb, unless the operate literal form is used
    Rc = 1 << 3,
    Sys = 1 << 4,  ///< the syscall triple: v0, a0, a1
};
} // namespace opread

/** Static properties of an opcode: one row of DISE_OPCODES. */
struct OpInfo
{
    /** An array, not a pointer: the table then needs no relocations. */
    char mnemonic[8];
    Opcode op;
    InstFormat format;
    OpClass cls;
    bool valid;      ///< false for the fused ops and holes in the space
    uint8_t reads;   ///< opread bits
    RegField writes; ///< the field it writes; None when it writes none
};

/** An unassigned encoding; opInfo() of a value past the table. */
inline constexpr OpInfo kInvalidOpInfo = {"<inv>", Opcode::NUM_OPCODES,
                                          InstFormat::Nop, OpClass::Invalid,
                                          false, 0, RegField::None};

/** The op table, indexed by encoding; holes are invalid entries. */
inline constexpr std::array<OpInfo, size_t(Opcode::NUM_OPCODES)> kOpTable =
    [] {
        using namespace opread;
        std::array<OpInfo, size_t(Opcode::NUM_OPCODES)> t{};
        for (size_t i = 0; i < t.size(); ++i) {
            t[i] = kInvalidOpInfo;
            t[i].op = Opcode(i);
        }
#define DISE_X(OP, code, name, fmt, cls, valid, reads, writes)             \
        t[code] = {name, Opcode::OP, InstFormat::fmt, OpClass::cls, valid, \
                   reads, RegField::writes};
        DISE_OPCODES(DISE_X)
#undef DISE_X
        return t;
    }();

/** Look up static info; unassigned encodings return an invalid entry. */
constexpr const OpInfo &
opInfo(Opcode op)
{
    return size_t(op) < kOpTable.size() ? kOpTable[size_t(op)]
                                        : kInvalidOpInfo;
}

/** Mnemonic for an opcode ("<inv>" for invalid ones). */
constexpr const char *
opName(Opcode op)
{
    return opInfo(op).mnemonic;
}

/** Parse a mnemonic; empty when unknown. */
std::optional<Opcode> opFromName(std::string_view name);

/**
 * T.RS (paper Section 2.1): the field holding a format's primary
 * source — the memory base, the jump target, the branch or operate ra.
 * It is a field, not a read: T.RS of br/bsr is the ra they write.
 */
constexpr RegField
triggerRSField(InstFormat format)
{
    switch (format) {
      case InstFormat::Memory:
      case InstFormat::Jump:
        return RegField::Rb;
      case InstFormat::Branch:
      case InstFormat::Operate:
        return RegField::Ra;
      default:
        return RegField::None;
    }
}

/**
 * T.RT: the field holding a format's second source — the store data
 * ra, the operate rb. An instruction names it only when it reads it
 * (loads write their ra; the literal form has no rb).
 */
constexpr RegField
triggerRTField(InstFormat format)
{
    switch (format) {
      case InstFormat::Memory:
        return RegField::Ra;
      case InstFormat::Operate:
        return RegField::Rb;
      default:
        return RegField::None;
    }
}

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
