/**
 * @file
 * Single-source instruction semantics: every operate result, conditional
 * move condition, address-arithmetic result, and load/store width and
 * extension of the ISA, each written exactly once.
 *
 * The tables are X-macros. One row per op expands into every tier that
 * interprets the ISA: ExecCore::execute (the step() oracle), the fused
 * executor, and the translated interpreter (runChain), once for block
 * slots and once for the lowered slots of replacement sequences. The
 * dispatch handlers (OpHandler, src/sim/trace.hpp) and runChain's
 * handler table are generated from the same rows, so an op's behaviour
 * changes in one row here. A row expression is written over the
 * operand names its consumer binds:
 *
 *   a  the ra value
 *   b  the rb value or operate literal (address ops: the base rb value)
 *   d  the sign-extended displacement (address ops)
 *
 * The functions below serve consumers whose opcode is a run-time value
 * (the fused ops carry their constituent opcodes in the tag field).
 */

#ifndef DISE_ISA_SEMANTICS_HPP
#define DISE_ISA_SEMANTICS_HPP

#include <cstdint>

#include "src/common/bits.hpp"
#include "src/isa/opcodes.hpp"

/** Address arithmetic: X(Handler, OPCODE, ra result over b and d). */
#define DISE_ADDR_OPS(X)                                                    \
    X(Lda, LDA, b + d)                                                      \
    X(Ldah, LDAH, b + (d << 16))

/** Operate ops: X(Handler, OPCODE, rc result over a and b). */
#define DISE_OPERATE_OPS(X)                                                 \
    X(Addq, ADDQ, a + b)                                                    \
    X(Subq, SUBQ, a - b)                                                    \
    X(Mulq, MULQ, a * b)                                                    \
    X(And, AND, a & b)                                                      \
    X(Bic, BIC, a & ~b)                                                     \
    X(Or, OR, a | b)                                                        \
    X(Ornot, ORNOT, a | ~b)                                                 \
    X(Xor, XOR, a ^ b)                                                      \
    X(Sll, SLL, a << (b & 63))                                              \
    X(Srl, SRL, a >> (b & 63))                                              \
    X(Sra, SRA, static_cast<uint64_t>(static_cast<int64_t>(a) >> (b & 63))) \
    X(Cmpeq, CMPEQ, uint64_t(a == b))                                       \
    X(Cmplt, CMPLT,                                                         \
      uint64_t(static_cast<int64_t>(a) < static_cast<int64_t>(b)))          \
    X(Cmple, CMPLE,                                                         \
      uint64_t(static_cast<int64_t>(a) <= static_cast<int64_t>(b)))         \
    X(Cmpult, CMPULT, uint64_t(a < b))                                      \
    X(Cmpule, CMPULE, uint64_t(a <= b))

/** Conditional moves: X(Handler, OPCODE, condition over a); rc <- b. */
#define DISE_CMOV_OPS(X)                                                    \
    X(Cmoveq, CMOVEQ, a == 0)                                               \
    X(Cmovne, CMOVNE, a != 0)

/** Loads: X(Handler, OPCODE, width in bytes, sign-extended). */
#define DISE_LOAD_OPS(X)                                                    \
    X(Ldbu, LDBU, 1, false)                                                 \
    X(Ldl, LDL, 4, true)                                                    \
    X(Ldq, LDQ, 8, false)

/** Stores: X(Handler, OPCODE, width in bytes). */
#define DISE_STORE_OPS(X)                                                   \
    X(Stb, STB, 1)                                                          \
    X(Stl, STL, 4)                                                          \
    X(Stq, STQ, 8)

namespace dise {

/** Register value of a @p width-byte load from the raw bytes it read. */
constexpr uint64_t
loadExtend(uint64_t raw, unsigned width, bool signExtended)
{
    return signExtended ? static_cast<uint64_t>(signExtend(raw, 8 * width))
                        : raw;
}

/** Result of operate op @p op (0 for any other opcode). */
constexpr uint64_t
operateResult(Opcode op, uint64_t a, uint64_t b)
{
    switch (op) {
#define DISE_X(name, OP, expr)                                              \
      case Opcode::OP:                                                      \
        return expr;
        DISE_OPERATE_OPS(DISE_X)
#undef DISE_X
      default:
        return 0;
    }
}

/** Access width in bytes of load or store @p op (0 for other opcodes). */
constexpr unsigned
memWidth(Opcode op)
{
    switch (op) {
#define DISE_X(name, OP, width, signExtended)                               \
      case Opcode::OP:                                                      \
        return width;
        DISE_LOAD_OPS(DISE_X)
#undef DISE_X
#define DISE_X(name, OP, width)                                             \
      case Opcode::OP:                                                      \
        return width;
        DISE_STORE_OPS(DISE_X)
#undef DISE_X
      default:
        return 0;
    }
}

/** Register value load @p op delivers from the raw bytes it read. */
constexpr uint64_t
loadValue(Opcode op, uint64_t raw)
{
    switch (op) {
#define DISE_X(name, OP, width, signExtended)                               \
      case Opcode::OP:                                                      \
        return loadExtend(raw, width, signExtended);
        DISE_LOAD_OPS(DISE_X)
#undef DISE_X
      default:
        return raw;
    }
}

/** Outcome of a conditional (application or DISE) branch on value @p v. */
constexpr bool
condTaken(Opcode op, uint64_t v)
{
    const int64_t sv = static_cast<int64_t>(v);
    switch (op) {
      case Opcode::BEQ: case Opcode::DBEQ: return v == 0;
      case Opcode::BNE: case Opcode::DBNE: return v != 0;
      case Opcode::BLT: case Opcode::DBLT: return sv < 0;
      case Opcode::BLE: return sv <= 0;
      case Opcode::BGT: return sv > 0;
      case Opcode::BGE: case Opcode::DBGE: return sv >= 0;
      case Opcode::BLBC: return (v & 1) == 0;
      case Opcode::BLBS: return (v & 1) != 0;
      default: return false;
    }
}

} // namespace dise

#endif // DISE_ISA_SEMANTICS_HPP
