#include "src/isa/opcodes.hpp"

#include <array>

#include "src/isa/name_table.hpp"

namespace dise {

namespace {

constexpr size_t kNumOps = static_cast<size_t>(Opcode::NUM_OPCODES);

/** Build the static opcode table once. */
std::array<OpInfo, kNumOps>
buildTable()
{
    std::array<OpInfo, kNumOps> table{};
    for (size_t i = 0; i < kNumOps; ++i) {
        table[i] = {static_cast<Opcode>(i), "<inv>", InstFormat::Nop,
                    OpClass::Invalid, false};
    }
    auto def = [&](Opcode op, const char *name, InstFormat fmt,
                   OpClass cls) {
        table[static_cast<size_t>(op)] = {op, name, fmt, cls, true};
    };
    def(Opcode::NOP, "nop", InstFormat::Nop, OpClass::Nop);
    def(Opcode::LDA, "lda", InstFormat::Memory, OpClass::IntAlu);
    def(Opcode::LDAH, "ldah", InstFormat::Memory, OpClass::IntAlu);
    def(Opcode::LDBU, "ldbu", InstFormat::Memory, OpClass::Load);
    def(Opcode::LDL, "ldl", InstFormat::Memory, OpClass::Load);
    def(Opcode::LDQ, "ldq", InstFormat::Memory, OpClass::Load);
    def(Opcode::STB, "stb", InstFormat::Memory, OpClass::Store);
    def(Opcode::STL, "stl", InstFormat::Memory, OpClass::Store);
    def(Opcode::STQ, "stq", InstFormat::Memory, OpClass::Store);
    def(Opcode::BR, "br", InstFormat::Branch, OpClass::UncondBranch);
    def(Opcode::BSR, "bsr", InstFormat::Branch, OpClass::Call);
    def(Opcode::BEQ, "beq", InstFormat::Branch, OpClass::CondBranch);
    def(Opcode::BNE, "bne", InstFormat::Branch, OpClass::CondBranch);
    def(Opcode::BLT, "blt", InstFormat::Branch, OpClass::CondBranch);
    def(Opcode::BLE, "ble", InstFormat::Branch, OpClass::CondBranch);
    def(Opcode::BGT, "bgt", InstFormat::Branch, OpClass::CondBranch);
    def(Opcode::BGE, "bge", InstFormat::Branch, OpClass::CondBranch);
    def(Opcode::BLBC, "blbc", InstFormat::Branch, OpClass::CondBranch);
    def(Opcode::BLBS, "blbs", InstFormat::Branch, OpClass::CondBranch);
    def(Opcode::JMP, "jmp", InstFormat::Jump, OpClass::Jump);
    def(Opcode::JSR, "jsr", InstFormat::Jump, OpClass::CallIndirect);
    def(Opcode::RET, "ret", InstFormat::Jump, OpClass::Return);
    def(Opcode::SYSCALL, "syscall", InstFormat::Syscall, OpClass::Syscall);
    def(Opcode::ADDQ, "addq", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::SUBQ, "subq", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::MULQ, "mulq", InstFormat::Operate, OpClass::IntMult);
    def(Opcode::AND, "and", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::BIC, "bic", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::OR, "or", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::ORNOT, "ornot", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::XOR, "xor", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::SLL, "sll", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::SRL, "srl", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::SRA, "sra", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::CMPEQ, "cmpeq", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::CMPLT, "cmplt", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::CMPLE, "cmple", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::CMPULT, "cmpult", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::CMPULE, "cmpule", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::CMOVEQ, "cmoveq", InstFormat::Operate, OpClass::IntAlu);
    def(Opcode::CMOVNE, "cmovne", InstFormat::Operate, OpClass::IntAlu);
    // Fused internal ops: a mnemonic and class for disassembly/timing,
    // but valid=false — they have no encoding, the assembler cannot
    // emit them, and a raw word with these opcode bits decodes Invalid.
    auto defFused = [&](Opcode op, const char *name, InstFormat fmt,
                        OpClass cls) {
        table[static_cast<size_t>(op)] = {op, name, fmt, cls, false};
    };
    defFused(Opcode::FCMPBR, "fcmpbr", InstFormat::Operate,
             OpClass::CondBranch);
    defFused(Opcode::FLDAC, "fldac", InstFormat::Operate, OpClass::IntAlu);
    defFused(Opcode::FSHADD, "fshadd", InstFormat::Operate,
             OpClass::IntAlu);
    defFused(Opcode::FLDAL, "fldal", InstFormat::Memory, OpClass::Load);
    defFused(Opcode::FLDAS, "fldas", InstFormat::Memory, OpClass::Store);
    defFused(Opcode::FLDOP, "fldop", InstFormat::Memory, OpClass::Load);
    def(Opcode::RES0, "res0", InstFormat::Codeword, OpClass::Codeword);
    def(Opcode::RES1, "res1", InstFormat::Codeword, OpClass::Codeword);
    def(Opcode::RES2, "res2", InstFormat::Codeword, OpClass::Codeword);
    def(Opcode::RES3, "res3", InstFormat::Codeword, OpClass::Codeword);
    def(Opcode::DBEQ, "dbeq", InstFormat::Branch, OpClass::DiseBranch);
    def(Opcode::DBNE, "dbne", InstFormat::Branch, OpClass::DiseBranch);
    def(Opcode::DBR, "dbr", InstFormat::Branch, OpClass::DiseBranch);
    def(Opcode::DBLT, "dblt", InstFormat::Branch, OpClass::DiseBranch);
    def(Opcode::DBGE, "dbge", InstFormat::Branch, OpClass::DiseBranch);
    return table;
}

const std::array<OpInfo, kNumOps> &
table()
{
    static const std::array<OpInfo, kNumOps> t = buildTable();
    return t;
}

} // namespace

const OpInfo &
opInfo(Opcode op)
{
    const size_t idx = static_cast<size_t>(op);
    static const OpInfo invalid = {Opcode::NUM_OPCODES, "<inv>",
                                   InstFormat::Nop, OpClass::Invalid, false};
    if (idx >= kNumOps)
        return invalid;
    return table()[idx];
}

const char *
opName(Opcode op)
{
    return opInfo(op).mnemonic;
}

std::optional<Opcode>
opFromName(std::string_view name)
{
    static const NameTable<Opcode, 7> byName = [] {
        NameTable<Opcode, 7> t;
        for (const auto &info : table())
            if (info.valid)
                t.add(info.mnemonic, info.op);
        return t;
    }();
    return byName.find(name);
}

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::Nop: return "nop";
      case OpClass::IntAlu: return "intalu";
      case OpClass::IntMult: return "intmult";
      case OpClass::Load: return "load";
      case OpClass::Store: return "store";
      case OpClass::CondBranch: return "condbranch";
      case OpClass::UncondBranch: return "uncondbranch";
      case OpClass::Call: return "call";
      case OpClass::Jump: return "jump";
      case OpClass::CallIndirect: return "callindirect";
      case OpClass::Return: return "return";
      case OpClass::Syscall: return "syscall";
      case OpClass::Codeword: return "codeword";
      case OpClass::DiseBranch: return "disebranch";
      case OpClass::Invalid: return "invalid";
    }
    return "invalid";
}

} // namespace dise
