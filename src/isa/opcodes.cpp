#include "src/isa/opcodes.hpp"

#include "src/isa/name_table.hpp"

namespace dise {

std::optional<Opcode>
opFromName(std::string_view name)
{
    static const NameTable<Opcode, 7> byName = [] {
        NameTable<Opcode, 7> t;
        for (const OpInfo &info : kOpTable)
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
