#include "src/isa/inst.hpp"

#include "src/common/bits.hpp"
#include "src/common/logging.hpp"

namespace dise {

bool
DecodedInst::operator==(const DecodedInst &other) const
{
    return op == other.op && ra == other.ra && rb == other.rb &&
           rc == other.rc && useLit == other.useLit && imm == other.imm &&
           tag == other.tag;
}

DecodedInst
decode(Word word)
{
    DecodedInst inst;
    inst.raw = word;
    const auto opc = static_cast<Opcode>(bits(word, 26, 6));
    const OpInfo &info = opInfo(opc);
    inst.op = opc;
    inst.cls = info.cls;
    if (!info.valid) {
        inst.cls = OpClass::Invalid;
        return inst;
    }
    switch (info.format) {
      case InstFormat::Nop:
      case InstFormat::Syscall:
        break;
      case InstFormat::Memory:
        inst.ra = static_cast<RegIndex>(bits(word, 21, 5));
        inst.rb = static_cast<RegIndex>(bits(word, 16, 5));
        inst.imm = signExtend(bits(word, 0, 16), 16);
        break;
      case InstFormat::Branch:
        inst.ra = static_cast<RegIndex>(bits(word, 21, 5));
        inst.imm = signExtend(bits(word, 0, 21), 21);
        break;
      case InstFormat::Jump:
        inst.ra = static_cast<RegIndex>(bits(word, 21, 5));
        inst.rb = static_cast<RegIndex>(bits(word, 16, 5));
        break;
      case InstFormat::Operate:
        inst.ra = static_cast<RegIndex>(bits(word, 21, 5));
        inst.useLit = bits(word, 12, 1) != 0;
        if (inst.useLit)
            inst.imm = static_cast<int64_t>(bits(word, 13, 8));
        else
            inst.rb = static_cast<RegIndex>(bits(word, 16, 5));
        inst.rc = static_cast<RegIndex>(bits(word, 0, 5));
        break;
      case InstFormat::Codeword:
        inst.tag = static_cast<uint16_t>(bits(word, 15, 11));
        inst.ra = static_cast<RegIndex>(bits(word, 10, 5));
        inst.rb = static_cast<RegIndex>(bits(word, 5, 5));
        inst.rc = static_cast<RegIndex>(bits(word, 0, 5));
        inst.imm = signExtend(bits(word, 0, 15), 15);
        break;
    }
    return inst;
}

namespace {

void
checkArchReg(RegIndex r, const char *what)
{
    if (!isArchReg(r)) {
        panic(strFormat("cannot encode %s register index %u "
                        "(dedicated registers have no application "
                        "encoding)", what, unsigned(r)));
    }
}

} // namespace

Word
encode(const DecodedInst &inst)
{
    const OpInfo &info = opInfo(inst.op);
    DISE_ASSERT(info.valid, "encoding invalid opcode");
    Word word = 0;
    word = static_cast<Word>(
        insertBits(word, 26, 6, static_cast<uint64_t>(inst.op)));
    switch (info.format) {
      case InstFormat::Nop:
      case InstFormat::Syscall:
        break;
      case InstFormat::Memory:
        checkArchReg(inst.ra, "memory ra");
        checkArchReg(inst.rb, "memory rb");
        DISE_ASSERT(fitsSigned(inst.imm, 16), "memory disp out of range");
        word = static_cast<Word>(insertBits(word, 21, 5, inst.ra));
        word = static_cast<Word>(insertBits(word, 16, 5, inst.rb));
        word = static_cast<Word>(
            insertBits(word, 0, 16, static_cast<uint64_t>(inst.imm)));
        break;
      case InstFormat::Branch:
        checkArchReg(inst.ra, "branch ra");
        DISE_ASSERT(fitsSigned(inst.imm, 21), "branch disp out of range");
        word = static_cast<Word>(insertBits(word, 21, 5, inst.ra));
        word = static_cast<Word>(
            insertBits(word, 0, 21, static_cast<uint64_t>(inst.imm)));
        break;
      case InstFormat::Jump:
        checkArchReg(inst.ra, "jump ra");
        checkArchReg(inst.rb, "jump rb");
        word = static_cast<Word>(insertBits(word, 21, 5, inst.ra));
        word = static_cast<Word>(insertBits(word, 16, 5, inst.rb));
        break;
      case InstFormat::Operate:
        checkArchReg(inst.ra, "operate ra");
        checkArchReg(inst.rc, "operate rc");
        word = static_cast<Word>(insertBits(word, 21, 5, inst.ra));
        word = static_cast<Word>(insertBits(word, 0, 5, inst.rc));
        if (inst.useLit) {
            DISE_ASSERT(fitsUnsigned(static_cast<uint64_t>(inst.imm), 8),
                        "operate literal out of range");
            word = static_cast<Word>(insertBits(word, 12, 1, 1));
            word = static_cast<Word>(
                insertBits(word, 13, 8, static_cast<uint64_t>(inst.imm)));
        } else {
            checkArchReg(inst.rb, "operate rb");
            word = static_cast<Word>(insertBits(word, 16, 5, inst.rb));
        }
        break;
      case InstFormat::Codeword:
        DISE_ASSERT(inst.tag <= kMaxCodewordTag, "codeword tag overflow");
        word = static_cast<Word>(insertBits(word, 15, 11, inst.tag));
        word = static_cast<Word>(insertBits(word, 10, 5, inst.ra));
        word = static_cast<Word>(insertBits(word, 5, 5, inst.rb));
        word = static_cast<Word>(insertBits(word, 0, 5, inst.rc));
        break;
    }
    return word;
}

Word
makeNop()
{
    return 0;
}

Word
makeMemory(Opcode op, RegIndex ra, RegIndex rb, int64_t disp)
{
    DecodedInst inst;
    inst.op = op;
    inst.cls = opInfo(op).cls;
    inst.ra = ra;
    inst.rb = rb;
    inst.imm = disp;
    DISE_ASSERT(opInfo(op).format == InstFormat::Memory, "format mismatch");
    return encode(inst);
}

Word
makeBranch(Opcode op, RegIndex ra, int64_t wordDisp)
{
    DecodedInst inst;
    inst.op = op;
    inst.cls = opInfo(op).cls;
    inst.ra = ra;
    inst.imm = wordDisp;
    DISE_ASSERT(opInfo(op).format == InstFormat::Branch, "format mismatch");
    return encode(inst);
}

Word
makeJump(Opcode op, RegIndex ra, RegIndex rb)
{
    DecodedInst inst;
    inst.op = op;
    inst.cls = opInfo(op).cls;
    inst.ra = ra;
    inst.rb = rb;
    DISE_ASSERT(opInfo(op).format == InstFormat::Jump, "format mismatch");
    return encode(inst);
}

Word
makeOperate(Opcode op, RegIndex ra, RegIndex rb, RegIndex rc)
{
    DecodedInst inst;
    inst.op = op;
    inst.cls = opInfo(op).cls;
    inst.ra = ra;
    inst.rb = rb;
    inst.rc = rc;
    DISE_ASSERT(opInfo(op).format == InstFormat::Operate, "format mismatch");
    return encode(inst);
}

Word
makeOperateImm(Opcode op, RegIndex ra, uint8_t lit, RegIndex rc)
{
    DecodedInst inst;
    inst.op = op;
    inst.cls = opInfo(op).cls;
    inst.ra = ra;
    inst.useLit = true;
    inst.imm = lit;
    inst.rc = rc;
    DISE_ASSERT(opInfo(op).format == InstFormat::Operate, "format mismatch");
    return encode(inst);
}

Word
makeCodeword(Opcode op, uint16_t tag, uint8_t p1, uint8_t p2, uint8_t p3)
{
    DecodedInst inst;
    inst.op = op;
    inst.cls = opInfo(op).cls;
    inst.tag = tag;
    inst.ra = p1;
    inst.rb = p2;
    inst.rc = p3;
    DISE_ASSERT(opInfo(op).format == InstFormat::Codeword,
                "format mismatch");
    return encode(inst);
}

Word
makeCodewordImm(Opcode op, uint16_t tag, int64_t imm15)
{
    DISE_ASSERT(fitsSigned(imm15, 15), "codeword imm out of range");
    const uint64_t field = bits(static_cast<uint64_t>(imm15), 0, 15);
    return makeCodeword(op, tag, static_cast<uint8_t>(bits(field, 10, 5)),
                        static_cast<uint8_t>(bits(field, 5, 5)),
                        static_cast<uint8_t>(bits(field, 0, 5)));
}

Word
makeSyscall()
{
    DecodedInst inst;
    inst.op = Opcode::SYSCALL;
    inst.cls = OpClass::Syscall;
    return encode(inst);
}

} // namespace dise
