#include "src/sim/core.hpp"

#include <algorithm>
#include <utility>

#include "src/common/logging.hpp"
#include "src/isa/disasm.hpp"
#include "src/isa/semantics.hpp"
#include "src/sim/snapshot.hpp"

namespace dise {

namespace {

/** Most slots one translated block may hold. A slot covers one word, or
 *  two for a fused pair, so a block spans at most 2 * kMaxBlockLen
 *  words. */
constexpr size_t kMaxBlockLen = 128;
static_assert(kMaxBlockLen <= 0xffff, "TransOp::side is 16 bits");

/**
 * Map an opcode to its flat block handler (DiseBranch for a DISE
 * branch); OpHandler::NUM when the opcode is outside the translated
 * repertoire (syscalls, codewords, reserved/invalid encodings). Shared
 * by block translation and sequence lowering (lowerSeq) so the two
 * slot streams agree on the repertoire.
 */
OpHandler
baseHandler(Opcode op)
{
    switch (op) {
      case Opcode::NOP: return OpHandler::Nop;
#define ROW_CASE(name, OP, ...) case Opcode::OP: return OpHandler::name;
      DISE_ADDR_OPS(ROW_CASE)
      DISE_OPERATE_OPS(ROW_CASE)
      DISE_CMOV_OPS(ROW_CASE)
      DISE_LOAD_OPS(ROW_CASE)
      DISE_STORE_OPS(ROW_CASE)
#undef ROW_CASE
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BLE: case Opcode::BGT: case Opcode::BGE:
      case Opcode::BLBC: case Opcode::BLBS:
        return OpHandler::CondBranch;
      case Opcode::BR: case Opcode::BSR:
        return OpHandler::DirBranch;
      case Opcode::JMP: case Opcode::JSR: case Opcode::RET:
        return OpHandler::Jump;
      case Opcode::DBEQ: case Opcode::DBNE: case Opcode::DBLT:
      case Opcode::DBGE: case Opcode::DBR:
        return OpHandler::DiseBranch;
      default:
        return OpHandler::NUM;
    }
}

} // namespace

Json
RunResult::toJson() const
{
    Json doc = Json::object();
    doc["outcome"] = Json(std::string(runOutcomeName(outcome)));
    doc["exited"] = Json(exited);
    doc["exit_code"] = Json(exitCode);
    doc["dyn_insts"] = Json(dynInsts);
    doc["app_insts"] = Json(appInsts);
    doc["dise_insts"] = Json(diseInsts);
    doc["expansions"] = Json(expansions);
    doc["loads"] = Json(loads);
    doc["stores"] = Json(stores);
    doc["acf_detections"] = Json(acfDetections);
    doc["output"] = Json(output);
    if (outcome == RunOutcome::Trap) {
        Json t = Json::object();
        t["cause"] = Json(std::string(trapCauseName(trap.cause)));
        t["pc"] = Json(uint64_t(trap.pc));
        t["disepc"] = Json(trap.disepc);
        t["fault_addr"] = Json(trap.faultAddr);
        t["message"] = Json(trap.message);
        doc["trap"] = std::move(t);
    }
    return doc;
}

ExecCore::ExecCore(const Program &prog, DiseController *controller)
    : prog_(prog), controller_(controller), pc_(prog.entry)
{
    memory_.loadProgram(prog);
    regs_.fill(0);
    regs_[kSpReg] = prog.stackTop;
    brk_ = (prog.dataBase + prog.data.size() + 0xffff) & ~Addr(0xffff);
    decoded_.resize(prog.text.size());
    decodedValid_.assign(prog.text.size(), 0);
    blocks_.resize(prog.text.size());
    const auto errorSym = prog.symbols.find("error");
    if (errorSym != prog.symbols.end())
        errorAddr_ = errorSym->second;
}

void
ExecCore::raiseTrap(TrapCause cause, Addr pc, uint32_t disepc,
                    uint64_t faultAddr, std::string message)
{
    trapped_ = true;
    result_.outcome = RunOutcome::Trap;
    result_.trap.cause = cause;
    result_.trap.pc = pc;
    result_.trap.disepc = disepc;
    result_.trap.faultAddr = faultAddr;
    result_.trap.message = std::move(message);
}

const DecodedInst &
ExecCore::fetchDecode(Addr pc)
{
    const Addr off = pc - prog_.textBase;
    const size_t idx = static_cast<size_t>(off >> 2);
    if ((off & 3) != 0 || idx >= decoded_.size()) {
        decodeFallback_ = dise::decode(memory_.readWord(pc));
        return decodeFallback_;
    }
    if (!decodedValid_[idx]) {
        decoded_[idx] = dise::decode(memory_.readWord(pc));
        decodedValid_[idx] = 1;
    }
    return decoded_[idx];
}

void
ExecCore::invalidateDecodeCache()
{
    decodedValid_.assign(decodedValid_.size(), 0);
    retireBlocks();
}

void
ExecCore::invalidateDecodedRange(Addr addr, unsigned size)
{
    const Addr end = std::min<Addr>(addr + size, prog_.textEnd());
    Addr first = std::max(addr, prog_.textBase);
    for (Addr a = first & ~Addr(3); a < end; a += 4) {
        const size_t idx = static_cast<size_t>((a - prog_.textBase) >> 2);
        if (idx < decodedValid_.size())
            decodedValid_[idx] = 0;
    }
    invalidateTraceRange(addr, size);
}

void
ExecCore::setFusionEnabled(bool on)
{
    if (on == fusionEnabled_)
        return;
    fusionEnabled_ = on;
    // Translated blocks bake fusion decisions into their slots, so the
    // whole trace cache must go.
    invalidateDecodeCache();
}

bool
ExecCore::fusionAt(Addr pc, DecodedInst &fused)
{
    const Addr off = pc - prog_.textBase;
    // A misaligned pc, or a pair that would cross the end of text.
    if ((off & 3) != 0 || (off >> 2) + 1 >= decoded_.size())
        return false;
    const DecodedInst &first = fetchDecode(pc);
    const DecodedInst &second = fetchDecode(pc + 4);
    if (!fusePair(first, second, &fused))
        return false;
    if (!controller_)
        return true;
    // Expansion takes priority over contraction: a covered opcode must
    // reach the engine exactly as fetched.
    const DiseEngine &eng = controller_->engine();
    return !eng.opcodeCovered(first.op) && !eng.opcodeCovered(second.op);
}

const StatGroup &
ExecCore::fusionStatGroup() const
{
    fusionGroup_.set("fused_pairs", statFusedPairs_);
    fusionGroup_.set("fused_insts", 2 * statFusedPairs_);
    for (int i = 0; i < kNumFusedFamilies; ++i) {
        fusionGroup_.set(std::string("pairs_") + fusedFamilyName(i),
                         statFusedFamily_[i]);
    }
    return fusionGroup_;
}

void
ExecCore::retireBlocks()
{
    ++traceEpoch_;
    if (resident_ == 0)
        return;
    for (std::unique_ptr<TransBlock> &b : blocks_) {
        if (b)
            retired_.push_back(std::move(b));
    }
    resident_ = 0;
}

void
ExecCore::invalidateTraceRange(Addr addr, unsigned size)
{
    // The epoch bump kills the resume cursor and makes a running block
    // exit; the graveyard keeps a dropped block alive in case the
    // interpreter is currently *inside* it (SMC invalidation runs
    // mid-chain). See the retired_ member doc.
    ++traceEpoch_;
    // With fusion on, a block's last slot also read the word past the
    // ones it covers to decide "no fuse"; a store there must drop the
    // block with the decision.
    const Addr reach = fusionEnabled_ ? 4 : 0;
    // A block spans at most 2 * kMaxBlockLen words, so only entries
    // that close before the written range (which noteTextStore saw
    // overlap text) can overlap it.
    const Addr span = 2 * kMaxBlockLen * 4 + reach;
    const size_t first = addr > prog_.textBase + span
                             ? (addr - span - prog_.textBase) >> 2
                             : 0;
    const Addr end = std::min<Addr>(addr + size, prog_.textEnd());
    for (size_t i = first; prog_.textBase + 4 * i < end; ++i) {
        std::unique_ptr<TransBlock> &b = blocks_[i];
        if (!b)
            continue;
        // Entry i covers numInsts words from its own (a placeholder for
        // an untranslatable word, that one word).
        const Addr coveredEnd =
            prog_.textBase + 4 * (i + std::max(b->numInsts, 1u));
        if (coveredEnd + reach > addr) {
            retired_.push_back(std::move(b));
            --resident_;
        }
    }
}

void
ExecCore::setReg(RegIndex r, uint64_t value)
{
    if (r != kZeroReg)
        regs_[r] = value;
}

DiseRegFile
ExecCore::diseRegs() const
{
    DiseRegFile file;
    for (unsigned i = 0; i < kNumDiseRegs; ++i)
        file[i] = regs_[kDiseRegBase + i];
    return file;
}

void
ExecCore::setDiseReg(unsigned i, uint64_t value)
{
    DISE_ASSERT(i < kNumDiseRegs, "bad dedicated register index");
    regs_[kDiseRegBase + i] = value;
}

void
ExecCore::doSyscall(DynInst &dyn)
{
    dyn.isSyscall = true;
    const auto code = static_cast<SyscallCode>(readReg(kRetReg));
    const uint64_t a0 = readReg(kArg0Reg);
    switch (code) {
      case SyscallCode::Exit:
        exited_ = true;
        result_.exited = true;
        result_.outcome = RunOutcome::Exit;
        result_.exitCode = static_cast<int>(a0);
        break;
      case SyscallCode::PutChar:
        result_.output += static_cast<char>(a0 & 0xff);
        break;
      case SyscallCode::PutInt:
        result_.output += std::to_string(static_cast<int64_t>(a0));
        break;
      case SyscallCode::Brk: {
        writeReg(kRetReg, brk_);
        brk_ += a0;
        break;
      }
      default:
        raiseTrap(TrapCause::UnknownSyscall, dyn.pc, dyn.disepc,
                  readReg(kRetReg),
                  strFormat("unknown syscall %llu at pc 0x%llx",
                            (unsigned long long)readReg(kRetReg),
                            (unsigned long long)dyn.pc));
        break;
    }
}

/*
 * Register effect of one straight-line semantics-table row on
 * instruction @p s (a DecodedInst, or a TransOp's inst): each binds the
 * operand names the row's expression is written over. Shared by
 * execute() and the translated interpreter's block and sequence slots.
 */
#define SLOT_ADDR(s, expr)                                                  \
    do {                                                                    \
        const uint64_t b = readReg((s).rb);                                 \
        const uint64_t d = static_cast<uint64_t>((s).imm);                  \
        writeReg((s).ra, (expr));                                           \
    } while (0)
#define SLOT_OPERATE(s, expr)                                               \
    do {                                                                    \
        const uint64_t a = readReg((s).ra);                                 \
        const uint64_t b = operandB(s);                                     \
        writeReg((s).rc, (expr));                                           \
    } while (0)
#define SLOT_CMOV(s, cond)                                                  \
    do {                                                                    \
        const uint64_t a = readReg((s).ra);                                 \
        if (cond)                                                           \
            writeReg((s).rc, operandB(s));                                  \
    } while (0)

void
ExecCore::execute(const DecodedInst &inst, DynInst &dyn)
{
    switch (inst.op) {
      case Opcode::NOP:
        break;
#define EXEC_ADDR(name, OP, expr)                                           \
      case Opcode::OP: SLOT_ADDR(inst, expr); break;
#define EXEC_OPERATE(name, OP, expr)                                        \
      case Opcode::OP: SLOT_OPERATE(inst, expr); break;
#define EXEC_CMOV(name, OP, cond)                                           \
      case Opcode::OP: SLOT_CMOV(inst, cond); break;
#define EXEC_LOAD(name, OP, width, signExtended)                            \
      case Opcode::OP:                                                      \
        dyn.isMem = true;                                                   \
        dyn.memAddr = effAddr(inst);                                        \
        ++result_.loads;                                                    \
        writeReg(inst.ra, loadExtend(memory_.read(dyn.memAddr, width),      \
                                     width, signExtended));                 \
        break;
#define EXEC_STORE(name, OP, width)                                         \
      case Opcode::OP:                                                      \
        dyn.isMem = true;                                                   \
        dyn.isStore = true;                                                 \
        dyn.memAddr = effAddr(inst);                                        \
        ++result_.stores;                                                   \
        memory_.write(dyn.memAddr, readReg(inst.ra), width);                \
        noteTextStore(dyn.memAddr, width);                                  \
        break;
      DISE_ADDR_OPS(EXEC_ADDR)
      DISE_OPERATE_OPS(EXEC_OPERATE)
      DISE_CMOV_OPS(EXEC_CMOV)
      DISE_LOAD_OPS(EXEC_LOAD)
      DISE_STORE_OPS(EXEC_STORE)
#undef EXEC_ADDR
#undef EXEC_OPERATE
#undef EXEC_CMOV
#undef EXEC_LOAD
#undef EXEC_STORE
      case Opcode::BR:
      case Opcode::BSR:
        dyn.isAppControl = true;
        dyn.taken = true;
        dyn.actualTarget = inst.branchTarget(dyn.pc);
        writeReg(inst.ra, dyn.pc + 4);
        break;
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BLE: case Opcode::BGT: case Opcode::BGE:
      case Opcode::BLBC: case Opcode::BLBS:
        dyn.isAppControl = true;
        dyn.taken = condTaken(inst.op, readReg(inst.ra));
        dyn.actualTarget = inst.branchTarget(dyn.pc);
        break;
      case Opcode::JMP:
      case Opcode::JSR:
      case Opcode::RET:
        dyn.isAppControl = true;
        dyn.taken = true;
        dyn.actualTarget = readReg(inst.rb) & ~Addr(3);
        writeReg(inst.ra, dyn.pc + 4);
        break;
      case Opcode::SYSCALL:
        doSyscall(dyn);
        break;
      case Opcode::DBEQ: case Opcode::DBNE: case Opcode::DBLT:
      case Opcode::DBGE:
        dyn.taken = condTaken(inst.op, readReg(inst.ra));
        break;
      case Opcode::DBR:
        dyn.taken = true;
        break;
      case Opcode::RES0: case Opcode::RES1: case Opcode::RES2:
      case Opcode::RES3:
        raiseTrap(TrapCause::UnexpandedCodeword, dyn.pc, dyn.disepc,
                  inst.raw,
                  strFormat("codeword executed unexpanded at pc 0x%llx "
                            "(missing decompression productions?)",
                            (unsigned long long)dyn.pc));
        break;
      default:
        raiseTrap(TrapCause::InvalidInstruction, dyn.pc, dyn.disepc,
                  inst.raw,
                  strFormat("executed invalid instruction 0x%08x at "
                            "0x%llx",
                            inst.raw, (unsigned long long)dyn.pc));
        break;
    }

    if (dyn.isAppControl && dyn.taken)
        noteControlTarget(dyn.actualTarget);
}

void
ExecCore::adoptExpansion(const ExpandResult &r)
{
    seqInsts_ = r.insts;
    seqLen_ = r.numInsts;
    seqSpec_ = r.seq;
    seqIdx_ = 0;
    seqTriggerPC_ = pc_;
    seqNext_ = pc_ + 4;
    seqPtMiss_ = r.ptMiss;
    seqRtMiss_ = r.rtMiss;
    seqMissPenalty_ = r.missPenalty;
    ++result_.expansions;
    ++result_.appInsts;
}

void
ExecCore::clearSeq()
{
    seqSpec_ = nullptr;
    seqInsts_ = nullptr;
    seqLen_ = 0;
    seqIdx_ = 0;
}

bool
ExecCore::beginExpansion(const DecodedInst &fetched)
{
    const ExpandResult r = controller_->engine().expand(fetched, pc_);
    if (!r.expanded)
        return false;
    adoptExpansion(r);
    return true;
}

template <bool kEmit>
bool
ExecCore::execAppInst(const DecodedInst &fetched, DynInst *out)
{
    DynInst dyn;
    dyn.pc = pc_;
    dyn.disepc = 0;
    dyn.inst = fetched;
    if (fetched.isDiseBranch()) {
        raiseTrap(TrapCause::DiseBranchInAppStream, pc_, 0, fetched.raw,
                  strFormat("DISE branch in application stream "
                            "at 0x%llx",
                            (unsigned long long)pc_));
        return false;
    }
    execute(fetched, dyn);
    if (trapped_)
        return false; // the faulting instruction does not retire
    ++result_.dynInsts;
    ++result_.appInsts;
    if (!exited_) {
        pc_ = (dyn.isAppControl && dyn.taken) ? dyn.actualTarget
                                              : pc_ + 4;
    }
    if constexpr (kEmit) {
        dyn.regs = fetched.timingRegs();
        *out = dyn;
    }
    return true;
}

bool
ExecCore::executeFused(const DecodedInst &fz, Addr pc, DynInst &dyn)
{
    switch (fz.op) {
      case Opcode::FCMPBR: {
        const CmpBrFields f = unpackCmpBr(fz.tag);
        const uint64_t r = operateResult(
            f.cmpOp, readReg(fz.ra),
            fz.useLit ? static_cast<uint64_t>(f.lit) : readReg(fz.rb));
        writeReg(fz.rc, r);
        dyn.isAppControl = true;
        dyn.taken = condTaken(f.brOp, r);
        dyn.actualTarget = fz.branchTarget(pc);
        if (dyn.taken)
            noteControlTarget(dyn.actualTarget);
        return dyn.taken;
      }
      case Opcode::FLDAC:
        writeReg(fz.rc, readReg(fz.ra) + static_cast<uint64_t>(fz.imm));
        return false;
      case Opcode::FSHADD:
        writeReg(fz.rc,
                 operateResult(Opcode::ADDQ,
                               operateResult(Opcode::SLL, readReg(fz.ra),
                                             fz.tag),
                               operandB(fz)));
        return false;
      case Opcode::FLDAL: {
        dyn.isMem = true;
        dyn.memAddr = effAddr(fz);
        const auto ld = static_cast<Opcode>(fz.tag);
        writeReg(fz.ra,
                 loadValue(ld, memory_.read(dyn.memAddr, memWidth(ld))));
        return false;
      }
      case Opcode::FLDAS: {
        dyn.isMem = true;
        dyn.isStore = true;
        dyn.memAddr = effAddr(fz);
        memory_.write(dyn.memAddr, readReg(fz.ra),
                      memWidth(static_cast<Opcode>(fz.tag)));
        // The lda half's result survives the pair.
        writeReg(fz.rc, dyn.memAddr);
        return false;
      }
      case Opcode::FLDOP: {
        dyn.isMem = true;
        dyn.memAddr = effAddr(fz);
        const LoadOpFields f = unpackLoadOp(fz.tag);
        uint64_t a = memory_.read(dyn.memAddr, memWidth(Opcode::LDQ));
        uint64_t b = f.useLit ? uint64_t(f.lit) : readReg(fz.rc);
        if (f.swapped)
            std::swap(a, b);
        writeReg(fz.ra, operateResult(f.aluOp, a, b));
        return false;
      }
      default:
        fatal("executeFused: not a fused opcode");
    }
}

template <bool kEmit>
bool
ExecCore::execFusedPair(const DecodedInst &fz, DynInst *out)
{
    DynInst dyn;
    dyn.pc = pc_;
    dyn.disepc = 0;
    dyn.inst = fz;
    if (controller_) {
        // Natively both constituents would be presented to the engine
        // (and declined — fusionAt vetoes covered opcodes).
        controller_->engine().noteInspected(2);
    }
    const bool taken = executeFused(fz, pc_, dyn);
    // One record, two retirements: the architectural counters advance
    // exactly as the unfused pair would.
    result_.dynInsts += 2;
    result_.appInsts += 2;
    result_.loads += dyn.isMem && !dyn.isStore;
    result_.stores += dyn.isStore;
    ++statFusedPairs_;
    ++statFusedFamily_[fusedFamilyIndex(fz.op)];
    // Self-modifying store (conservative width: at most a quadword).
    if (dyn.isStore)
        noteTextStore(dyn.memAddr, 8);
    pc_ = taken ? dyn.actualTarget : pc_ + 8;
    if constexpr (kEmit) {
        dyn.regs = fz.timingRegs();
        *out = dyn;
    }
    return true;
}

bool
ExecCore::step(DynInst &out)
{
    const bool retired = stepUnpinned(out);
    pinSuspendedSeq();
    return retired;
}

bool
ExecCore::stepUnpinned(DynInst &out)
{
    if (exited_ || trapped_)
        return false;

    if (!seqSpec_) {
        // Fetch and present to the DISE engine.
        if (!prog_.inText(pc_) &&
            !(pc_ >= prog_.textBase && pc_ < prog_.textEnd())) {
            raiseTrap(TrapCause::PcOutOfText, pc_, 0, pc_,
                      strFormat("pc left text segment: 0x%llx",
                                (unsigned long long)pc_));
            return false;
        }
        const DecodedInst &fetched = fetchDecode(pc_);
        if (fusionEnabled_) {
            // Contraction before expansion is safe: fusionAt() refuses
            // any pair touching a covered opcode, so the engine still
            // sees everything it would see natively.
            DecodedInst fused;
            if (fusionAt(pc_, fused))
                return execFusedPair<true>(fused, &out);
        }
        if (controller_)
            beginExpansion(fetched);
        if (!seqSpec_) {
            // Ordinary application instruction.
            return execAppInst<true>(fetched, &out);
        }
    }

    return execSeqSlot<true>(&out);
}

template <bool kEmit>
bool
ExecCore::execSeqSlot(DynInst *out)
{
    if constexpr (kEmit) {
        DynInst dyn;
        return execSeqSlotBody<true>(dyn, out);
    } else {
        // Reset only the outcome fields the body reads; the rest of the
        // scratch DynInst is trace-stream metadata nothing consumes.
        seqScratch_.isAppControl = false;
        seqScratch_.taken = false;
        seqScratch_.isMem = false;
        seqScratch_.isStore = false;
        seqScratch_.isSyscall = false;
        return execSeqSlotBody<false>(seqScratch_, nullptr);
    }
}

template <bool kEmit>
bool
ExecCore::execSeqSlotBody(DynInst &dyn, DynInst *out)
{
    // Emit the next slot of the in-flight replacement sequence.
    const uint32_t slot = seqIdx_;
    DISE_ASSERT(slot < seqLen_, "replacement sequence overrun");
    const DecodedInst &inst = seqInsts_[slot];
    // T.INSN is the trigger itself; a T.OP re-emission (e.g. the rebased
    // access in sandboxing) is the trigger in modified form — both are
    // the application's own instruction, not DISE-inserted work.
    const bool triggerSlot =
        seqSpec_->insts[slot].isTriggerInsn ||
        seqSpec_->insts[slot].opDir == OpDirective::Trigger;
    dyn.pc = seqTriggerPC_;
    dyn.disepc = slot + 1;
    if constexpr (kEmit) {
        dyn.inst = inst;
        dyn.regs = inst.timingRegs();
        dyn.expanded = true;
        dyn.triggerSlot = triggerSlot;
        dyn.firstOfSeq = (slot == 0);
        dyn.seqLen = seqLen_;
        if (slot == 0) {
            dyn.ptMiss = seqPtMiss_;
            dyn.rtMiss = seqRtMiss_;
            dyn.missPenalty = seqMissPenalty_;
            dyn.seqPredClass = seqPredClassOf(
                fetchDecode(seqTriggerPC_).cls, seqInsts_[seqLen_ - 1].cls);
        }
    }
    ++seqIdx_;

    execute(inst, dyn);
    if (trapped_) {
        // The faulting slot does not retire; drop the in-flight
        // sequence (the trap records the precise PC:DISEPC point).
        clearSeq();
        return false;
    }
    ++result_.dynInsts;
    if (!triggerSlot)
        ++result_.diseInsts;

    bool endSeq = false;
    Addr redirect = 0;
    bool haveRedirect = false;

    if (exited_) {
        endSeq = true;
    } else if (inst.isDiseBranch()) {
        if (dyn.taken) {
            const int64_t target = static_cast<int64_t>(slot) + 1 +
                                   inst.imm;
            if (target < 0 ||
                target > static_cast<int64_t>(seqLen_)) {
                raiseTrap(TrapCause::DiseBranchOutOfRange,
                          seqTriggerPC_, dyn.disepc,
                          static_cast<uint64_t>(target),
                          strFormat("DISE branch target %lld outside "
                                    "sequence of length %u",
                                    (long long)target, seqLen_));
                clearSeq();
                return false;
            }
            if constexpr (kEmit)
                dyn.diseTarget = static_cast<uint32_t>(target);
            seqIdx_ = static_cast<uint32_t>(target);
            if (seqIdx_ == seqLen_)
                endSeq = true;
        }
    } else if (dyn.isAppControl) {
        if (triggerSlot) {
            // Trigger branch: instructions after it ride its predicted
            // (here: actual) path; apply the outcome at sequence end.
            seqNext_ = dyn.taken ? dyn.actualTarget : seqTriggerPC_ + 4;
        } else if (dyn.taken) {
            // Non-trigger branch: post-branch slots belong to the
            // non-taken path, so a taken branch discards them.
            endSeq = true;
            haveRedirect = true;
            redirect = dyn.actualTarget;
        }
    }

    if (!endSeq && seqIdx_ >= seqLen_)
        endSeq = true;

    if (endSeq) {
        if constexpr (kEmit)
            dyn.lastOfSeq = true;
        if (!exited_)
            pc_ = haveRedirect ? redirect : seqNext_;
        clearSeq();
    }

    if constexpr (kEmit)
        *out = dyn;
    return true;
}

std::pair<Addr, uint32_t>
ExecCore::interruptPoint() const
{
    if (seqSpec_)
        return {seqTriggerPC_, seqIdx_ + 1};
    return {pc_, 0};
}

void
ExecCore::copyArchStateFrom(const ExecCore &other)
{
    regs_ = other.regs_;
    memory_ = other.memory_;
    brk_ = other.brk_;
    // The adopted memory image may differ from what was pre-decoded.
    invalidateDecodeCache();
}

void
ExecCore::pinSuspendedSeq()
{
    // A sequence suspended across an API return must not keep pointing
    // into engine-owned storage: the caller may install a new
    // production set or flush tables before resuming, freeing the
    // expansion-cache span and the ProductionSet that owns the spec.
    // Copy both into core-owned backing and re-point. Idempotent, so a
    // run that suspends repeatedly re-pins only once.
    if (seqSpec_ == nullptr || seqSpec_ == &seqPinnedSpec_)
        return;
    seqPinnedInsts_.assign(seqInsts_, seqInsts_ + seqLen_);
    seqPinnedSpec_ = *seqSpec_;
    seqInsts_ = seqPinnedInsts_.data();
    seqSpec_ = &seqPinnedSpec_;
}

void
ExecCore::advanceToAppInst(uint64_t target)
{
    // A fused boundary retires two application instructions at once,
    // which breaks the exactly-N contract below; the service layer
    // rejects fusion combined with every advance-based feature.
    DISE_ASSERT(!fusionEnabled_,
                "advanceToAppInst requires at most one application "
                "instruction per retirement boundary; fusion retires "
                "pairs");
    // Chunked advance: each pass budgets dynInsts so that appInsts
    // cannot overshoot target (every dynamic instruction advances
    // appInsts by at most one), then re-budgets. Unlike run(), a
    // budget expiry here is not a Hang — the caller is positioning the
    // core, not classifying a run. A tripped cancel flag abandons the
    // advance wherever it stands (the caller observes the flag).
    while (!exited_ && !trapped_ && result_.appInsts < target &&
           !cancelRequested()) {
        runUntil<false>(result_.dynInsts + (target - result_.appInsts));
    }
    // Drain any in-flight replacement sequence: the target application
    // instruction may have expanded, and its effects are complete only
    // when the sequence retires. A DISE-branch loop can spin here
    // indefinitely, so the cancel flag is honored too.
    while (seqSpec_ && !exited_ && !trapped_ && !cancelRequested())
        execSeqSlot<false>(nullptr);
    pinSuspendedSeq();
}

void
ExecCore::saveSnapshot(SimSnapshot &out) const
{
    // A terminated core is snapshottable regardless: any in-flight
    // sequence is dead control state a restore would discard anyway.
    DISE_ASSERT(seqSpec_ == nullptr || exited_ || trapped_,
                "saveSnapshot requires an application-instruction "
                "boundary (no in-flight replacement sequence)");
    out.regs = regs_;
    out.memory = memory_; // COW fork: O(pages) pointer copies
    out.pc = pc_;
    out.brk = brk_;
    out.exited = exited_;
    out.trapped = trapped_;
    out.result = result_;
    out.appInsts = result_.appInsts;
    if (controller_)
        out.engine = std::make_unique<DiseEngine>(controller_->engine());
    else
        out.engine.reset();
}

void
ExecCore::restoreSnapshot(const SimSnapshot &snap)
{
    DISE_ASSERT(bool(controller_) == bool(snap.engine),
                "snapshot controller shape does not match this core");
    regs_ = snap.regs;
    memory_ = snap.memory; // COW fork back; the snapshot stays frozen
    pc_ = snap.pc;
    brk_ = snap.brk;
    exited_ = snap.exited;
    trapped_ = snap.trapped;
    result_ = snap.result;
    // Snapshots are taken at application boundaries; clear any control
    // state this core had in flight.
    clearSeq();
    resume_ = ChainCursor{};
    if (controller_)
        controller_->restoreEngine(*snap.engine);
    // The restored image may differ from what was pre-decoded or
    // translated (and the engine generation may have moved backwards).
    invalidateDecodeCache();
}

void
ExecCore::resumeAt(Addr pc, uint32_t disepc)
{
    // Discard any in-flight control state; the caller supplies the
    // precise point.
    clearSeq();
    resume_ = ChainCursor{};
    pc_ = pc;
    if (disepc == 0)
        return;

    DISE_ASSERT(controller_ != nullptr,
                "resumeAt with a DISEPC requires a DISE controller");
    // Fetch ignores the DISEPC; the DISE engine recognizes it and
    // expands the replacement sequence, skipping the first DISEPC-1
    // instructions (which already retired before the interrupt).
    const DecodedInst &fetched = fetchDecode(pc);
    const ExpandResult r = controller_->engine().expand(fetched, pc);
    if (!r.expanded) {
        fatal(strFormat("resumeAt: instruction at 0x%llx no longer "
                        "expands (production set changed?)",
                        (unsigned long long)pc));
    }
    DISE_ASSERT(disepc - 1 < r.numInsts,
                "resume DISEPC outside the replacement sequence");
    seqInsts_ = r.insts;
    seqLen_ = r.numInsts;
    seqSpec_ = r.seq;
    seqTriggerPC_ = pc;
    seqNext_ = pc + 4;
    seqIdx_ = disepc - 1;
    seqPtMiss_ = r.ptMiss;
    seqRtMiss_ = r.rtMiss;
    seqMissPenalty_ = 0; // already charged before the trap
}

TransBlock *
ExecCore::translateBlock(Addr entry)
{
    if (resident_ >= traceBlockCap_) {
        // Cache pressure: retire the whole table (rare — the cap is far
        // above any real text footprint) rather than keep an LRU. This
        // runs mid-chain too, where the graveyard keeps the running
        // block alive.
        ++statTraceEvictions_;
        retireBlocks();
    }
    std::unique_ptr<TransBlock> &block =
        blocks_[static_cast<size_t>((entry - prog_.textBase) >> 2)];
    block = std::make_unique<TransBlock>();
    ++statBlocksTranslated_;
    ++resident_;

    // Slots collect in the reused scratch vector; the block gets one
    // exactly sized copy at the end instead of a doubling regrowth.
    std::vector<TransOp> &ops = blockScratch_;
    ops.clear();
    uint16_t numSide = 0;
    Addr pc = entry;
    while (ops.size() < kMaxBlockLen && prog_.inText(pc)) {
        // The same per-PC fusion decision step() takes, baked into one
        // slot covering two words (see the numInsts accounting below).
        DecodedInst fused;
        const bool fz = fusionEnabled_ && fusionAt(pc, fused);
        const DecodedInst &d = fz ? fused : fetchDecode(pc);

        TransOp op;
        op.inst = d;
        op.regs = d.timingRegs();

        if (fz) {
            op.handler = OpHandler::Fused;
        } else if (controller_ &&
                   controller_->engine().opcodeCovered(d.op)) {
            // The engine may expand this instruction; decide at run
            // time. A control trigger may also redirect, so it ends the
            // static block either way.
            op.handler = OpHandler::Engine;
        } else {
            op.handler = baseHandler(d.op);
            if (op.handler == OpHandler::NUM ||
                op.handler == OpHandler::DiseBranch) {
                // Syscalls, codewords, DISE branches, reserved/invalid
                // encodings: end the block; the dispatcher executes
                // them through step(), which models their traps and
                // side effects.
                break;
            }
        }
        // Engine slots keep run-time state (memo, lowered sequence) out
        // of line.
        if (op.handler == OpHandler::Engine)
            op.side = numSide++;
        ops.push_back(op);
        pc += fz ? 8 : 4;
        if (d.isControl())
            break; // branches, jumps and fused compare+branch end a block
    }
    // Words covered, not slots: every translated slot advanced pc by
    // its own width (4, or 8 for a fused pair), so SMC overlap checks
    // keep seeing the fused second words.
    block->numInsts = static_cast<uint32_t>((pc - entry) / 4);
    if (!ops.empty()) {
        // Close the slot array with the End sentinel (the fall-through
        // exit) so the interpreter needs no bounds check.
        TransOp end;
        end.handler = OpHandler::End;
        ops.push_back(end);
        block->ops.assign(ops.begin(), ops.end());
        block->side.resize(numSide);
    }
    return block.get();
}

namespace {

/**
 * Lower @p side's memoized replacement sequence (the span its memo
 * records) into slots runChain dispatches like block slots, closed by
 * the SeqEnd sentinel. A sequence with a slot outside the repertoire
 * (a syscall, a codeword, an invalid word, a DISE branch whose target
 * lies outside [0, length] and so traps when taken) lowers to one
 * SeqGeneric slot instead.
 */
void
lowerSeq(SlotSide &side)
{
    const ExpandMemo &m = side.memo;
    // A memoized span is one instantiation of its sequence, one
    // instruction per replacement slot (instantiateSeqInto).
    DISE_ASSERT(m.seq->insts.size() == m.numInsts,
                "memoized expansion span does not match its sequence");
    std::vector<TransOp> &ops = side.seq;
    ops.reserve(m.numInsts + 1);
    for (uint32_t s = 0; s < m.numInsts; ++s) {
        const DecodedInst &d = m.insts[s];
        TransOp op;
        op.inst = d;
        op.regs = d.timingRegs();
        op.side = static_cast<uint16_t>(s);
        // T.INSN / T.OP slots retire as the application's own
        // instruction (see execSeqSlotBody).
        op.trigger = m.seq->insts[s].isTriggerInsn ||
                     m.seq->insts[s].opDir == OpDirective::Trigger;
        const OpHandler h = baseHandler(d.op);
        if (h == OpHandler::DiseBranch) {
            const int64_t target = static_cast<int64_t>(s) + 1 + d.imm;
            if (target < 0 || target > static_cast<int64_t>(m.numInsts))
                break;
            op.handler = OpHandler::DiseBranch;
        } else if (h != OpHandler::NUM) {
            op.handler = static_cast<OpHandler>(
                static_cast<size_t>(h) +
                static_cast<size_t>(OpHandler::SeqNop));
        } else {
            break;
        }
        ops.push_back(op);
    }
    // An empty span lowers to SeqGeneric too, so it meets step()'s
    // overrun assertion.
    TransOp end;
    end.handler = OpHandler::SeqEnd;
    if (ops.size() != m.numInsts || ops.empty()) {
        ops.clear();
        end.handler = OpHandler::SeqGeneric;
    }
    ops.push_back(end);
}

/**
 * Stamp @p side's trace-record templates (SlotSide::tmpl) from its
 * lowered slots; @p triggerCls is the Engine slot's instruction class.
 */
void
buildSeqTemplates(SlotSide &side, OpClass triggerCls)
{
    const std::vector<TransOp> &ops = side.seq;
    const uint32_t len = static_cast<uint32_t>(ops.size() - 1);
    side.tmpl.resize(len);
    for (uint32_t s = 0; s < len; ++s) {
        DynInst &d = side.tmpl[s];
        d.disepc = s + 1;
        d.inst = ops[s].inst;
        d.regs = ops[s].regs;
        d.expanded = true;
        d.triggerSlot = ops[s].trigger;
        d.firstOfSeq = s == 0;
        d.seqLen = len;
    }
    if (len > 0) {
        side.tmpl[0].seqPredClass =
            seqPredClassOf(triggerCls, ops[len - 1].inst.cls);
    }
}

} // namespace

/*
 * The translated interpreter. Every slot ends in one indirect jump
 * through runChain's &&label table ("direct threading"; like the rest
 * of the tree this needs a GNU-compatible compiler). One table holds
 * the block handlers and the sequence handlers; an Engine slot whose
 * expansion replays its memo jumps into the sequence's lowered slots,
 * and their SeqEnd sentinel jumps back.
 *
 * Shape rules:
 *  - the straight-line handlers of both slot streams and their table
 *    entries are generated from the semantics tables
 *    (src/isa/semantics.hpp), in OpHandler order, through the SLOT_*
 *    effects execute() uses too;
 *  - every handler body is a brace block ending in a goto (dispatch, a
 *    trampoline label, or an exit);
 *  - the retirement counters are accumulated in locals and written
 *    back at every exit (and around any call that touches result_
 *    itself), keeping member read-modify-writes off the per-slot path
 *    (loads and stores, which few slots retire, update result_);
 *  - slot arrays end in a sentinel (End, SeqEnd), so the inner loop has
 *    no bounds check;
 *  - block handlers test the budget before dispatch; sequence handlers
 *    test it on entry, so running off a sequence's end completes it
 *    even with the budget exactly spent (step()'s check order).
 */
template <bool kEmit>
void
ExecCore::runChain(TransBlock *block, const TransOp *start, Addr pc,
                   uint64_t maxInsts)
{
    TransBlock *blk = block;
    const TransOp *t = start;
    // Trace epoch the running block was entered at (the cursor stamp).
    uint64_t epoch0 = traceEpoch_;
    // The successor PC handed to the `chain` trampoline.
    Addr nextPC = 0;
    // dyn is the absolute count the budget is tested against; app and
    // dise are deltas since the last flush (loads and stores, off the
    // per-slot path, go to result_ directly). app counts the block
    // slots' retirements, each an instruction the engine inspected
    // without an expand() call: they are accounted in bulk at chain
    // exit (inspected, see DiseEngine::noteInspected). An expansion's
    // trigger goes to result_.appInsts directly.
    uint64_t dyn = result_.dynInsts;
    uint64_t app = 0;
    uint64_t dise = 0;
    uint64_t inspected = 0;
    uint64_t chainFollows = 0;
    // Emission cursor (kEmit only), synced with emit_ at every flush
    // point so the Engine handler's callees see a current cursor.
    [[maybe_unused]] DynInst *eout = emit_;
    // The running lowered sequence: its Engine slot (pc stays at that
    // slot's PC, the trigger's), whether its expansion missed (slot 0's
    // records then carry seqPtMiss_ and friends), and its record
    // templates (kEmit only). While it runs, pc_ holds where fetch
    // resumes when it runs off its end: the trigger's successor, or a
    // trigger branch's deferred outcome.
    const TransOp *eng = nullptr;
    bool seqMissed = false;
    [[maybe_unused]] const DynInst *tmpl = nullptr;

#define CHAIN_FLUSH()                                                       \
    do {                                                                    \
        result_.dynInsts = dyn;                                             \
        result_.appInsts += app;                                            \
        inspected += app;                                                   \
        result_.diseInsts += dise;                                          \
        app = dise = 0;                                                     \
        if constexpr (kEmit)                                                \
            emit_ = eout;                                                   \
    } while (0)
#define CHAIN_RELOAD()                                                      \
    do {                                                                    \
        dyn = result_.dynInsts;                                             \
        if constexpr (kEmit)                                                \
            eout = emit_;                                                   \
    } while (0)
#define CHAIN_DISPATCH()                                                    \
    do {                                                                    \
        if (dyn >= maxInsts)                                                \
            goto budget_stop;                                               \
        goto *kTab[static_cast<size_t>(t->handler)];                        \
    } while (0)
    /* The pieces of a handler in each slot stream S: S##_CHECK opens
     * it, S##_RETIRE counts the retirement, S##_EMIT_BASE writes the
     * step()-identical trace record (kEmit call sites only; outcome
     * extras are the caller's), S##_TEXT_STORE follows a store into
     * text, and S##_NEXT dispatches the next slot. A block slot is an
     * application instruction at pc. Block slots test the budget in
     * CHAIN_DISPATCH. */
#define CHAIN_CHECK() (void)0
#define CHAIN_RETIRE()                                                      \
    do {                                                                    \
        ++dyn;                                                              \
        ++app;                                                              \
    } while (0)
#define CHAIN_EMIT_BASE()                                                   \
    do {                                                                    \
        *eout = DynInst{};                                                  \
        eout->pc = pc;                                                      \
        eout->inst = t->inst;                                               \
        eout->regs = t->regs;                                               \
    } while (0)
    /* A self-modifying store leaves the fast path: stale decodes and
     * traces are gone (possibly blocks of this very chain — parked on
     * the graveyard, so the cursor stays valid), and the rewritten
     * code must be re-translated before it executes. */
#define CHAIN_TEXT_STORE(addr, width)                                       \
    do {                                                                    \
        if (noteTextStore(addr, width)) {                                   \
            pc_ = pc + 4;                                                   \
            goto exit_flush;                                                \
        }                                                                   \
    } while (0)
#define CHAIN_NEXT()                                                        \
    do {                                                                    \
        ++t;                                                                \
        pc += 4;                                                            \
        CHAIN_DISPATCH();                                                   \
    } while (0)
    /* A sequence slot retires at the trigger's PC, as DISE-inserted
     * work unless it is a trigger slot. The budget test opens every
     * executing handler (the SeqEnd sentinel skips it) and parks the
     * sequence for the generic slot path. The record is a copy of the
     * slot's template. */
#define SEQ_CHECK()                                                         \
    do {                                                                    \
        if (dyn >= maxInsts)                                                \
            goto seq_park;                                                  \
    } while (0)
#define SEQ_RETIRE()                                                        \
    do {                                                                    \
        ++dyn;                                                              \
        dise += !t->trigger;                                                \
    } while (0)
#define SEQ_EMIT_BASE()                                                     \
    do {                                                                    \
        *eout = tmpl[t->side];                                              \
        eout->pc = pc;                                                      \
        if (seqMissed && t->side == 0) {                                    \
            eout->ptMiss = seqPtMiss_;                                      \
            eout->rtMiss = seqRtMiss_;                                      \
            eout->missPenalty = seqMissPenalty_;                            \
        }                                                                   \
    } while (0)
    /* The sequence itself lives in the engine's tables and keeps
     * running; SeqEnd leaves the loop if the store made its block
     * stale. */
#define SEQ_TEXT_STORE(addr, width) noteTextStore(addr, width)
#define SEQ_NEXT()                                                          \
    do {                                                                    \
        ++t;                                                                \
        goto *kTab[static_cast<size_t>(t->handler)];                        \
    } while (0)
    /* The straight-line handlers of stream S, one per semantics-table
     * row: @p effect is a row's register effect. */
#define ROW_PLAIN(S, label, effect)                                         \
    lbl_##label:                                                            \
    {                                                                       \
        S##_CHECK();                                                        \
        effect;                                                             \
        S##_RETIRE();                                                       \
        if constexpr (kEmit) {                                              \
            S##_EMIT_BASE();                                                \
            ++eout;                                                         \
        }                                                                   \
        S##_NEXT();                                                         \
    }
#define ROW_LOAD(S, label, width, signExtended)                             \
    lbl_##label:                                                            \
    {                                                                       \
        S##_CHECK();                                                        \
        const Addr addr = effAddr(t->inst);                                 \
        ++result_.loads;                                                    \
        writeReg(t->inst.ra, loadExtend(memory_.read(addr, width), width,   \
                                        signExtended));                     \
        S##_RETIRE();                                                       \
        if constexpr (kEmit) {                                              \
            S##_EMIT_BASE();                                                \
            eout->isMem = true;                                             \
            eout->memAddr = addr;                                           \
            ++eout;                                                         \
        }                                                                   \
        S##_NEXT();                                                         \
    }
#define ROW_STORE(S, label, width)                                          \
    lbl_##label:                                                            \
    {                                                                       \
        S##_CHECK();                                                        \
        const Addr addr = effAddr(t->inst);                                 \
        ++result_.stores;                                                   \
        memory_.write(addr, readReg(t->inst.ra), width);                    \
        S##_RETIRE();                                                       \
        if constexpr (kEmit) {                                              \
            S##_EMIT_BASE();                                                \
            eout->isMem = true;                                             \
            eout->isStore = true;                                           \
            eout->memAddr = addr;                                           \
            ++eout;                                                         \
        }                                                                   \
        S##_TEXT_STORE(addr, width);                                        \
        S##_NEXT();                                                         \
    }
#define CHAIN_ADDR(name, OP, expr)                                          \
    ROW_PLAIN(CHAIN, name, SLOT_ADDR(t->inst, expr))
#define CHAIN_OPERATE(name, OP, expr)                                       \
    ROW_PLAIN(CHAIN, name, SLOT_OPERATE(t->inst, expr))
#define CHAIN_CMOV(name, OP, cond)                                          \
    ROW_PLAIN(CHAIN, name, SLOT_CMOV(t->inst, cond))
#define CHAIN_LOAD(name, OP, width, sx) ROW_LOAD(CHAIN, name, width, sx)
#define CHAIN_STORE(name, OP, width) ROW_STORE(CHAIN, name, width)
#define SEQ_ADDR(name, OP, expr)                                            \
    ROW_PLAIN(SEQ, Seq##name, SLOT_ADDR(t->inst, expr))
#define SEQ_OPERATE(name, OP, expr)                                         \
    ROW_PLAIN(SEQ, Seq##name, SLOT_OPERATE(t->inst, expr))
#define SEQ_CMOV(name, OP, cond)                                            \
    ROW_PLAIN(SEQ, Seq##name, SLOT_CMOV(t->inst, cond))
#define SEQ_LOAD(name, OP, width, sx) ROW_LOAD(SEQ, Seq##name, width, sx)
#define SEQ_STORE(name, OP, width) ROW_STORE(SEQ, Seq##name, width)
    /* The record of a retiring control slot of stream S. */
#define EMIT_CONTROL(S, isTaken, target)                                    \
    do {                                                                    \
        if constexpr (kEmit) {                                              \
            S##_EMIT_BASE();                                                \
            eout->isAppControl = true;                                      \
            eout->taken = (isTaken);                                        \
            eout->actualTarget = (target);                                  \
            ++eout;                                                         \
        }                                                                   \
    } while (0)
#define ROW_LABELS(prefix)                                                  \
    &&lbl_##prefix##Nop, DISE_ADDR_OPS(ROW_LABEL_##prefix)                  \
        DISE_OPERATE_OPS(ROW_LABEL_##prefix)                                \
            DISE_CMOV_OPS(ROW_LABEL_##prefix)                               \
                DISE_LOAD_OPS(ROW_LABEL_##prefix)                           \
                    DISE_STORE_OPS(ROW_LABEL_##prefix)
#define ROW_LABEL_(name, ...) &&lbl_##name,
#define ROW_LABEL_Seq(name, ...) &&lbl_Seq##name,

    static void *const kTab[] = {
        ROW_LABELS()
        &&lbl_CondBranch, &&lbl_DirBranch, &&lbl_Jump, &&lbl_Engine,
        &&lbl_Fused, &&lbl_End,
        ROW_LABELS(Seq)
        &&lbl_SeqCondBranch, &&lbl_SeqDirBranch, &&lbl_SeqJump,
        &&lbl_DiseBranch, &&lbl_SeqGeneric, &&lbl_SeqEnd,
    };
    static_assert(sizeof(kTab) / sizeof(kTab[0]) ==
                      static_cast<size_t>(OpHandler::NUM),
                  "handler table out of sync with OpHandler");
    CHAIN_DISPATCH();

    ROW_PLAIN(CHAIN, Nop, (void)0)
    DISE_ADDR_OPS(CHAIN_ADDR)
    DISE_OPERATE_OPS(CHAIN_OPERATE)
    DISE_CMOV_OPS(CHAIN_CMOV)
    DISE_LOAD_OPS(CHAIN_LOAD)
    DISE_STORE_OPS(CHAIN_STORE)
    lbl_CondBranch:
    {
        const bool taken = condTaken(t->inst.op, readReg(t->inst.ra));
        const Addr target = t->inst.branchTarget(pc);
        CHAIN_RETIRE();
        // actualTarget is stamped even when not taken (execute() sets
        // it unconditionally for conditional branches).
        EMIT_CONTROL(CHAIN, taken, target);
        if (!taken)
            CHAIN_NEXT();
        noteControlTarget(target);
        nextPC = target;
        goto chain;
    }
    lbl_DirBranch:
    lbl_Jump:
    {
        // A jump reads its target before the link write (execute()
        // order; the two may name the same register).
        const Addr target = t->handler == OpHandler::Jump
                                ? readReg(t->inst.rb) & ~Addr(3)
                                : t->inst.branchTarget(pc);
        writeReg(t->inst.ra, pc + 4);
        CHAIN_RETIRE();
        EMIT_CONTROL(CHAIN, true, target);
        noteControlTarget(target);
        nextPC = target;
        goto chain;
    }
    lbl_Fused:
    {
        // One record, two retirements (and natively the engine would
        // have inspected both constituents); loads and stores count
        // from the record, as in execFusedPair.
        DynInst fdyn;
        const bool taken = executeFused(t->inst, pc, fdyn);
        dyn += 2;
        app += 2;
        result_.loads += fdyn.isMem && !fdyn.isStore;
        result_.stores += fdyn.isStore;
        ++statFusedPairs_;
        ++statFusedFamily_[fusedFamilyIndex(t->inst.op)];
        if constexpr (kEmit) {
            fdyn.pc = pc;
            fdyn.inst = t->inst;
            fdyn.regs = t->regs;
            *eout = fdyn;
            ++eout;
        }
        if (fdyn.isStore && noteTextStore(fdyn.memAddr, 8)) {
            // Self-modifying store, same conservative width as the
            // step path: leave the fast path so the rewritten code is
            // re-translated before it executes.
            pc_ = pc + 8;
            goto exit_flush;
        }
        if (!taken) {
            ++t;
            pc += 8;
            CHAIN_DISPATCH();
        }
        nextPC = fdyn.actualTarget;
        goto chain;
    }
    lbl_Engine:
    {
        DiseEngine &de = controller_->engine();
        SlotSide &side = blk->side[t->side];
        if (de.expandFast(side.memo)) {
            if (side.memo.kind == ExpandMemo::NoMatch)
                goto engine_plain;
            seqMissed = false;
        } else {
            // Full inspection; refresh the slot's memo from its outcome
            // so the next dynamic instance takes the memoized path.
            const ExpandResult r = de.expand(t->inst, pc);
            de.fillMemo(side.memo, t->inst, r);
            if (!r.expanded)
                goto engine_plain;
            if (side.memo.kind != ExpandMemo::Expanded) {
                // Not replayable (a scratch-backed or garbled span, or
                // corruption resident): the generic slot path runs it.
                pc_ = pc;
                CHAIN_FLUSH();
                adoptExpansion(r);
                goto seq_generic;
            }
            seqMissed = true;
            seqPtMiss_ = r.ptMiss;
            seqRtMiss_ = r.rtMiss;
            seqMissPenalty_ = r.missPenalty;
        }
        // The memo's span: run its lowered slots in this loop. The
        // trigger retires as one application instruction.
        ++result_.appInsts;
        ++result_.expansions;
        if (side.seq.empty())
            lowerSeq(side);
        if constexpr (kEmit) {
            if (side.tmpl.empty())
                buildSeqTemplates(side, t->inst.cls);
            tmpl = side.tmpl.data();
        }
        eng = t;
        pc_ = pc + 4;
        t = side.seq.data();
        goto *kTab[static_cast<size_t>(t->handler)];
    }
    lbl_End:
    {
        nextPC = pc; // pc is already past the last covered slot
        goto chain;
    }

    ROW_PLAIN(SEQ, SeqNop, (void)0)
    DISE_ADDR_OPS(SEQ_ADDR)
    DISE_OPERATE_OPS(SEQ_OPERATE)
    DISE_CMOV_OPS(SEQ_CMOV)
    DISE_LOAD_OPS(SEQ_LOAD)
    DISE_STORE_OPS(SEQ_STORE)
    lbl_SeqCondBranch:
    {
        SEQ_CHECK();
        const bool taken = condTaken(t->inst.op, readReg(t->inst.ra));
        const Addr target = t->inst.branchTarget(pc);
        SEQ_RETIRE();
        EMIT_CONTROL(SEQ, taken, target);
        if (taken)
            noteControlTarget(target);
        if (t->trigger) {
            // Trigger branch: later slots ride its path; its outcome
            // applies when the sequence ends.
            pc_ = taken ? target : pc + 4;
            SEQ_NEXT();
        }
        if (!taken)
            SEQ_NEXT();
        // Non-trigger branch: post-branch slots belong to the
        // non-taken path, so a taken branch discards them.
        if constexpr (kEmit)
            eout[-1].lastOfSeq = true;
        pc_ = target;
        goto seq_done;
    }
    lbl_SeqDirBranch:
    lbl_SeqJump:
    {
        SEQ_CHECK();
        const Addr target = t->handler == OpHandler::SeqJump
                                ? readReg(t->inst.rb) & ~Addr(3)
                                : t->inst.branchTarget(pc);
        writeReg(t->inst.ra, pc + 4);
        SEQ_RETIRE();
        EMIT_CONTROL(SEQ, true, target);
        noteControlTarget(target);
        pc_ = target;
        if (t->trigger)
            SEQ_NEXT();
        if constexpr (kEmit)
            eout[-1].lastOfSeq = true;
        goto seq_done;
    }
    lbl_DiseBranch:
    {
        SEQ_CHECK();
        const bool taken = t->inst.op == Opcode::DBR ||
                           condTaken(t->inst.op, readReg(t->inst.ra));
        SEQ_RETIRE();
        if (!taken) {
            if constexpr (kEmit) {
                SEQ_EMIT_BASE();
                ++eout;
            }
            SEQ_NEXT();
        }
        const int64_t offset = 1 + t->inst.imm;
        if constexpr (kEmit) {
            SEQ_EMIT_BASE();
            eout->taken = true;
            eout->diseTarget = static_cast<uint16_t>(t->side + offset);
            ++eout;
        }
        // Lowering proved the target in [0, length]; length lands on
        // SeqEnd. Only a backward branch can loop, so it alone polls
        // for a cancel (DESIGN.md section 13.4).
        t += offset;
        if (offset <= 0 && cancelPollDue(dyn))
            goto seq_park;
        goto *kTab[static_cast<size_t>(t->handler)];
    }
    lbl_SeqGeneric:
        goto seq_park;
    lbl_SeqEnd:
    {
        // Running off the end completes the sequence: step() marks the
        // final retiring slot lastOfSeq (slot 0 always retires first).
        if constexpr (kEmit)
            eout[-1].lastOfSeq = true;
        goto seq_done;
    }

seq_done:
    // The sequence completed: go on after its Engine slot, or chain to
    // its redirect target.
    t = eng;
    goto engine_next;

seq_park:
    // A lowered sequence leaves the loop at slot t: write the in-flight
    // state the generic slot path (execSeqSlot) resumes from. The span
    // and spec are the memo's, which the Engine slot just replayed or
    // refilled.
    {
        const ExpandMemo &m = blk->side[eng->side].memo;
        seqInsts_ = m.insts;
        seqLen_ = m.numInsts;
        seqSpec_ = m.seq;
        seqIdx_ = t->side;
        seqTriggerPC_ = pc;
        seqNext_ = pc_;
        if (!seqMissed) {
            seqPtMiss_ = false;
            seqRtMiss_ = false;
            seqMissPenalty_ = 0;
        }
        pc_ = pc;
        const bool generic = t->handler == OpHandler::SeqGeneric;
        t = eng;
        if (!generic)
            goto seq_suspended; // budget or deadline
    }
    CHAIN_FLUSH();
    goto seq_generic;

engine_plain:
    // Pass-through (or trap: checked below via trapped_).
    pc_ = pc;
    CHAIN_FLUSH();
    if constexpr (kEmit) {
        if (execAppInst<true>(t->inst, emit_))
            ++emit_;
    } else {
        execAppInst<false>(t->inst, nullptr);
    }
    goto engine_reload;

seq_generic:
    // The in-flight sequence runs on the generic slot path (counters
    // flushed; t is its Engine slot).
    while (seqSpec_ && result_.dynInsts < maxInsts &&
           !cancelPollDue(result_.dynInsts)) {
        if constexpr (kEmit) {
            if (execSeqSlot<true>(emit_))
                ++emit_;
        } else {
            execSeqSlot<false>(nullptr);
        }
    }
engine_reload:
    CHAIN_RELOAD();
    if (exited_ || trapped_)
        goto exit_flush;
    if (seqSpec_)
        goto seq_suspended;
engine_next:
    if (traceEpoch_ != epoch0)
        goto exit_flush; // a sequence store rewrote text (pc_ set)
    if (pc_ == pc + 4) {
        ++t;
        pc += 4;
        CHAIN_DISPATCH();
    }
    // Expansion redirect: chain straight into the successor block, so
    // a hot memoized expansion costs zero dispatcher trips.
    nextPC = pc_;
    goto chain;

seq_suspended:
    // Budget or deadline mid-sequence: the dispatcher drains the rest,
    // then re-enters after the Engine slot t if the sequence fell
    // through. epoch0, not the live epoch: a store the sequence already
    // made into this block must kill the cursor, since the block may
    // now be parked for freeing.
    resume_ = {blk, t + 1, pc + 4, epoch0};
    goto exit_flush;

chain:
    // Block exit with a known successor PC: look the successor up and
    // keep executing without a dispatcher round trip.
    if (cancelPollDue(dyn)) {
        // Deadline observed at a block boundary — a precise
        // instruction boundary; run() classifies the outcome.
        pc_ = nextPC;
        goto exit_flush;
    }
    // blockAt may translate, and evict the table (an epoch bump).
    blk = blockAt(nextPC);
    if (blk == nullptr) {
        pc_ = nextPC; // untranslatable successor: dispatcher
        goto exit_flush;
    }
    t = blk->ops.data();
    ++chainFollows;
    pc = nextPC;
    epoch0 = traceEpoch_;
    CHAIN_DISPATCH();

budget_stop:
    // Usually mid-block (a fill batch ends every kFeedBatch records):
    // the cursor lets the next dispatcher trip carry on in this block.
    pc_ = pc;
    resume_ = {blk, t, pc, epoch0};
exit_flush:
    CHAIN_FLUSH();
    statChainFollows_ += chainFollows;
    if (controller_ != nullptr && inspected != 0)
        controller_->engine().noteInspected(inspected);

#undef CHAIN_FLUSH
#undef CHAIN_RELOAD
#undef CHAIN_DISPATCH
#undef CHAIN_CHECK
#undef CHAIN_RETIRE
#undef CHAIN_EMIT_BASE
#undef CHAIN_TEXT_STORE
#undef CHAIN_NEXT
#undef CHAIN_ADDR
#undef CHAIN_OPERATE
#undef CHAIN_CMOV
#undef CHAIN_LOAD
#undef CHAIN_STORE
#undef SEQ_CHECK
#undef SEQ_RETIRE
#undef SEQ_EMIT_BASE
#undef SEQ_TEXT_STORE
#undef SEQ_NEXT
#undef SEQ_ADDR
#undef SEQ_OPERATE
#undef SEQ_CMOV
#undef SEQ_LOAD
#undef SEQ_STORE
#undef ROW_PLAIN
#undef ROW_LOAD
#undef ROW_STORE
#undef EMIT_CONTROL
#undef ROW_LABELS
#undef ROW_LABEL_
#undef ROW_LABEL_Seq
}

#undef SLOT_ADDR
#undef SLOT_OPERATE
#undef SLOT_CMOV

template <bool kEmit>
void
ExecCore::runUntil(uint64_t maxInsts)
{
    if (traceEnabled_) {
        runTranslated<kEmit>(maxInsts);
        return;
    }
    // step() output when not emitting; fillTrace writes into its ring.
    DynInst scratch;
    while (result_.dynInsts < maxInsts &&
           stepUnpinned(kEmit ? *emit_ : scratch)) {
        if constexpr (kEmit)
            ++emit_;
        if ((result_.dynInsts & 0x3ff) == 0 && cancelRequested())
            break;
    }
}

template <bool kEmit>
void
ExecCore::runTranslated(uint64_t maxInsts)
{
    DynInst scratch;
    while (!exited_ && !trapped_ && result_.dynInsts < maxInsts &&
           !cancelRequested()) {
        // Every block records which slots expand under the tables it
        // was translated against; the generation cannot move inside
        // runChain, so one compare per trip keeps the table current.
        if (controller_ && controller_->engine().generation() != blockGen_) {
            blockGen_ = controller_->engine().generation();
            retireBlocks();
        }
        // Dispatcher top is the one point provably outside any chain
        // (no runChain frame live), so retired blocks parked by
        // invalidation/eviction can finally be freed.
        retired_.clear();
        if (seqSpec_) {
            // Resumed mid-sequence (a budget or deadline stop inside an
            // expansion, or resumeAt): drain it a slot at a time.
            if (execSeqSlot<kEmit>(emit_) && kEmit)
                ++emit_;
            continue;
        }
        if (resume_.block != nullptr) {
            // Valid while pc_ and the trace epoch still match; anything
            // else discards it.
            const ChainCursor c = std::exchange(resume_, ChainCursor{});
            if (c.pc == pc_ && c.epoch == traceEpoch_) {
                runChain<kEmit>(c.block, c.op, c.pc, maxInsts);
                continue;
            }
        }
        TransBlock *block = blockAt(pc_);
        if (block == nullptr) {
            // Out-of-text (traps) and unaligned fetches, and a leading
            // untranslatable instruction (syscall, codeword, ...): the
            // full machinery.
            if (!stepUnpinned(kEmit ? *emit_ : scratch))
                break;
            if constexpr (kEmit)
                ++emit_;
            continue;
        }
        runChain<kEmit>(block, block->ops.data(), pc_, maxInsts);
    }
}

size_t
ExecCore::fillTrace(DynInst *ring, size_t cap, uint64_t maxDyn)
{
    if (exited_ || trapped_ || cap == 0)
        return 0;
    // emit_ is live for the duration of the call; every exit from the
    // interpreters syncs it. The budget is in retirement units: every
    // retired instruction emits at most one record, so bounding
    // dynInsts bounds the ring too.
    emit_ = ring;
    runUntil<true>(std::min(maxDyn, result_.dynInsts + cap));
    pinSuspendedSeq();
    const size_t n = static_cast<size_t>(emit_ - ring);
    emit_ = nullptr;
    return n;
}

RunResult
ExecCore::run(uint64_t maxInsts)
{
    runUntil<false>(maxInsts);
    // Watchdog expiry is an architected, classifiable outcome: the
    // instruction budget ran out — or an external deadline cancelled
    // the run — with the program still live.
    if (!exited_ && !trapped_ &&
        (result_.dynInsts >= maxInsts || cancelRequested())) {
        result_.outcome = RunOutcome::Hang;
    }
    // If the budget (or a cancel) suspended us mid-replacement-sequence,
    // the in-flight sequence state points into engine-owned storage that
    // the application may invalidate (install(), flushTables()) before
    // resuming. Copy it into core-owned storage.
    pinSuspendedSeq();
    return result_;
}

} // namespace dise
