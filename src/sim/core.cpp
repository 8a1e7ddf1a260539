#include "src/sim/core.hpp"

#include <algorithm>
#include <utility>

#include "src/common/logging.hpp"
#include "src/isa/disasm.hpp"
#include "src/isa/semantics.hpp"
#include "src/sim/snapshot.hpp"

namespace dise {

namespace {

/** Longest straight-line run one translated block may cover. */
constexpr size_t kMaxBlockLen = 128;

/**
 * Map an opcode to its flat interpreter handler (writing the access
 * size for stores); OpHandler::NUM when the opcode is outside the
 * translated repertoire (syscalls, codewords, reserved/invalid
 * encodings). Shared by block and replacement-sequence translation so
 * the two interpreters agree on the repertoire.
 */
OpHandler
baseHandler(Opcode op, uint8_t &size)
{
    switch (op) {
      case Opcode::NOP: return OpHandler::Nop;
#define ROW_CASE(name, OP, ...) case Opcode::OP: return OpHandler::name;
#define STORE_CASE(OP, width)                                               \
      case Opcode::OP: size = width; return OpHandler::Store;
      DISE_ADDR_OPS(ROW_CASE)
      DISE_OPERATE_OPS(ROW_CASE)
      DISE_CMOV_OPS(ROW_CASE)
      DISE_LOAD_OPS(ROW_CASE)
      DISE_STORE_OPS(STORE_CASE)
#undef ROW_CASE
#undef STORE_CASE
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BLE: case Opcode::BGT: case Opcode::BGE:
      case Opcode::BLBC: case Opcode::BLBS:
        return OpHandler::CondBranch;
      case Opcode::BR: case Opcode::BSR:
        return OpHandler::DirBranch;
      case Opcode::JMP: case Opcode::JSR: case Opcode::RET:
        return OpHandler::Jump;
      case Opcode::DBEQ: case Opcode::DBNE: case Opcode::DBLT:
      case Opcode::DBGE:
        return OpHandler::DiseCond;
      case Opcode::DBR:
        return OpHandler::DiseBr;
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
    clearFusionMap();
    ++traceEpoch_;
    for (auto &kv : traces_) {
        if (kv.second)
            retired_.push_back(std::move(kv.second));
    }
    traces_.clear();
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
    invalidateFusionRange(addr, size);
    invalidateTraceRange(addr, size);
}

void
ExecCore::setFusionEnabled(bool on)
{
    if (on == fusionEnabled_)
        return;
    fusionEnabled_ = on;
    // Translated blocks bake fusion decisions into their slots, so the
    // whole trace cache (and the memoized decisions) must go.
    invalidateDecodeCache();
}

void
ExecCore::clearFusionMap()
{
    fusionState_.clear();
    fusionInst_.clear();
}

void
ExecCore::invalidateFusionRange(Addr addr, unsigned size)
{
    if (fusionState_.empty())
        return;
    const Addr end = std::min<Addr>(addr + size, prog_.textEnd());
    Addr first = std::max(addr, prog_.textBase) & ~Addr(3);
    // A pair starting one word earlier spans into the written range.
    if (first >= prog_.textBase + 4)
        first -= 4;
    for (Addr a = first; a < end; a += 4) {
        const size_t idx = static_cast<size_t>((a - prog_.textBase) >> 2);
        if (idx < fusionState_.size())
            fusionState_[idx] = 0;
    }
}

const DecodedInst *
ExecCore::fusionAt(Addr pc)
{
    if (controller_) {
        // Coverage feeds the decision, so any table install or flush
        // (generation bump) restarts the memo from scratch.
        const uint64_t gen = controller_->engine().generation();
        if (gen != fusionGen_) {
            fusionGen_ = gen;
            clearFusionMap();
        }
    }
    if (fusionState_.empty()) {
        fusionState_.assign(decoded_.size(), 0);
        fusionInst_.assign(decoded_.size(), DecodedInst{});
    }
    const Addr off = pc - prog_.textBase;
    if ((off & 3) != 0)
        return nullptr;
    const size_t idx = static_cast<size_t>(off >> 2);
    if (idx + 1 >= fusionState_.size())
        return nullptr; // the pair would cross the end of text
    if (fusionState_[idx] == 1)
        return nullptr;
    if (fusionState_[idx] == 2)
        return &fusionInst_[idx];
    const DecodedInst &first = fetchDecode(pc);
    const DecodedInst &second = fetchDecode(pc + 4);
    bool ok = fusePair(first, second, &fusionInst_[idx]);
    if (ok && controller_) {
        // Expansion takes priority over contraction: a covered opcode
        // must reach the engine exactly as fetched.
        const DiseEngine &eng = controller_->engine();
        if (eng.opcodeCovered(first.op) || eng.opcodeCovered(second.op))
            ok = false;
    }
    fusionState_[idx] = ok ? 2 : 1;
    return ok ? &fusionInst_[idx] : nullptr;
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
ExecCore::invalidateTraceRange(Addr addr, unsigned size)
{
    // The epoch bump orphans every dispatch entry and chain edge, so
    // nothing re-enters a dropped block; the graveyard keeps the
    // storage alive in case the interpreter is currently *inside* one
    // (SMC invalidation runs mid-chain). See the retired_ member doc.
    ++traceEpoch_;
    if (traces_.empty())
        return;
    const Addr end = addr + size;
    // With fusion on, a block's last slot also read the word past
    // coveredEnd() to decide "no fuse"; a store there must drop the
    // block with the decision (invalidateFusionRange).
    const Addr reach = fusionEnabled_ ? 4 : 0;
    for (auto it = traces_.begin(); it != traces_.end();) {
        const TransBlock &b = *it->second;
        if (b.entryPC < end && b.coveredEnd() + reach > addr) {
            retired_.push_back(std::move(it->second));
            it = traces_.erase(it);
        } else {
            ++it;
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
 * Register effect of one straight-line semantics-table row on slot @p s
 * (a DecodedInst, SeqOp or TransOp): each binds the operand names the
 * row's expression is written over. Shared by execute() and both
 * translated interpreters.
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
#define EXEC_STORE(OP, width) case Opcode::OP:
      DISE_ADDR_OPS(EXEC_ADDR)
      DISE_OPERATE_OPS(EXEC_OPERATE)
      DISE_CMOV_OPS(EXEC_CMOV)
      DISE_LOAD_OPS(EXEC_LOAD)
      DISE_STORE_OPS(EXEC_STORE) {
        dyn.isMem = true;
        dyn.isStore = true;
        dyn.memAddr = effAddr(inst);
        ++result_.stores;
        const unsigned size = memWidth(inst.op);
        memory_.write(dyn.memAddr, readReg(inst.ra), size);
        noteTextStore(dyn.memAddr, size);
        break;
      }
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

    // An explicit control transfer into the program's "error" symbol is
    // the architected signature of an ACF-detected violation (MFI
    // segment matching, watchpoint assertions): count it so callers can
    // distinguish a detected fault from a normal exit.
    if (dyn.isAppControl && dyn.taken && errorAddr_ != 0 &&
        dyn.actualTarget == errorAddr_) {
        ++result_.acfDetections;
    }
}

void
ExecCore::adoptExpansion(const ExpandResult &r)
{
    seqInsts_ = r.insts;
    seqLen_ = r.numInsts;
    seqSpec_ = r.seq;
    seqIdx_ = 0;
    seqTriggerPC_ = pc_;
    seqHasPendingOutcome_ = false;
    pendingExpand_ = r;
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
    seqHasPendingOutcome_ = false;
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
    if constexpr (kEmit)
        *out = dyn;
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
        if (dyn.taken && errorAddr_ != 0 &&
            dyn.actualTarget == errorAddr_) {
            ++result_.acfDetections;
        }
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
    if constexpr (kEmit)
        *out = dyn;
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
            if (const DecodedInst *fz = fusionAt(pc_))
                return execFusedPair<true>(*fz, &out);
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
        dyn.expanded = true;
        dyn.triggerSlot = triggerSlot;
        dyn.firstOfSeq = (slot == 0);
        dyn.seqLen = seqLen_;
        if (slot == 0) {
            dyn.ptMiss = pendingExpand_.ptMiss;
            dyn.rtMiss = pendingExpand_.rtMiss;
            dyn.missPenalty = pendingExpand_.missPenalty;
            // Sequence-level prediction class (DynInst::seqPredClass).
            const DecodedInst &trigger = fetchDecode(seqTriggerPC_);
            if (isControlClass(trigger.cls)) {
                dyn.seqPredClass = trigger.cls;
            } else if (seqLen_ > 0 &&
                       isControlClass(seqInsts_[seqLen_ - 1].cls)) {
                dyn.seqPredClass = seqInsts_[seqLen_ - 1].cls;
            }
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
            seqHasPendingOutcome_ = true;
            seqPendingTaken_ = dyn.taken;
            seqPendingTarget_ = dyn.actualTarget;
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
        if (!exited_) {
            if (haveRedirect) {
                pc_ = redirect;
            } else if (seqHasPendingOutcome_ && seqPendingTaken_) {
                pc_ = seqPendingTarget_;
            } else {
                pc_ = seqTriggerPC_ + 4;
            }
        }
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
        const uint64_t budget =
            result_.dynInsts + (target - result_.appInsts);
        if (traceEnabled_) {
            runTranslated<false>(budget);
        } else {
            DynInst dyn;
            while (result_.dynInsts < budget && stepUnpinned(dyn)) {
                if ((result_.dynInsts & 0x3ff) == 0 && cancelRequested())
                    break;
            }
        }
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
    seqIdx_ = disepc - 1;
    pendingExpand_ = r;
    pendingExpand_.missPenalty = 0; // already charged before the trap
}

std::shared_ptr<const TransBlock>
ExecCore::translateBlock(Addr entry)
{
    auto block = std::make_shared<TransBlock>();
    block->entryPC = entry;
    block->engineGen =
        controller_ ? controller_->engine().generation() : 0;

    Addr pc = entry;
    while (block->ops.size() < kMaxBlockLen && prog_.inText(pc)) {
        // The same per-PC fusion decision step() takes, baked into one
        // slot covering two words (see the numInsts accounting below).
        const DecodedInst *fz = fusionEnabled_ ? fusionAt(pc) : nullptr;
        const DecodedInst &d = fz ? *fz : fetchDecode(pc);

        TransOp op;
        op.op = d.op;
        op.ra = d.ra;
        op.rb = d.rb;
        op.rc = d.rc;
        op.useLit = d.useLit;
        op.imm = d.imm;
        op.inst = d;

        if (fz) {
            op.handler = OpHandler::Fused;
        } else if (controller_ &&
                   controller_->engine().opcodeCovered(d.op)) {
            // The engine may expand this instruction; decide at run
            // time. A control trigger may also redirect, so it ends the
            // static block either way.
            op.handler = OpHandler::Engine;
        } else {
            op.handler = baseHandler(d.op, op.size);
            if (op.handler == OpHandler::NUM ||
                op.handler == OpHandler::DiseCond ||
                op.handler == OpHandler::DiseBr) {
                // Syscalls, codewords, DISE branches, reserved/invalid
                // encodings: end the block; the dispatcher executes
                // them through step(), which models their traps and
                // side effects.
                break;
            }
            if (op.handler == OpHandler::CondBranch ||
                op.handler == OpHandler::DirBranch)
                op.target = d.branchTarget(pc);
        }
        block->ops.push_back(op);
        pc += fz ? 8 : 4;
        if (d.isControl())
            break; // branches, jumps and fused compare+branch end a block
    }
    // Words covered, not slots: every translated slot advanced pc by
    // its own width (4, or 8 for a fused pair), so coveredEnd() keeps
    // seeing the fused second words for SMC overlap checks.
    block->numInsts = static_cast<uint32_t>((pc - entry) / 4);
    if (!block->ops.empty()) {
        // Close the slot array with the End sentinel (the fall-through
        // exit) so the interpreter needs no bounds check.
        TransOp end;
        end.handler = OpHandler::End;
        block->ops.push_back(end);
    }
    return block;
}

std::shared_ptr<const TransBlock>
ExecCore::lookupBlock(Addr pc)
{
    const uint64_t gen =
        controller_ ? controller_->engine().generation() : 0;
    auto it = traces_.find(pc);
    if (it == traces_.end()) {
        if (traces_.size() >= traceBlockCap_) {
            // Cache pressure: evict the whole map (rare — the cap is
            // far above any real text footprint) rather than maintain
            // an LRU on the hot path. The epoch bump orphans every
            // dispatch entry and chain edge into the evicted blocks;
            // the graveyard keeps them alive through any chain
            // currently on the stack (this path runs mid-chain via
            // chainTarget).
            ++traceEpoch_;
            ++statTraceEvictions_;
            for (auto &kv : traces_) {
                if (kv.second)
                    retired_.push_back(std::move(kv.second));
            }
            traces_.clear();
        }
        it = traces_.emplace(pc, nullptr).first;
    }
    if (!it->second || it->second->engineGen != gen) {
        if (it->second) {
            // Generation-stale block: park it rather than destroy it.
            // Its stale stamp already keeps every edge and dispatch
            // entry from re-entering it, but the interpreter may still
            // be executing it right now (a mid-chain engine-generation
            // bump), and pre-chaining code destroyed it here — the
            // DispatchEntry::block dangle this PR's bugfix sweep
            // closes.
            retired_.push_back(std::move(it->second));
        }
        it->second = translateBlock(pc);
        ++statBlocksTranslated_;
    }
    return it->second;
}

const TransBlock *
ExecCore::chainTarget(Addr pc)
{
    if ((pc & 3) != 0 || pc < prog_.textBase || pc >= prog_.textEnd())
        return nullptr; // out-of-text successors run through step()
    const TransBlock *b = lookupBlock(pc).get();
    return b->numInsts == 0 ? nullptr : b;
}

namespace {

/**
 * Lower a memoized replacement sequence into SeqOps. Leaves
 * @c st.usable false (fast path declines, generic path runs) when any
 * slot is outside the repertoire: syscalls, codewords, invalid
 * encodings.
 */
void
translateSeq(const ExpandResult &r, SeqTrans &st, uint64_t gen,
             OpClass triggerCls)
{
    st.insts = r.insts;
    st.numInsts = r.numInsts;
    st.gen = gen;
    st.usable = false;
    st.ops.clear();
    st.tmpl.clear();
    if (r.seq == nullptr || r.seq->insts.size() != r.numInsts)
        return;
    st.ops.reserve(r.numInsts + 1);
    for (uint32_t s = 0; s < r.numInsts; ++s) {
        const DecodedInst &d = r.insts[s];
        SeqOp op;
        op.op = d.op;
        op.ra = d.ra;
        op.rb = d.rb;
        op.rc = d.rc;
        op.useLit = d.useLit;
        op.imm = d.imm;
        // T.INSN / T.OP slots retire as the application's own
        // instruction (see execSeqSlotBody).
        op.trigger = r.seq->insts[s].isTriggerInsn ||
                     r.seq->insts[s].opDir == OpDirective::Trigger;
        op.handler = baseHandler(d.op, op.size);
        if (op.handler == OpHandler::NUM) {
            st.ops.clear();
            return;
        }
        if (op.handler == OpHandler::DiseCond ||
            op.handler == OpHandler::DiseBr) {
            const int64_t target =
                static_cast<int64_t>(s) + 1 + d.imm;
            op.diseValid =
                target >= 0 && target <= static_cast<int64_t>(r.numInsts);
            op.diseTarget =
                op.diseValid ? static_cast<uint32_t>(target) : 0;
        }
        st.ops.push_back(op);
    }
    // End sentinel: running off the sequence (including a DISE branch
    // targeting slot == length) lands here and completes it.
    SeqOp end;
    end.handler = OpHandler::End;
    st.ops.push_back(end);
    // Trace-record templates: everything static for the sequence is
    // stamped once here; the emitting interpreter copies a template and
    // fills in only the per-execution fields (see SEQ_EMIT_BASE).
    st.tmpl.resize(r.numInsts);
    for (uint32_t s = 0; s < r.numInsts; ++s) {
        DynInst &d = st.tmpl[s];
        d.disepc = s + 1;
        d.inst = r.insts[s];
        d.expanded = true;
        d.triggerSlot = st.ops[s].trigger;
        d.firstOfSeq = s == 0;
        d.seqLen = r.numInsts;
    }
    // Sequence-level prediction class (see DynInst::seqPredClass): a
    // translation-time constant of (trigger, sequence), so the emitting
    // interpreter never recomputes it. execSeqSlotBody derives the
    // identical value per visit on the generic path.
    OpClass predCls = OpClass::Nop;
    if (isControlClass(triggerCls))
        predCls = triggerCls;
    else if (r.numInsts > 0 && isControlClass(r.insts[r.numInsts - 1].cls))
        predCls = r.insts[r.numInsts - 1].cls;
    if (r.numInsts > 0)
        st.tmpl[0].seqPredClass = predCls;
    st.usable = true;
}

} // namespace

const SeqTrans *
ExecCore::seqTransFor(const TransOp &t)
{
    const ExpandResult &r = pendingExpand_;
    if (!r.memoized)
        return nullptr; // span contents may differ call to call
    SeqTrans &st = t.seqCache;
    const uint64_t gen = controller_->engine().generation();
    if (st.insts != r.insts || st.numInsts != r.numInsts ||
        st.gen != gen)
        translateSeq(r, st, gen, t.inst.cls);
    return st.usable ? &st : nullptr;
}

/*
 * Dispatch scaffolding for the two translated interpreters (runSeqFast
 * and runChain). Every slot ends in one indirect jump through a
 * per-function &&label table ("direct threading"; like the rest of the
 * tree this needs a GNU-compatible compiler).
 *
 * Shape rules both interpreters follow:
 *  - the straight-line handlers and their table entries are generated
 *    from the semantics tables (src/isa/semantics.hpp), in OpHandler
 *    order, through the SLOT_* effects execute() uses too;
 *  - every handler body is a brace block ending in a goto (dispatch,
 *    a trampoline label, or an exit);
 *  - architectural counters are accumulated in locals and written back
 *    at every exit (and around any call that touches result_ itself),
 *    keeping the member read-modify-writes off the per-slot path;
 *  - slot arrays end in an OpHandler::End sentinel, so the inner loop
 *    has no bounds check.
 */
#define TABLE_LABEL(name, ...) &&lbl_##name,
#define TABLE_LABELS                                                        \
    &&lbl_Nop, DISE_ADDR_OPS(TABLE_LABEL) DISE_OPERATE_OPS(TABLE_LABEL)     \
        DISE_CMOV_OPS(TABLE_LABEL) DISE_LOAD_OPS(TABLE_LABEL)

template <bool kEmit>
void
ExecCore::runSeqFast(const SeqTrans &st, uint64_t maxInsts)
{
    const Addr tpc = seqTriggerPC_;
    const SeqOp *const ops = st.ops.data();
    const uint32_t len = st.numInsts;
    uint32_t j = 0;
    // Deferred trigger-branch outcome (seqHasPendingOutcome_ et al. in
    // the generic path), applied when the sequence runs off its end.
    bool pendingHas = false;
    bool pendingTaken = false;
    Addr pendingTarget = 0;
    uint64_t dyn = result_.dynInsts;
    uint64_t dise = result_.diseInsts;
    uint64_t loads = result_.loads;
    uint64_t stores = result_.stores;
    // Emission cursor (kEmit only); runSeqFast always enters at slot 0,
    // so seqBase marks where this sequence's records start.
    [[maybe_unused]] DynInst *eout = emit_;
    [[maybe_unused]] DynInst *const seqBase = eout;
    // Pre-built per-slot records (see translateSeq): SEQ_EMIT_BASE
    // copies one — slot 0's template already carries the sequence-level
    // prediction class — and stamps only the per-execution fields.
    [[maybe_unused]] const DynInst *const tmpl = st.tmpl.data();

#define SEQ_FLUSH()                                                         \
    do {                                                                    \
        result_.dynInsts = dyn;                                             \
        result_.diseInsts = dise;                                           \
        result_.loads = loads;                                              \
        result_.stores = stores;                                            \
        if constexpr (kEmit)                                                \
            emit_ = eout;                                                   \
    } while (0)
    /* The step()-identical trace record for the retiring slot j
     * (kEmit call sites only); outcome extras are the caller's. */
#define SEQ_EMIT_BASE()                                                     \
    do {                                                                    \
        *eout = tmpl[j];                                                    \
        eout->pc = tpc;                                                     \
        if (j == 0) {                                                       \
            eout->ptMiss = pendingExpand_.ptMiss;                           \
            eout->rtMiss = pendingExpand_.rtMiss;                           \
            eout->missPenalty = pendingExpand_.missPenalty;                 \
        }                                                                   \
    } while (0)
#define SEQ_EMIT_PLAIN()                                                    \
    do {                                                                    \
        if constexpr (kEmit) {                                              \
            SEQ_EMIT_BASE();                                                \
            ++eout;                                                         \
        }                                                                   \
    } while (0)
    /* Budget/deadline prologue of every executing slot. The End
     * sentinel skips it: running off the end completes the sequence
     * even with the budget exactly exhausted, matching the generic
     * path's check order (end-of-sequence tested before the budget). */
#define SEQ_CHECK()                                                         \
    do {                                                                    \
        if (dyn >= maxInsts || cancelPollDue(dyn))                          \
            goto suspend;                                                   \
    } while (0)
#define SEQ_RETIRE(isTrigger)                                               \
    do {                                                                    \
        ++dyn;                                                              \
        dise += !(isTrigger);                                               \
    } while (0)
#define SEQ_DISPATCH() goto *kTab[static_cast<size_t>(ops[j].handler)]
    /* One straight-line handler: @p effect is its register effect. */
#define SEQ_PLAIN(name, effect)                                             \
    lbl_##name:                                                             \
    {                                                                       \
        SEQ_CHECK();                                                        \
        effect;                                                             \
        SEQ_RETIRE(ops[j].trigger);                                         \
        SEQ_EMIT_PLAIN();                                                   \
        ++j;                                                                \
        SEQ_DISPATCH();                                                     \
    }
#define SEQ_ADDR(name, OP, expr) SEQ_PLAIN(name, SLOT_ADDR(ops[j], expr))
#define SEQ_OPERATE(name, OP, expr)                                         \
    SEQ_PLAIN(name, SLOT_OPERATE(ops[j], expr))
#define SEQ_CMOV(name, OP, cond) SEQ_PLAIN(name, SLOT_CMOV(ops[j], cond))
#define SEQ_LOAD(name, OP, width, signExtended)                             \
    lbl_##name:                                                             \
    {                                                                       \
        SEQ_CHECK();                                                        \
        const SeqOp &t = ops[j];                                            \
        const Addr addr = effAddr(t);                                       \
        ++loads;                                                            \
        writeReg(t.ra, loadExtend(memory_.read(addr, width), width,         \
                                  signExtended));                           \
        SEQ_RETIRE(t.trigger);                                              \
        if constexpr (kEmit) {                                              \
            SEQ_EMIT_BASE();                                                \
            eout->isMem = true;                                             \
            eout->memAddr = addr;                                           \
            ++eout;                                                         \
        }                                                                   \
        ++j;                                                                \
        SEQ_DISPATCH();                                                     \
    }

    static void *const kTab[] = {
        TABLE_LABELS
        &&lbl_Store, &&lbl_CondBranch, &&lbl_DirBranch, &&lbl_Jump,
        &&lbl_bad /* Engine */, &&lbl_DiseCond, &&lbl_DiseBr,
        // Fusion is not a ProductionSet: translateSeq never emits it.
        &&lbl_bad /* Fused */, &&lbl_End,
    };
    static_assert(sizeof(kTab) / sizeof(kTab[0]) ==
                      static_cast<size_t>(OpHandler::NUM),
                  "sequence handler table out of sync with OpHandler");
    SEQ_DISPATCH();

    SEQ_PLAIN(Nop, (void)0)
    DISE_ADDR_OPS(SEQ_ADDR)
    DISE_OPERATE_OPS(SEQ_OPERATE)
    DISE_CMOV_OPS(SEQ_CMOV)
    DISE_LOAD_OPS(SEQ_LOAD)
    lbl_Store:
    {
        SEQ_CHECK();
        const SeqOp &t = ops[j];
        const Addr addr = effAddr(t);
        ++stores;
        memory_.write(addr, readReg(t.ra), t.size);
        // Self-modifying store: the sequence itself lives in the
        // engine's tables and keeps running; the enclosing block's
        // staleness is caught by the Engine slot's epoch check.
        noteTextStore(addr, t.size);
        SEQ_RETIRE(t.trigger);
        if constexpr (kEmit) {
            SEQ_EMIT_BASE();
            eout->isMem = true;
            eout->isStore = true;
            eout->memAddr = addr;
            ++eout;
        }
        ++j;
        SEQ_DISPATCH();
    }
    lbl_CondBranch:
    {
        SEQ_CHECK();
        const SeqOp &t = ops[j];
        const bool taken = condTaken(t.op, readReg(t.ra));
        const Addr target = tpc + 4 + static_cast<uint64_t>(t.imm) * 4;
        SEQ_RETIRE(t.trigger);
        if constexpr (kEmit) {
            // actualTarget is stamped even when not taken (execute()
            // sets it unconditionally for conditional branches).
            SEQ_EMIT_BASE();
            eout->isAppControl = true;
            eout->taken = taken;
            eout->actualTarget = target;
            ++eout;
        }
        if (taken && errorAddr_ != 0 && target == errorAddr_)
            ++result_.acfDetections;
        if (t.trigger) {
            // Trigger branch: later slots ride its path; apply the
            // outcome at sequence end.
            pendingHas = true;
            pendingTaken = taken;
            pendingTarget = target;
        } else if (taken) {
            // Non-trigger branch: post-branch slots belong to the
            // non-taken path, so a taken branch discards them.
            if constexpr (kEmit)
                eout[-1].lastOfSeq = true;
            pc_ = target;
            goto seq_done;
        }
        ++j;
        SEQ_DISPATCH();
    }
    lbl_DirBranch:
    lbl_Jump:
    {
        SEQ_CHECK();
        const SeqOp &t = ops[j];
        // Jump reads the target before the link write (execute()
        // order; the two may name the same register).
        const Addr target =
            t.handler == OpHandler::Jump
                ? readReg(t.rb) & ~Addr(3)
                : tpc + 4 + static_cast<uint64_t>(t.imm) * 4;
        writeReg(t.ra, tpc + 4);
        SEQ_RETIRE(t.trigger);
        if constexpr (kEmit) {
            SEQ_EMIT_BASE();
            eout->isAppControl = true;
            eout->taken = true;
            eout->actualTarget = target;
            ++eout;
        }
        if (errorAddr_ != 0 && target == errorAddr_)
            ++result_.acfDetections;
        if (t.trigger) {
            pendingHas = true;
            pendingTaken = true;
            pendingTarget = target;
            ++j;
            SEQ_DISPATCH();
        }
        if constexpr (kEmit)
            eout[-1].lastOfSeq = true;
        pc_ = target;
        goto seq_done;
    }
    lbl_DiseCond:
    lbl_DiseBr:
    {
        SEQ_CHECK();
        const SeqOp &t = ops[j];
        const bool taken = t.handler == OpHandler::DiseBr ||
                           condTaken(t.op, readReg(t.ra));
        SEQ_RETIRE(t.trigger);
        if (!taken) {
            SEQ_EMIT_PLAIN();
            ++j;
            SEQ_DISPATCH();
        }
        if (!t.diseValid) {
            // The slot retires but emits nothing: step() counts the
            // retirement, then returns false without writing a record
            // (execSeqSlotBody traps before its *out store).
            const int64_t target = static_cast<int64_t>(j) + 1 + t.imm;
            raiseTrap(TrapCause::DiseBranchOutOfRange, tpc, j + 1,
                      static_cast<uint64_t>(target),
                      strFormat("DISE branch target %lld outside "
                                "sequence of length %u",
                                (long long)target, len));
            goto seq_done; // the slot retired; pc_ is the trap state
        }
        if constexpr (kEmit) {
            SEQ_EMIT_BASE();
            eout->taken = true;
            eout->diseTarget = t.diseTarget;
            ++eout;
        }
        j = t.diseTarget; // target == len lands on the End sentinel
        SEQ_DISPATCH();
    }
    lbl_End:
    {
        // Running off the end completes the sequence: the generic path
        // marks the final retiring slot lastOfSeq in the same pass.
        if constexpr (kEmit) {
            if (eout != seqBase)
                eout[-1].lastOfSeq = true;
        }
        pc_ = (pendingHas && pendingTaken) ? pendingTarget : tpc + 4;
        goto seq_done;
    }
lbl_bad:
    fatal("runSeqFast: handler outside the sequence repertoire");

suspend:
    // Budget or deadline expired mid-sequence: write the cursor and
    // the deferred outcome back so the generic path can resume.
    seqIdx_ = j;
    seqHasPendingOutcome_ = pendingHas;
    seqPendingTaken_ = pendingTaken;
    seqPendingTarget_ = pendingTarget;
    SEQ_FLUSH();
    return;

seq_done:
    clearSeq();
    SEQ_FLUSH();

#undef SEQ_FLUSH
#undef SEQ_EMIT_BASE
#undef SEQ_EMIT_PLAIN
#undef SEQ_CHECK
#undef SEQ_RETIRE
#undef SEQ_DISPATCH
#undef SEQ_PLAIN
#undef SEQ_ADDR
#undef SEQ_OPERATE
#undef SEQ_CMOV
#undef SEQ_LOAD
}

template <bool kEmit>
void
ExecCore::runChain(const TransBlock *block, const TransOp *start, Addr pc,
                   uint64_t maxInsts)
{
    const bool haveEngine = controller_ != nullptr;
    const TransBlock *blk = block;
    const TransOp *t = start;
    // Trace epoch the running block was entered at (the cursor stamp).
    uint64_t epoch0 = traceEpoch_;
    // Successor hand-off registers for the `chain` trampoline.
    Addr nextPC = 0;
    ChainEdge *edge = nullptr;
    uint64_t dyn = result_.dynInsts;
    uint64_t app = result_.appInsts;
    uint64_t loads = result_.loads;
    uint64_t stores = result_.stores;
    // Uncovered-opcode slots bypass expand(); their inspections are
    // accounted in bulk at chain exit (see DiseEngine::noteInspected).
    uint64_t inspected = 0;
    uint64_t chainFollows = 0;
    // Emission cursor (kEmit only), synced with emit_ at every flush
    // point so the Engine handler's callees see a current cursor.
    [[maybe_unused]] DynInst *eout = emit_;

#define CHAIN_FLUSH()                                                       \
    do {                                                                    \
        result_.dynInsts = dyn;                                             \
        result_.appInsts = app;                                             \
        result_.loads = loads;                                              \
        result_.stores = stores;                                            \
        if constexpr (kEmit)                                                \
            emit_ = eout;                                                   \
    } while (0)
#define CHAIN_RELOAD()                                                      \
    do {                                                                    \
        dyn = result_.dynInsts;                                             \
        app = result_.appInsts;                                             \
        loads = result_.loads;                                              \
        stores = result_.stores;                                            \
        if constexpr (kEmit)                                                \
            eout = emit_;                                                   \
    } while (0)
    /* The step()-identical trace record for the retiring application
     * instruction at pc (kEmit call sites only); outcome extras are the
     * caller's. */
#define CHAIN_EMIT_BASE()                                                   \
    do {                                                                    \
        *eout = DynInst{};                                                  \
        eout->pc = pc;                                                      \
        eout->inst = t->inst;                                               \
    } while (0)
#define CHAIN_EMIT()                                                        \
    do {                                                                    \
        if constexpr (kEmit) {                                              \
            CHAIN_EMIT_BASE();                                              \
            ++eout;                                                         \
        }                                                                   \
    } while (0)
#define CHAIN_DISPATCH()                                                    \
    do {                                                                    \
        if (dyn >= maxInsts)                                                \
            goto budget_stop;                                               \
        goto *kTab[static_cast<size_t>(t->handler)];                        \
    } while (0)
#define CHAIN_RETIRE()                                                      \
    do {                                                                    \
        ++dyn;                                                              \
        ++app;                                                              \
        inspected += haveEngine;                                            \
    } while (0)
    /* One straight-line handler: @p effect is its register effect. */
#define CHAIN_PLAIN(name, effect)                                           \
    lbl_##name:                                                             \
    {                                                                       \
        effect;                                                             \
        CHAIN_RETIRE();                                                     \
        CHAIN_EMIT();                                                       \
        ++t;                                                                \
        pc += 4;                                                            \
        CHAIN_DISPATCH();                                                   \
    }
#define CHAIN_ADDR(name, OP, expr) CHAIN_PLAIN(name, SLOT_ADDR(*t, expr))
#define CHAIN_OPERATE(name, OP, expr)                                       \
    CHAIN_PLAIN(name, SLOT_OPERATE(*t, expr))
#define CHAIN_CMOV(name, OP, cond) CHAIN_PLAIN(name, SLOT_CMOV(*t, cond))
#define CHAIN_LOAD(name, OP, width, signExtended)                           \
    lbl_##name:                                                             \
    {                                                                       \
        const Addr addr = effAddr(*t);                                      \
        ++loads;                                                            \
        writeReg(t->ra, loadExtend(memory_.read(addr, width), width,        \
                                   signExtended));                          \
        CHAIN_RETIRE();                                                     \
        if constexpr (kEmit) {                                              \
            CHAIN_EMIT_BASE();                                              \
            eout->isMem = true;                                             \
            eout->memAddr = addr;                                           \
            ++eout;                                                         \
        }                                                                   \
        ++t;                                                                \
        pc += 4;                                                            \
        CHAIN_DISPATCH();                                                   \
    }

    static void *const kTab[] = {
        TABLE_LABELS
        &&lbl_Store, &&lbl_CondBranch, &&lbl_DirBranch, &&lbl_Jump,
        &&lbl_Engine, &&lbl_bad /* DiseCond */, &&lbl_bad /* DiseBr */,
        &&lbl_Fused, &&lbl_End,
    };
    static_assert(sizeof(kTab) / sizeof(kTab[0]) ==
                      static_cast<size_t>(OpHandler::NUM),
                  "block handler table out of sync with OpHandler");
    CHAIN_DISPATCH();

    CHAIN_PLAIN(Nop, (void)0)
    DISE_ADDR_OPS(CHAIN_ADDR)
    DISE_OPERATE_OPS(CHAIN_OPERATE)
    DISE_CMOV_OPS(CHAIN_CMOV)
    DISE_LOAD_OPS(CHAIN_LOAD)
    lbl_Store:
    {
        const Addr addr = effAddr(*t);
        ++stores;
        memory_.write(addr, readReg(t->ra), t->size);
        CHAIN_RETIRE();
        if constexpr (kEmit) {
            CHAIN_EMIT_BASE();
            eout->isMem = true;
            eout->isStore = true;
            eout->memAddr = addr;
            ++eout;
        }
        if (noteTextStore(addr, t->size)) {
            // Self-modifying store: stale decodes and traces are gone
            // (possibly blocks of this very chain — parked on the
            // graveyard, so the cursor stays valid); leave the fast
            // path so the rewritten code is re-translated before it
            // executes.
            pc_ = pc + 4;
            goto exit_flush;
        }
        ++t;
        pc += 4;
        CHAIN_DISPATCH();
    }
    lbl_CondBranch:
    {
        const bool taken = condTaken(t->op, readReg(t->ra));
        CHAIN_RETIRE();
        if constexpr (kEmit) {
            // actualTarget is stamped even when not taken (execute()
            // sets it unconditionally for conditional branches).
            CHAIN_EMIT_BASE();
            eout->isAppControl = true;
            eout->taken = taken;
            eout->actualTarget = t->target;
            ++eout;
        }
        if (!taken) {
            ++t;
            pc += 4;
            CHAIN_DISPATCH();
        }
        if (errorAddr_ != 0 && t->target == errorAddr_)
            ++result_.acfDetections;
        nextPC = t->target;
        edge = &t->chain;
        goto chain;
    }
    lbl_DirBranch:
    {
        writeReg(t->ra, pc + 4);
        CHAIN_RETIRE();
        if constexpr (kEmit) {
            CHAIN_EMIT_BASE();
            eout->isAppControl = true;
            eout->taken = true;
            eout->actualTarget = t->target;
            ++eout;
        }
        if (errorAddr_ != 0 && t->target == errorAddr_)
            ++result_.acfDetections;
        nextPC = t->target;
        edge = &t->chain;
        goto chain;
    }
    lbl_Jump:
    {
        // Target read before the link write (execute() order; the two
        // may name the same register).
        const Addr target = readReg(t->rb) & ~Addr(3);
        writeReg(t->ra, pc + 4);
        CHAIN_RETIRE();
        if constexpr (kEmit) {
            CHAIN_EMIT_BASE();
            eout->isAppControl = true;
            eout->taken = true;
            eout->actualTarget = target;
            ++eout;
        }
        if (errorAddr_ != 0 && target == errorAddr_)
            ++result_.acfDetections;
        nextPC = target;
        edge = &t->chain;
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
        inspected += 2 * haveEngine;
        loads += fdyn.isMem && !fdyn.isStore;
        stores += fdyn.isStore;
        ++statFusedPairs_;
        ++statFusedFamily_[fusedFamilyIndex(t->op)];
        if constexpr (kEmit) {
            fdyn.pc = pc;
            fdyn.inst = t->inst;
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
        edge = &t->chain;
        goto chain;
    }
    lbl_Engine:
    {
        pc_ = pc;
        CHAIN_FLUSH();
        {
            DiseEngine &eng = controller_->engine();
            ExpandResult r;
            if (!eng.expandFast(t->memo, r)) {
                // Full inspection; refresh the slot's memo from its
                // outcome so the next dynamic instance takes the
                // memoized path.
                r = eng.expand(t->inst, pc);
                eng.fillMemo(t->memo, t->inst, r);
            }
            if (!r.expanded) {
                // Pass-through (or trap: checked below via trapped_).
                if constexpr (kEmit) {
                    if (execAppInst<true>(t->inst, emit_))
                        ++emit_;
                } else {
                    execAppInst<false>(t->inst, nullptr);
                }
            } else {
                adoptExpansion(r);
                if (const SeqTrans *sq = seqTransFor(*t)) {
                    runSeqFast<kEmit>(*sq, maxInsts);
                } else {
                    while (seqSpec_ && result_.dynInsts < maxInsts &&
                           !cancelPollDue(result_.dynInsts)) {
                        if constexpr (kEmit) {
                            if (execSeqSlot<true>(emit_))
                                ++emit_;
                        } else {
                            execSeqSlot<false>(nullptr);
                        }
                    }
                }
            }
        }
        CHAIN_RELOAD();
        if (exited_ || trapped_)
            goto exit_flush;
        if (seqSpec_) {
            // Budget or deadline mid-sequence: the dispatcher drains
            // the rest, then re-enters after this slot if the sequence
            // fell through. epoch0, not the live epoch: a store the
            // sequence already made into this block must kill the
            // cursor, since the block may now be parked for freeing.
            resume_ = {blk, t + 1, pc + 4, epoch0, blk->engineGen};
            goto exit_flush;
        }
        if (traceEpoch_ != epoch0)
            goto exit_flush; // a sequence store rewrote text (pc_ set)
        if (pc_ == pc + 4) {
            ++t;
            pc += 4;
            CHAIN_DISPATCH();
        }
        // Expansion redirect: chain straight into the successor block,
        // so a hot memoized expansion costs zero dispatcher trips.
        nextPC = pc_;
        edge = &t->chain;
        goto chain;
    }
    lbl_End:
    {
        nextPC = pc; // pc is already past the last covered slot
        edge = &blk->fallChain;
        goto chain;
    }
lbl_bad:
    fatal("runChain: handler outside the block repertoire");

chain:
    // Block exit with a known successor PC: follow (or patch) the
    // taken/fall-through edge and keep executing without a dispatcher
    // round trip.
    if (!chainEnabled_) {
        pc_ = nextPC;
        goto exit_flush;
    }
    if (cancelPollDue(dyn)) {
        // Deadline observed at a block boundary — a precise
        // instruction boundary; run() classifies the outcome.
        pc_ = nextPC;
        goto exit_flush;
    }
    {
        const uint64_t gen =
            haveEngine ? controller_->engine().generation() : 0;
        const TransBlock *nb;
        if (edge->next != nullptr && edge->epoch == traceEpoch_ &&
            edge->gen == gen && edge->target == nextPC) {
            nb = edge->next;
        } else {
            // Patch (or re-patch) the edge. chainTarget may evict or
            // retranslate — either bumps traceEpoch_, so the stamps
            // are read only after it returns. (The engine generation
            // cannot move inside a run.)
            nb = chainTarget(nextPC);
            if (nb == nullptr) {
                pc_ = nextPC; // untranslatable successor: dispatcher
                goto exit_flush;
            }
            edge->next = nb;
            edge->epoch = traceEpoch_;
            edge->gen = gen;
            edge->target = nextPC;
        }
        blk = nb;
    }
    ++chainFollows;
    t = blk->ops.data();
    pc = nextPC;
    epoch0 = traceEpoch_;
    CHAIN_DISPATCH();

budget_stop:
    // Usually mid-block (a fill batch ends every 64 records): the
    // cursor lets the next dispatcher trip carry on in this block.
    pc_ = pc;
    resume_ = {blk, t, pc, epoch0, blk->engineGen};
exit_flush:
    CHAIN_FLUSH();
    statChainFollows_ += chainFollows;
    if (inspected != 0)
        controller_->engine().noteInspected(inspected);

#undef CHAIN_FLUSH
#undef CHAIN_RELOAD
#undef CHAIN_EMIT_BASE
#undef CHAIN_EMIT
#undef CHAIN_DISPATCH
#undef CHAIN_RETIRE
#undef CHAIN_PLAIN
#undef CHAIN_ADDR
#undef CHAIN_OPERATE
#undef CHAIN_CMOV
#undef CHAIN_LOAD
}

#undef TABLE_LABEL
#undef TABLE_LABELS
#undef SLOT_ADDR
#undef SLOT_OPERATE
#undef SLOT_CMOV

template <bool kEmit>
void
ExecCore::runTranslated(uint64_t maxInsts)
{
    // step() output when not emitting; fillTrace writes into its ring.
    DynInst scratch;
    while (!exited_ && !trapped_ && result_.dynInsts < maxInsts &&
           !cancelRequested()) {
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
        const uint64_t gen =
            controller_ ? controller_->engine().generation() : 0;
        if (resume_.block != nullptr) {
            // The ChainEdge validity rule: same PC, same trace epoch,
            // same engine generation. Anything else discards it.
            const ChainCursor c = std::exchange(resume_, ChainCursor{});
            if (c.pc == pc_ && c.epoch == traceEpoch_ && c.gen == gen) {
                runChain<kEmit>(c.block, c.op, c.pc, maxInsts);
                continue;
            }
        }
        const TransBlock *block = nullptr;
        if ((pc_ & 3) == 0 && pc_ >= prog_.textBase &&
            pc_ < prog_.textEnd()) {
            DispatchEntry &de =
                dispatch_[(pc_ >> 2) & (kDispatchEntries - 1)];
            if (de.pc != pc_ || de.epoch != traceEpoch_ || de.gen != gen) {
                de.block = lookupBlock(pc_);
                de.pc = pc_;
                de.epoch = traceEpoch_;
                de.gen = gen;
            }
            block = de.block.get();
        }
        if (block == nullptr || block->numInsts == 0) {
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
    // Budget in retirement units: every retired instruction emits at
    // most one record, so bounding dynInsts bounds the ring too.
    const uint64_t budget =
        std::min(maxDyn, result_.dynInsts + cap);
    // emit_ is live for the duration of the call; every exit from the
    // interpreters syncs it.
    emit_ = ring;
    if (traceEnabled_) {
        runTranslated<true>(budget);
    } else {
        // Reference path: step() straight into the ring, with the slow
        // loop's cancel-poll stride.
        while (result_.dynInsts < budget && stepUnpinned(*emit_)) {
            ++emit_;
            if ((result_.dynInsts & 0x3ff) == 0 && cancelRequested())
                break;
        }
    }
    pinSuspendedSeq();
    const size_t n = static_cast<size_t>(emit_ - ring);
    emit_ = nullptr;
    return n;
}

RunResult
ExecCore::run(uint64_t maxInsts)
{
    if (traceEnabled_) {
        runTranslated<false>(maxInsts);
    } else {
        DynInst dyn;
        while (result_.dynInsts < maxInsts && stepUnpinned(dyn)) {
            if ((result_.dynInsts & 0x3ff) == 0 && cancelRequested())
                break;
        }
    }
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
