/**
 * @file
 * Retire-record stream helpers shared by the trace tests: drain a core
 * through step() or through fillTrace, and compare two records field
 * by field.
 */

#ifndef DISE_TESTS_TRACE_STREAMS_HPP
#define DISE_TESTS_TRACE_STREAMS_HPP

#include <vector>

#include "src/sim/core.hpp"

namespace dise {

inline bool
sameRecord(const DynInst &a, const DynInst &b)
{
    // Field-wise, not encode(): DISE-synthesized instructions use
    // dedicated registers that have no application encoding.
    return a.pc == b.pc && a.memAddr == b.memAddr &&
           a.actualTarget == b.actualTarget &&
           a.inst.op == b.inst.op && a.inst.cls == b.inst.cls &&
           a.inst.ra == b.inst.ra && a.inst.rb == b.inst.rb &&
           a.inst.rc == b.inst.rc && a.inst.useLit == b.inst.useLit &&
           a.inst.imm == b.inst.imm && a.inst.tag == b.inst.tag &&
           a.inst.raw == b.inst.raw && a.missPenalty == b.missPenalty &&
           a.disepc == b.disepc && a.seqLen == b.seqLen &&
           a.diseTarget == b.diseTarget &&
           a.seqPredClass == b.seqPredClass &&
           a.expanded == b.expanded && a.triggerSlot == b.triggerSlot &&
           a.firstOfSeq == b.firstOfSeq && a.lastOfSeq == b.lastOfSeq &&
           a.ptMiss == b.ptMiss && a.rtMiss == b.rtMiss &&
           a.isAppControl == b.isAppControl && a.taken == b.taken &&
           a.isMem == b.isMem && a.isStore == b.isStore &&
           a.isSyscall == b.isSyscall;
}

/** Drain a core through fillTrace with the given ring capacity. */
inline std::vector<DynInst>
drainViaFill(ExecCore &core, size_t cap)
{
    std::vector<DynInst> out;
    std::vector<DynInst> ring(cap);
    while (true) {
        const size_t n = core.fillTrace(ring.data(), cap);
        if (n == 0)
            break;
        out.insert(out.end(), ring.begin(), ring.begin() + n);
    }
    return out;
}

inline std::vector<DynInst>
drainViaStep(ExecCore &core)
{
    std::vector<DynInst> out;
    DynInst dyn;
    while (core.step(dyn))
        out.push_back(dyn);
    return out;
}

} // namespace dise

#endif // DISE_TESTS_TRACE_STREAMS_HPP
