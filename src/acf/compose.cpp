#include "src/acf/compose.hpp"

#include <algorithm>
#include <set>

#include "src/common/logging.hpp"

namespace dise {

namespace {

/** Dedicated registers a sequence names literally. */
std::set<RegIndex>
usedDedicatedRegs(const ReplacementSeq &seq)
{
    std::set<RegIndex> used;
    auto consider = [&](RegDirective dir, RegIndex r) {
        if (dir == RegDirective::Literal && isDiseReg(r))
            used.insert(r);
    };
    for (const auto &rinst : seq.insts) {
        if (rinst.isTriggerInsn)
            continue;
        consider(rinst.raDir, rinst.templ.ra);
        consider(rinst.rbDir, rinst.templ.rb);
        consider(rinst.rcDir, rinst.templ.rc);
    }
    return used;
}

/** The (directive, literal) pair @p rinst gives register field @p f. */
std::pair<RegDirective, RegIndex>
fieldSpec(const ReplacementInst &rinst, RegField f)
{
    switch (f) {
      case RegField::Ra: return {rinst.raDir, rinst.templ.ra};
      case RegField::Rb: return {rinst.rbDir, rinst.templ.rb};
      case RegField::Rc: return {rinst.rcDir, rinst.templ.rc};
      default: return {RegDirective::Literal, kZeroReg};
    }
}

/**
 * Dedicated registers whose first access in @p seq is a write: scratch
 * registers that may be renamed. Read-first registers are global inputs
 * (initialized outside the sequence) and must keep their names.
 */
std::set<RegIndex>
scratchDedicatedRegs(const ReplacementSeq &seq)
{
    std::set<RegIndex> seenRead, scratch;
    for (const auto &rinst : seq.insts) {
        if (rinst.isTriggerInsn)
            continue;
        // The dedicated register field f names literally, else kZeroReg.
        auto dedicated = [&rinst](RegField f) {
            const auto [dir, r] = fieldSpec(rinst, f);
            return dir == RegDirective::Literal && isDiseReg(r) ? r
                                                                : kZeroReg;
        };
        rinst.templ.visitSrcRegs([&](RegField f, RegIndex) {
            const RegIndex r = dedicated(f);
            if (r != kZeroReg && !scratch.count(r))
                seenRead.insert(r);
        });
        const RegIndex dest = dedicated(rinst.templ.rdField());
        if (dest != kZeroReg && !seenRead.count(dest))
            scratch.insert(dest);
    }
    return scratch;
}

/** Rename dedicated register @p from to @p to throughout a sequence. */
void
renameDedicated(ReplacementSeq &seq, RegIndex from, RegIndex to)
{
    for (auto &rinst : seq.insts) {
        if (rinst.isTriggerInsn)
            continue;
        auto fix = [&](RegDirective dir, RegIndex &r) {
            if (dir == RegDirective::Literal && r == from)
                r = to;
        };
        fix(rinst.raDir, rinst.templ.ra);
        fix(rinst.rbDir, rinst.templ.rb);
        fix(rinst.rcDir, rinst.templ.rc);
    }
}

/**
 * Statically match a pattern against a replacement instruction template.
 * Constraints on fields controlled by directives cannot be evaluated;
 * they make the match fail (conservatively), with a warning.
 */
bool
staticMatch(const PatternSpec &pattern, const ReplacementInst &rinst)
{
    const DecodedInst &t = rinst.templ;
    if (pattern.opcode && t.op != *pattern.opcode)
        return false;
    if (pattern.opclass && t.cls != *pattern.opclass)
        return false;
    const bool fieldsParameterized =
        rinst.raDir != RegDirective::Literal ||
        rinst.rbDir != RegDirective::Literal ||
        rinst.rcDir != RegDirective::Literal ||
        rinst.immDir != ImmDirective::Literal;
    if ((pattern.rs || pattern.rt || pattern.rd || pattern.immValue ||
         pattern.immSign) &&
        fieldsParameterized) {
        warn("composeNested: pattern '" + pattern.toString() +
             "' constrains parameterized fields; treated as non-match");
        return false;
    }
    if (pattern.rs && t.triggerRS() != *pattern.rs)
        return false;
    if (pattern.rt && t.triggerRT() != *pattern.rt)
        return false;
    if (pattern.rd && t.triggerRD() != *pattern.rd)
        return false;
    if (pattern.immValue && t.imm != *pattern.immValue)
        return false;
    if (pattern.immSign) {
        const bool negative = t.imm < 0;
        if ((*pattern.immSign == SignConstraint::Negative) != negative)
            return false;
    }
    return true;
}

/**
 * Would @p outerPat match every trigger @p innerPat accepts? Used for
 * T.INSN slots, whose instantiated instruction is only known to satisfy
 * the inner pattern.
 */
bool
impliedMatch(const PatternSpec &outerPat, const PatternSpec &innerPat)
{
    if (outerPat.opcode &&
        (!innerPat.opcode || *innerPat.opcode != *outerPat.opcode)) {
        return false;
    }
    if (outerPat.opclass) {
        if (innerPat.opclass) {
            if (*innerPat.opclass != *outerPat.opclass)
                return false;
        } else if (innerPat.opcode) {
            if (opInfo(*innerPat.opcode).cls != *outerPat.opclass)
                return false;
        } else {
            return false;
        }
    }
    auto impliedReg = [](const std::optional<RegIndex> &outer,
                         const std::optional<RegIndex> &inner) {
        return !outer || (inner && *inner == *outer);
    };
    if (!impliedReg(outerPat.rs, innerPat.rs) ||
        !impliedReg(outerPat.rt, innerPat.rt) ||
        !impliedReg(outerPat.rd, innerPat.rd)) {
        return false;
    }
    if (outerPat.immValue &&
        (!innerPat.immValue || *innerPat.immValue != *outerPat.immValue)) {
        return false;
    }
    if (outerPat.immSign &&
        (!innerPat.immSign || *innerPat.immSign != *outerPat.immSign)) {
        return false;
    }
    return true;
}

/**
 * Substitute the outer sequence's trigger-role directives with the inner
 * replacement instruction's field specifications ("replacement sequence
 * inlining"). @p r is the inner instruction that triggered the outer
 * production.
 */
ReplacementInst
rewireDirectives(const ReplacementInst &outerInst,
                 const ReplacementInst &r)
{
    if (outerInst.isTriggerInsn)
        return r; // the inlined outer T.INSN is the inner instruction

    if (r.isTriggerInsn) {
        // Inner slot is itself T.INSN: the outer directives already refer
        // to the same (application) trigger; pass them through.
        return outerInst;
    }

    ReplacementInst out = outerInst;
    const DecodedInst &t = r.templ;

    // T.OP: the outer slot re-emits the (inner) trigger's opcode, which
    // is statically known from the inner template.
    if (out.opDir == OpDirective::Trigger) {
        out.opDir = OpDirective::Literal;
        out.templ.op = t.op;
        out.templ.cls = t.cls;
        out.templ.useLit = t.useLit;
    }

    // A trigger role of the inner instruction is one of its fields;
    // take that field's (directive, literal) specification. T.RAW
    // names the same-position field. Codeword parameters (T.P*) cannot
    // appear in a transparent outer production; literals pass through.
    auto fixReg = [&](RegDirective &dir, RegIndex &literal, RegField raw) {
        RegField f = RegField::None;
        switch (dir) {
          case RegDirective::TriggerRS: f = t.rsField(); break;
          case RegDirective::TriggerRT: f = t.rtField(); break;
          case RegDirective::TriggerRD: f = t.rdField(); break;
          case RegDirective::TriggerRaw: f = raw; break;
          default: return;
        }
        std::tie(dir, literal) = fieldSpec(r, f);
    };
    fixReg(out.raDir, out.templ.ra, RegField::Ra);
    fixReg(out.rbDir, out.templ.rb, RegField::Rb);
    fixReg(out.rcDir, out.templ.rc, RegField::Rc);

    if (out.immDir == ImmDirective::TriggerImm) {
        out.immDir = r.immDir;
        out.templ.imm = t.imm;
    }
    // TriggerPC and AbsTarget refer to the application trigger's PC,
    // which is unchanged by inlining.
    return out;
}

/** Apply the outer set to one inner sequence; true when anything inlined. */
bool
inlineOuter(const ProductionSet &outer, const PatternSpec &innerPattern,
            const ReplacementSeq &innerSeq, ReplacementSeq &outSeq)
{
    bool changed = false;
    outSeq.name = innerSeq.name + "+composed";
    outSeq.insts.clear();

    // Rename outer scratch dedicated registers away from inner's.
    const std::set<RegIndex> innerUsed = usedDedicatedRegs(innerSeq);

    for (const auto &r : innerSeq.insts) {
        const Production *matched = nullptr;
        unsigned bestScore = 0;
        for (const auto &prod : outer.productions()) {
            const bool hit =
                r.isTriggerInsn
                    ? impliedMatch(prod.pattern, innerPattern)
                    : staticMatch(prod.pattern, r);
            if (hit && (!matched ||
                        prod.pattern.specificity() > bestScore)) {
                matched = &prod;
                bestScore = prod.pattern.specificity();
            }
        }
        if (!matched) {
            outSeq.insts.push_back(r);
            continue;
        }
        DISE_ASSERT(!matched->explicitTag,
                    "outer production with explicit tagging cannot be "
                    "composed statically");
        const ReplacementSeq *outerSeq = outer.sequence(matched->seqId);
        DISE_ASSERT(outerSeq != nullptr, "unbound outer sequence");

        ReplacementSeq renamed = *outerSeq;
        const std::set<RegIndex> scratch = scratchDedicatedRegs(renamed);
        for (const RegIndex reg : scratch) {
            if (!innerUsed.count(reg))
                continue;
            // Find a dedicated register unused by both.
            RegIndex fresh = 0;
            const std::set<RegIndex> outerUsed =
                usedDedicatedRegs(renamed);
            for (unsigned i = 0; i < kNumDiseRegs; ++i) {
                const RegIndex cand =
                    static_cast<RegIndex>(kDiseRegBase + i);
                if (!innerUsed.count(cand) && !outerUsed.count(cand)) {
                    fresh = cand;
                    break;
                }
            }
            if (fresh == 0) {
                fatal("composeNested: no free dedicated register for "
                      "scratch renaming");
            }
            renameDedicated(renamed, reg, fresh);
        }

        for (const auto &outerInst : renamed.insts)
            outSeq.insts.push_back(rewireDirectives(outerInst, r));
        changed = true;
    }
    return changed;
}

} // namespace

bool
samePattern(const PatternSpec &a, const PatternSpec &b)
{
    return a.opcode == b.opcode && a.opclass == b.opclass &&
           a.rs == b.rs && a.rt == b.rt && a.rd == b.rd &&
           a.immValue == b.immValue && a.immSign == b.immSign;
}

ProductionSet
composeNested(const ProductionSet &outer, const ProductionSet &inner,
              const ComposeOptions &opts)
{
    ProductionSet result;

    // Rewrite every inner production's sequence(s) under its pattern.
    // These are added FIRST: when an inner pattern coincides with an
    // outer one (Figure 5: both tracing and MFI match stores), the
    // most-specific-match tie must select the composed inner sequence —
    // the stream has to equal outer(inner(application)).
    for (const auto &prod : inner.productions()) {
        if (!prod.explicitTag) {
            const ReplacementSeq *seq = inner.sequence(prod.seqId);
            DISE_ASSERT(seq != nullptr, "unbound inner sequence");
            ReplacementSeq composed;
            inlineOuter(outer, prod.pattern, *seq, composed);
            composed.composeOnFill =
                opts.viaMissHandler || seq->composeOnFill;
            const SeqId id = result.addSequence(std::move(composed));
            result.addPattern(prod.pattern, id);
        } else {
            // Tagged block: compose every sequence in the tag window and
            // re-register under a fresh base, preserving tag arithmetic.
            SeqId newBase = 0;
            bool baseSet = false;
            for (const auto &kv : inner.sequences()) {
                if (kv.first < prod.seqId ||
                    kv.first > prod.seqId + kMaxCodewordTag) {
                    continue;
                }
                const uint32_t tag = kv.first - prod.seqId;
                ReplacementSeq composed;
                inlineOuter(outer, prod.pattern, kv.second, composed);
                composed.composeOnFill =
                    opts.viaMissHandler || kv.second.composeOnFill;
                if (!baseSet) {
                    // Reserve a contiguous block by probing for a free
                    // base past all existing ids.
                    newBase = result.sequences().empty()
                                  ? 1
                                  : result.sequences().rbegin()->first + 1;
                    baseSet = true;
                }
                result.addSequenceWithId(newBase + tag,
                                         std::move(composed));
            }
            if (baseSet)
                result.addTagPattern(prod.pattern, newBase);
        }
    }

    result.merge(outer);
    return result;
}

ProductionSet
composeMerged(const ProductionSet &first, const ProductionSet &second)
{
    ProductionSet result;
    std::vector<bool> secondMerged(second.productions().size(), false);

    for (const auto &prodA : first.productions()) {
        DISE_ASSERT(!prodA.explicitTag,
                    "merged composition of tagged productions is not "
                    "supported");
        const ReplacementSeq *seqA = first.sequence(prodA.seqId);
        DISE_ASSERT(seqA != nullptr, "unbound sequence");

        const Production *overlap = nullptr;
        for (size_t i = 0; i < second.productions().size(); ++i) {
            if (samePattern(prodA.pattern,
                            second.productions()[i].pattern)) {
                overlap = &second.productions()[i];
                secondMerged[i] = true;
                break;
            }
        }
        if (!overlap) {
            ReplacementSeq copy = *seqA;
            result.addPattern(prodA.pattern,
                              result.addSequence(std::move(copy)));
            continue;
        }
        const ReplacementSeq *seqB = second.sequence(overlap->seqId);
        DISE_ASSERT(seqB != nullptr, "unbound sequence");
        // Merge: A without its trigger instance, then B (whose single
        // T.INSN provides the shared trigger). Both must end in T.INSN.
        if (seqA->insts.empty() || !seqA->insts.back().isTriggerInsn ||
            seqB->insts.empty() || !seqB->insts.back().isTriggerInsn) {
            fatal("composeMerged: sequences for pattern '" +
                  prodA.pattern.toString() +
                  "' do not both end in T.INSN; non-nested composition "
                  "is impossible");
        }
        ReplacementSeq merged;
        merged.name = seqA->name + "+" + seqB->name;
        merged.insts.assign(seqA->insts.begin(),
                            seqA->insts.end() - 1);
        merged.insts.insert(merged.insts.end(), seqB->insts.begin(),
                            seqB->insts.end());
        result.addPattern(prodA.pattern,
                          result.addSequence(std::move(merged)));
    }
    for (size_t i = 0; i < second.productions().size(); ++i) {
        if (secondMerged[i])
            continue;
        const auto &prodB = second.productions()[i];
        DISE_ASSERT(!prodB.explicitTag,
                    "merged composition of tagged productions is not "
                    "supported");
        const ReplacementSeq *seqB = second.sequence(prodB.seqId);
        ReplacementSeq copy = *seqB;
        result.addPattern(prodB.pattern,
                          result.addSequence(std::move(copy)));
    }
    return result;
}

} // namespace dise
