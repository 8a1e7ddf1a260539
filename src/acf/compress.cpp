#include "src/acf/compress.hpp"

#include <algorithm>
#include <array>
#include <queue>

#include "src/common/bits.hpp"
#include "src/common/logging.hpp"

namespace dise {

namespace {

/** Parameter slot kinds. */
enum class SlotKind : uint8_t { None = 0, Reg, Imm };

/** Per-field canonicalization result: slot index or -1 for literal. */
struct FieldSlots
{
    int8_t ra = -1;
    int8_t rb = -1;
    int8_t rc = -1;
    int8_t imm = -1;
};

/** The parameters one candidate occurrence has assigned so far. */
struct Params
{
    uint8_t count = 0;
    std::array<SlotKind, 3> kinds{SlotKind::None, SlotKind::None,
                                  SlotKind::None};
    std::array<uint8_t, 3> values{0, 0, 0};
};

/** Where an instruction may sit in a candidate window. */
enum class Fit : uint8_t {
    Never,  ///< no candidate may contain it
    Last,   ///< only as the last instruction (indirect jumps, returns)
    Branch, ///< only last, and the candidate carries its offset
    Any,
};

Fit
windowFit(const DecodedInst &inst, const CompressorOptions &opts)
{
    switch (inst.cls) {
      case OpClass::Invalid:
      case OpClass::Codeword:
      case OpClass::DiseBranch:
        return Fit::Never;
      case OpClass::CondBranch:
      case OpClass::UncondBranch:
      case OpClass::Call:
        return opts.compressBranches ? Fit::Branch : Fit::Never;
      case OpClass::Jump:
      case OpClass::CallIndirect:
      case OpClass::Return:
        return Fit::Last;
      default:
        return Fit::Any;
    }
}

/**
 * Canonicalize the next instruction of a candidate occurrence: abstract
 * its registers (and, with @p immParams, small immediates) into
 * parameter slots, assigned left to right in @p params, and return the
 * instruction's token. Two windows share a canonical form exactly when
 * their token strings match, and since a token depends only on the
 * instructions before it, the form of [i, i+L+1) extends that of
 * [i, i+L) by one token.
 *
 * @param maxParams Slots available: 0 for a branch-ended candidate,
 *        whose offset claims all parameter bits.
 * @param immParams When false, only registers are abstracted. The
 *        enumerator tries both variants: abstracting small immediates
 *        unifies Figure 4-style +8/-8 displacements, but wastes slots
 *        when the immediates are shared constants (0 bases) and the
 *        register names are what varies.
 */
uint64_t
canonInst(const DecodedInst &inst, uint32_t maxParams, bool immParams,
          Params &params, FieldSlots &fs)
{
    fs = FieldSlots{};
    auto trySlot = [&](SlotKind kind, int64_t value) -> int8_t {
        if (maxParams == 0)
            return -1;
        if (kind == SlotKind::Reg) {
            if (value == kZeroReg)
                return -1; // keep the zero register literal
        } else {
            if (!immParams)
                return -1;
            if (value < -16 || value > 15)
                return -1; // must fit a sign-extended 5-bit parameter
        }
        const uint8_t v = static_cast<uint8_t>(value & 0x1f);
        for (uint8_t i = 0; i < params.count; ++i)
            if (params.kinds[i] == kind && params.values[i] == v)
                return static_cast<int8_t>(i);
        if (params.count >= maxParams)
            return -1; // out of slots: stays literal
        params.kinds[params.count] = kind;
        params.values[params.count] = v;
        return static_cast<int8_t>(params.count++);
    };

    // Fixed-width fields: op [0,8), useLit [8], ra/rb/rc 7 bits each
    // from bit 9 (a 5-bit register, or 0x40 + slot), the immediate's
    // slot + 1 in [30,32) and its literal value in [32,64) (decoded
    // immediates are at most 21 bits). The op fixes which fields are
    // present, so absent ones (zero) never make two forms collide.
    uint64_t token = static_cast<uint64_t>(inst.op) |
                     (uint64_t(inst.useLit) << 8);
    auto regField = [&](RegIndex r, int8_t &slot, unsigned shift) {
        slot = trySlot(SlotKind::Reg, r);
        token |= uint64_t(slot >= 0 ? 0x40u + unsigned(slot) : r) << shift;
    };
    auto immField = [&](int64_t imm, bool eligible) {
        fs.imm = eligible ? trySlot(SlotKind::Imm, imm) : int8_t(-1);
        if (fs.imm >= 0)
            token |= uint64_t(fs.imm + 1) << 30;
        else
            token |= uint64_t(static_cast<uint32_t>(imm)) << 32;
    };

    switch (opInfo(inst.op).format) {
      case InstFormat::Nop:
      case InstFormat::Syscall:
      case InstFormat::Codeword: // never canonicalized (Fit::Never)
        break;
      case InstFormat::Memory:
        regField(inst.ra, fs.ra, 9);
        regField(inst.rb, fs.rb, 16);
        immField(inst.imm, true);
        break;
      case InstFormat::Branch:
        regField(inst.ra, fs.ra, 9);
        // The displacement is the ParamImm parameter, excluded from
        // the form so instances with different offsets unify.
        break;
      case InstFormat::Jump:
        regField(inst.ra, fs.ra, 9);
        regField(inst.rb, fs.rb, 16);
        break;
      case InstFormat::Operate:
        regField(inst.ra, fs.ra, 9);
        if (inst.useLit)
            immField(inst.imm, inst.imm >= 0 && inst.imm <= 15);
        else
            regField(inst.rb, fs.rb, 16);
        regField(inst.rc, fs.rc, 23);
        break;
    }
    return token;
}

/** Canonical form of one candidate occurrence. */
struct Canon
{
    bool ok = false;
    bool hasBranch = false;
    std::vector<FieldSlots> slots; ///< per instruction
};

/**
 * Canonicalize the candidate [start, start+len): its eligibility and
 * per-field slot layout, by the rules of windowFit() and canonInst().
 * The enumerator in compressProgram applies the same two functions one
 * instruction at a time; this whole-window form lays out the chosen
 * dictionary entries.
 */
Canon
canonicalize(const std::vector<DecodedInst> &insts, uint32_t start,
             uint32_t len, const CompressorOptions &opts, bool immParams)
{
    Canon canon;
    for (uint32_t k = 0; k < len; ++k) {
        const Fit fit = windowFit(insts[start + k], opts);
        if (fit == Fit::Never || (fit != Fit::Any && k + 1 != len))
            return canon;
        canon.hasBranch = fit == Fit::Branch;
    }
    const uint32_t maxParams = canon.hasBranch ? 0 : opts.maxParams;
    Params params;
    canon.slots.resize(len);
    for (uint32_t k = 0; k < len; ++k)
        canonInst(insts[start + k], maxParams, immParams, params,
                  canon.slots[k]);
    canon.ok = true;
    return canon;
}

/**
 * Canonical forms as a trie: a node is a token string, reached from a
 * root by one edge per instruction, and carries the number of the
 * candidate with that form. Edges live in one open-addressing table
 * keyed by (parent, token).
 */
class FormTrie
{
  public:
    static constexpr uint32_t kPlainRoot = 0;
    static constexpr uint32_t kBranchRoot = 1; ///< branch-ended forms
    static constexpr uint32_t kNoCand = ~uint32_t(0);

    explicit FormTrie(size_t expectedNodes)
        : cand_(2, kNoCand)
    {
        size_t cap = 1024;
        while (cap < 2 * expectedNodes)
            cap *= 2;
        edges_.resize(cap);
    }

    /** The child of @p parent along @p token, created on first use. */
    uint32_t
    child(uint32_t parent, uint64_t token)
    {
        if (2 * (cand_.size() + 1) > edges_.size()) {
            std::vector<Edge> old(2 * edges_.size());
            old.swap(edges_);
            for (const Edge &e : old)
                if (e.child != 0)
                    *find(e.parent, e.token) = e;
        }
        Edge *e = find(parent, token);
        if (e->child == 0) {
            *e = Edge{token, parent, static_cast<uint32_t>(cand_.size())};
            cand_.push_back(kNoCand);
        }
        return e->child;
    }

    /** Candidate number of a node's form (kNoCand until recorded). */
    uint32_t &cand(uint32_t node) { return cand_[node]; }

  private:
    struct Edge
    {
        uint64_t token = 0;
        uint32_t parent = 0;
        uint32_t child = 0; ///< 0: empty (a root is nobody's child)
    };

    /** The edge's entry, or the empty entry where it belongs. */
    Edge *
    find(uint32_t parent, uint64_t token)
    {
        uint64_t h = token ^ (uint64_t(parent) * 0x9e3779b97f4a7c15ull);
        h ^= h >> 31;
        h *= 0xbf58476d1ce4e5b9ull;
        h ^= h >> 29;
        const size_t mask = edges_.size() - 1;
        for (size_t i = h & mask;; i = (i + 1) & mask) {
            Edge &e = edges_[i];
            if (e.child == 0 || (e.parent == parent && e.token == token))
                return &e;
        }
    }

    std::vector<Edge> edges_;
    std::vector<uint32_t> cand_; ///< per node, the roots included
};

/** A dictionary candidate: one canonical form and its occurrences. */
struct Candidate
{
    uint32_t len = 0;
    bool hasBranch = false;
    /** The variant that first produced the form; lays out the entry. */
    bool immParams = false;
    uint32_t count = 0; ///< occurrences found
    /** Occurrence list in the shared arrays: [first, first + count). */
    uint32_t first = 0;

    int64_t
    benefit(uint64_t validOccurrences,
            const CompressorOptions &opts) const
    {
        const int64_t perOcc =
            int64_t(len) * 4 - int64_t(opts.codewordBytes);
        const int64_t dictCost = int64_t(len) * opts.dictEntryBytes;
        return int64_t(validOccurrences) * perOcc - dictCost;
    }
};

/** One occurrence as enumerated: candidate, start word, parameters. */
struct Occurrence
{
    uint32_t cand;
    uint32_t start;
    std::array<uint8_t, 3> values;
};

} // namespace

CompressorOptions
dedicatedDecompressorOptions()
{
    CompressorOptions opts;
    opts.maxParams = 0;
    opts.compressBranches = false;
    opts.allowSingleInst = true;
    opts.codewordBytes = 2;
    opts.dictEntryBytes = 4;
    return opts;
}

CompressionResult
compressProgram(const Program &prog, const CompressorOptions &opts)
{
    DISE_ASSERT(opts.maxParams <= 3, "at most 3 parameter slots");
    DISE_ASSERT(opts.maxDictEntries <= kMaxCodewordTag + 1,
                "dictionary exceeds the 11-bit tag space");

    const size_t n = prog.text.size();
    std::vector<DecodedInst> insts;
    insts.reserve(n);
    for (const Word w : prog.text)
        insts.push_back(decode(w));
    const BasicBlocks bb = analyzeBasicBlocks(prog);

    // ---- Candidate enumeration: one walk per start word. ----
    // Each imm-variant cursor advances one trie edge per instruction,
    // so every (start, length, variant) form costs one table probe.
    // Candidates are numbered in first-seen order over (block, start,
    // length, variant with immediates first): the greedy breaks
    // benefit ties by that number.
    const uint32_t minLen = opts.allowSingleInst && opts.codewordBytes < 4
                                ? 1
                                : 2;
    FormTrie trie(3 * n);
    std::vector<Candidate> cands;
    std::vector<Occurrence> found;
    auto record = [&](uint32_t node, uint32_t start, uint32_t len,
                      bool hasBranch, bool immParams,
                      const Params &params) {
        uint32_t &ci = trie.cand(node);
        if (ci == FormTrie::kNoCand) {
            ci = static_cast<uint32_t>(cands.size());
            Candidate cand;
            cand.len = len;
            cand.hasBranch = hasBranch;
            cand.immParams = immParams;
            cands.push_back(cand);
        }
        ++cands[ci].count;
        found.push_back({ci, start, params.values});
    };
    FieldSlots fs;
    for (const auto &[first, last] : bb.blocks) {
        for (uint32_t i = first; i < last; ++i) {
            const uint32_t maxLen = std::min(opts.maxSeqLen, last - i);
            // Cursors for the imm-variants true [0] and false [1]. They
            // share node and parameters until an immediate takes a slot,
            // and never meet again after.
            uint32_t node[2] = {FormTrie::kPlainRoot, FormTrie::kPlainRoot};
            Params params[2];
            for (uint32_t len = 1; len <= maxLen; ++len) {
                const DecodedInst &inst = insts[i + len - 1];
                const Fit fit = windowFit(inst, opts);
                if (fit == Fit::Never)
                    break;
                if (fit == Fit::Branch) {
                    // All fields literal: the candidate walks its own
                    // path, and both variants coincide on it.
                    if (len >= minLen) {
                        uint32_t b = FormTrie::kBranchRoot;
                        Params none;
                        for (uint32_t k = 0; k < len; ++k)
                            b = trie.child(b, canonInst(insts[i + k], 0,
                                                        true, none, fs));
                        record(b, i, len, true, true, none);
                    }
                    break;
                }
                const bool together = node[1] == node[0];
                node[0] = trie.child(
                    node[0],
                    canonInst(inst, opts.maxParams, true, params[0], fs));
                if (together && fs.imm < 0) {
                    // No immediate has taken a slot: still one form.
                    node[1] = node[0];
                    params[1] = params[0];
                } else {
                    node[1] = trie.child(
                        node[1], canonInst(inst, opts.maxParams, false,
                                           params[1], fs));
                }
                if (len >= minLen) {
                    record(node[0], i, len, false, true, params[0]);
                    if (node[1] != node[0]) // variants coincide: once
                        record(node[1], i, len, false, false, params[1]);
                }
                if (fit == Fit::Last)
                    break;
            }
        }
    }

    // Occurrence lists, in start order, only for the candidates whose
    // count can pay for their entry: no other is ever queued, so its
    // occurrences are dropped (count 0).
    std::vector<uint32_t> occStart;
    std::vector<std::array<uint8_t, 3>> occParams;
    {
        std::vector<uint32_t> next(cands.size());
        uint32_t total = 0;
        for (size_t ci = 0; ci < cands.size(); ++ci) {
            Candidate &cand = cands[ci];
            if (cand.benefit(cand.count, opts) <= 0)
                cand.count = 0;
            cand.first = next[ci] = total;
            total += cand.count;
        }
        occStart.resize(total);
        occParams.resize(total);
        for (const Occurrence &occ : found) {
            if (cands[occ.cand].count == 0)
                continue;
            const uint32_t at = next[occ.cand]++;
            occStart[at] = occ.start;
            occParams[at] = occ.values;
        }
    }
    found = {};

    // ---- Greedy selection with lazy re-evaluation. ----
    std::vector<bool> covered(n, false);
    // A branch-ended occurrence is declined when its branch target lies
    // outside the text or, measured before compression, farther than
    // the codeword's 15-bit offset parameter reaches. Compression never
    // lengthens an in-text distance, so the final offset then fits too.
    auto reachable = [&](uint32_t s, uint32_t len) {
        const uint32_t b = s + len - 1;
        const Addr target =
            insts[b].branchTarget(prog.textBase + Addr(b) * 4);
        if (!prog.inText(target))
            return false;
        const int64_t t = static_cast<int64_t>((target - prog.textBase) / 4);
        return fitsSigned(t - int64_t(s) - 1, 15);
    };
    std::vector<uint32_t> accepted; ///< occurrence indices
    auto validOccurrences = [&](const Candidate &cand) {
        // Non-overlapping, left-to-right; starts are already sorted.
        accepted.clear();
        uint32_t nextFree = 0;
        for (uint32_t oi = cand.first; oi < cand.first + cand.count; ++oi) {
            const uint32_t s = occStart[oi];
            if (s < nextFree)
                continue;
            bool clean = true;
            for (uint32_t k = 0; k < cand.len && clean; ++k)
                clean = !covered[s + k];
            if (!clean || (cand.hasBranch && !reachable(s, cand.len)))
                continue;
            accepted.push_back(oi);
            nextFree = s + cand.len;
        }
        return accepted.size();
    };

    using QEntry = std::pair<int64_t, uint32_t>; // (benefit, candidate)
    std::priority_queue<QEntry> queue;
    for (uint32_t ci = 0; ci < cands.size(); ++ci) {
        const int64_t b = cands[ci].benefit(cands[ci].count, opts);
        if (b > 0)
            queue.emplace(b, ci);
    }

    struct Chosen
    {
        uint32_t candIdx;
        uint16_t tag;
        uint32_t firstStart; ///< first accepted occurrence's start
    };
    std::vector<Chosen> chosen;
    /** Per accepted start word: owning chosen index and parameters. */
    std::vector<int32_t> startOwner(n, -1);
    std::vector<std::array<uint8_t, 3>> startParams(
        n, std::array<uint8_t, 3>{0, 0, 0});

    while (!queue.empty() && chosen.size() < opts.maxDictEntries) {
        const auto [claimed, ci] = queue.top();
        queue.pop();
        const Candidate &cand = cands[ci];
        const int64_t actual = cand.benefit(validOccurrences(cand), opts);
        if (actual <= 0)
            continue;
        if (actual < claimed) {
            queue.emplace(actual, ci); // stale estimate; retry later
            continue;
        }
        for (const uint32_t oi : accepted) {
            const uint32_t s = occStart[oi];
            startOwner[s] = static_cast<int32_t>(chosen.size());
            startParams[s] = occParams[oi];
            for (uint32_t k = 0; k < cand.len; ++k)
                covered[s + k] = true;
        }
        chosen.push_back({ci, static_cast<uint16_t>(chosen.size()),
                          occStart[accepted.front()]});
    }

    // ---- Layout. ----
    std::vector<uint32_t> newIndex(n + 1, 0);
    const std::vector<int32_t> &occAtStart = startOwner;
    {
        uint32_t cursor = 0;
        uint32_t i = 0;
        while (i < n) {
            if (occAtStart[i] >= 0) {
                const Candidate &cand =
                    cands[chosen[occAtStart[i]].candIdx];
                for (uint32_t k = 0; k < cand.len; ++k)
                    newIndex[i + k] = cursor;
                ++cursor;
                i += cand.len;
            } else {
                newIndex[i] = cursor;
                ++cursor;
                ++i;
            }
        }
        newIndex[n] = cursor;
    }
    auto mapAddr = [&](Addr oldAddr) -> Addr {
        if (!prog.inText(oldAddr))
            return oldAddr;
        return prog.textBase + Addr(newIndex[(oldAddr - prog.textBase) /
                                             4]) *
                                   4;
    };

    // ---- Emission. ----
    CompressionResult result;
    result.originalTextBytes = prog.textBytes();
    Program &out = result.compressed;
    out.textBase = prog.textBase;
    out.dataBase = prog.dataBase;
    out.data = prog.data;
    out.stackTop = prog.stackTop;
    out.entry = mapAddr(prog.entry);
    for (const auto &kv : prog.symbols)
        out.symbols[kv.first] = mapAddr(kv.second);

    uint64_t residualInsts = 0;
    uint32_t i = 0;
    while (i < n) {
        const Addr newPC = prog.textBase + out.text.size() * 4;
        if (occAtStart[i] >= 0) {
            const Chosen &ch = chosen[occAtStart[i]];
            const Candidate &cand = cands[ch.candIdx];
            Word cw;
            if (cand.hasBranch) {
                const DecodedInst &branch = insts[i + cand.len - 1];
                // The branch's own (old) PC, not the candidate start.
                const Addr oldPC =
                    prog.textBase + Addr(i + cand.len - 1) * 4;
                const Addr target = branch.branchTarget(oldPC);
                // The expanded branch executes at the codeword's PC.
                const int64_t disp =
                    (static_cast<int64_t>(mapAddr(target)) -
                     static_cast<int64_t>(newPC) - 4) /
                    4;
                DISE_ASSERT(fitsSigned(disp, 15),
                            "branch offset parameter overflow");
                cw = makeCodewordImm(opts.reservedOp, ch.tag, disp);
            } else {
                // Parameter values of THIS occurrence.
                const auto &vals = startParams[i];
                cw = makeCodeword(opts.reservedOp, ch.tag, vals[0],
                                  vals[1], vals[2]);
            }
            out.text.push_back(cw);
            ++result.codewords;
            result.instsCompressedOut += cand.len - 1;
            i += cand.len;
        } else {
            DecodedInst inst = insts[i];
            if (inst.cls == OpClass::CondBranch ||
                inst.cls == OpClass::UncondBranch ||
                inst.cls == OpClass::Call) {
                const Addr oldPC = prog.textBase + Addr(i) * 4;
                const Addr target = inst.branchTarget(oldPC);
                inst.imm = (static_cast<int64_t>(mapAddr(target)) -
                            static_cast<int64_t>(newPC) - 4) /
                           4;
            }
            out.text.push_back(encode(inst));
            ++residualInsts;
            ++i;
        }
    }

    result.compressedTextBytes =
        residualInsts * 4 + result.codewords * opts.codewordBytes;
    result.dictEntries = static_cast<uint32_t>(chosen.size());

    // ---- Dictionary productions. ----
    auto dict = std::make_shared<ProductionSet>();
    for (const Chosen &ch : chosen) {
        const Candidate &cand = cands[ch.candIdx];
        const uint32_t firstStart = ch.firstStart;
        const Canon canon = canonicalize(insts, firstStart, cand.len,
                                         opts, cand.immParams);
        DISE_ASSERT(canon.ok, "chosen candidate no longer canonicalizes");

        ReplacementSeq seq;
        seq.name = strFormat("D%u", unsigned(ch.tag));
        for (uint32_t k = 0; k < cand.len; ++k) {
            ReplacementInst rinst;
            rinst.templ = insts[firstStart + k];
            rinst.templ.raw = 0;
            const FieldSlots &fs = canon.slots[k];
            auto regDir = [](int8_t slot) {
                switch (slot) {
                  case 0: return RegDirective::Param1;
                  case 1: return RegDirective::Param2;
                  case 2: return RegDirective::Param3;
                  default: return RegDirective::Literal;
                }
            };
            auto immDir = [](int8_t slot) {
                switch (slot) {
                  case 0: return ImmDirective::Param1;
                  case 1: return ImmDirective::Param2;
                  case 2: return ImmDirective::Param3;
                  default: return ImmDirective::Literal;
                }
            };
            rinst.raDir = regDir(fs.ra);
            rinst.rbDir = regDir(fs.rb);
            rinst.rcDir = regDir(fs.rc);
            rinst.immDir = immDir(fs.imm);
            if (cand.hasBranch && k + 1 == cand.len)
                rinst.immDir = ImmDirective::ParamImm;
            seq.insts.push_back(rinst);
        }
        result.dictionaryBytes +=
            uint64_t(cand.len) * opts.dictEntryBytes;
        dict->addSequenceWithId(ch.tag, std::move(seq));
    }
    if (!chosen.empty()) {
        PatternSpec pattern;
        pattern.opcode = opts.reservedOp;
        dict->addTagPattern(pattern, 0);
    }
    result.dictionary = std::move(dict);

    // ---- Verification: every codeword must expand back to its original
    // instructions (branch displacements checked in the new layout). ----
    for (uint32_t s = 0; s < n; ++s) {
        if (occAtStart[s] < 0)
            continue;
        const Chosen &ch = chosen[occAtStart[s]];
        const Candidate &cand = cands[ch.candIdx];
        const Addr newPC =
            prog.textBase + Addr(newIndex[s]) * 4;
        const DecodedInst trigger =
            decode(out.text[newIndex[s]]);
        const ReplacementSeq *seq =
            result.dictionary->sequence(ch.tag);
        DISE_ASSERT(seq != nullptr, "missing dictionary sequence");
        const auto expanded = instantiateSeq(*seq, trigger, newPC);
        for (uint32_t k = 0; k < cand.len; ++k) {
            DecodedInst expect = insts[s + k];
            if (cand.hasBranch && k + 1 == cand.len) {
                const Addr oldPC = prog.textBase + Addr(s + k) * 4;
                const Addr target = expect.branchTarget(oldPC);
                expect.imm = (static_cast<int64_t>(mapAddr(target)) -
                              static_cast<int64_t>(newPC) - 4) /
                             4;
            }
            expect.raw = 0;
            DecodedInst got = expanded[k];
            got.raw = 0;
            got.tag = 0;
            expect.tag = 0;
            DISE_ASSERT(got == expect,
                        strFormat("decompression mismatch at word %u "
                                  "slot %u", s, k));
        }
    }

    return result;
}

} // namespace dise
