#include "src/dise/engine.hpp"

#include <algorithm>

#include "src/common/bits.hpp"
#include "src/common/logging.hpp"

namespace dise {

DiseEngine::DiseEngine(const DiseConfig &config)
    : config_(config), stats_("dise")
{
    if (config_.rtEntries > 0) {
        DISE_ASSERT(config_.rtAssoc > 0, "rt assoc must be nonzero");
        DISE_ASSERT(config_.rtEntries % config_.rtAssoc == 0,
                    "rt entries must divide by assoc");
        rtSets_ = config_.rtEntries / config_.rtAssoc;
        DISE_ASSERT(isPow2(rtSets_), "rt sets must be pow2");
        rt_.assign(config_.rtEntries, RtEntry());
    }
}

void
DiseEngine::setProductions(std::shared_ptr<const ProductionSet> set)
{
    // Checked before any state changes, so a refused set (a serve
    // request's productions, say) fails alone and leaves the engine as
    // it was.
    if (set) {
        for (const auto &[id, seq] : set->sequences()) {
            if (seq.length() > kMaxSeqLen || id > kMaxSeqId) {
                fatal(strFormat("replacement sequence '%s' (id %u) has "
                                "%u instructions; productions may use "
                                "at most %u, and ids up to %u",
                                seq.name.c_str(), id, seq.length(),
                                kMaxSeqLen, kMaxSeqId));
            }
        }
    }
    set_ = std::move(set);
    patternsByOpcode_.assign(static_cast<size_t>(Opcode::NUM_OPCODES), {});
    seqs_.clear();
    rtShift_ = 3;
    if (set_) {
        const auto &prods = set_->productions();
        for (uint32_t i = 0; i < prods.size(); ++i) {
            for (const Opcode op : prods[i].pattern.coveredOpcodes())
                patternsByOpcode_[static_cast<size_t>(op)].push_back(i);
        }
        // Size the RT's per-sequence slot stride to the longest
        // replacement sequence so no sequence's slots alias a
        // neighboring id's range, and classify each sequence's PC
        // dependence for the expansion cache. The floor of 8 slots
        // matches the paper's machine.
        uint32_t maxLen = 1;
        for (const auto &kv : set_->sequences()) {
            maxLen = std::max(maxLen, kv.second.length());
            if (kv.first >= seqs_.size())
                seqs_.resize(kv.first + 1);
            SeqInfo &info = seqs_[kv.first];
            info.seq = &kv.second;
            info.pcDependent = seqDependsOnPC(kv.second);
        }
        while ((1u << rtShift_) < maxLen)
            ++rtShift_;
    }
    flushTables();
}

void
DiseEngine::flushTables()
{
    // Covers setProductions too (it always flushes): any install or
    // flush invalidates translated traces built against the old tables.
    ++generation_;
    ++rtEpoch_;
    ops_.assign(patternsByOpcode_.size(), OpState());
    for (size_t o = 0; o < ops_.size(); ++o)
        ops_[o].numPatterns =
            static_cast<uint32_t>(patternsByOpcode_[o].size());
    ptResident_.assign(set_ ? set_->productions().size() : 0, false);
    ptResidentCount_ = 0;
    for (auto &entry : rt_)
        entry = RtEntry();
    expCache_.clear();
    ptCorrupt_.clear();
    corruptResident_ = false;
}

bool
DiseEngine::corruptPatternEntry(uint64_t pick)
{
    if (ptResidentCount_ == 0)
        return false;
    // Pick among resident patterns in ascending index order so the
    // choice is deterministic.
    std::vector<uint32_t> resident;
    resident.reserve(ptResidentCount_);
    for (uint32_t i = 0; i < ptResident_.size(); ++i)
        if (ptResident_[i])
            resident.push_back(i);
    ptCorrupt_.insert(resident[pick % resident.size()]);
    stats_.add("pt_faults_injected");
    ++generation_; // stale traces must observe the corrupted entry
    corruptResident_ = true;
    return true;
}

bool
DiseEngine::corruptReplacementEntry(uint64_t pick, unsigned bit)
{
    std::vector<size_t> valid;
    for (size_t i = 0; i < rt_.size(); ++i)
        if (rt_[i].valid)
            valid.push_back(i);
    if (valid.empty())
        return false;
    RtEntry &entry = rt_[valid[pick % valid.size()]];
    entry.corrupt = true;
    entry.corruptBit = bit;
    ++rtEpoch_;
    stats_.add("rt_faults_injected");
    ++generation_; // stale traces must observe the corrupted entry
    corruptResident_ = true;
    return true;
}

bool
DiseEngine::hasCorruptEntries() const
{
    if (!ptCorrupt_.empty())
        return true;
    for (const auto &entry : rt_)
        if (entry.valid && entry.corrupt)
            return true;
    return false;
}

void
DiseEngine::evictPattern(uint32_t idx)
{
    // Evicting a pattern clears residency for every opcode it covers.
    ptResident_[idx] = false;
    --ptResidentCount_;
    for (const Opcode cov : set_->productions()[idx].pattern.coveredOpcodes())
        ops_[static_cast<size_t>(cov)].resident = false;
}

bool
DiseEngine::checkPatternTable(Opcode op)
{
    const auto &covering = patternsByOpcode_[static_cast<size_t>(op)];
    if (covering.empty())
        return false; // active counter is zero; a non-match, not a miss
    // Injected faults: a corrupted resident pattern covering this opcode
    // either trips parity (detect, invalidate, re-fault below) or — with
    // parity off — garbles the match so the trigger silently passes
    // through unexpanded.
    if (!ptCorrupt_.empty()) {
        for (const uint32_t idx : covering) {
            if (!ptCorrupt_.count(idx) || !ptResident_[idx])
                continue;
            if (config_.parityChecks) {
                stats_.add("pt_parity_detected");
                ptCorrupt_.erase(idx);
                evictPattern(idx);
            } else {
                suppressExpand_ = true;
                return false; // counters still agree: no fill happens
            }
        }
    }
    // The walk: refresh (or fill) every covering pattern's LRU stamp.
    OpState &state = ops_[static_cast<size_t>(op)];
    state.ptClock = useCounter_ + 1;
    useCounter_ += covering.size();
    if (state.resident)
        return false;

    // Active and resident pattern counters differ: PT miss. Fill every
    // pattern covering this opcode, evicting LRU patterns if needed.
    stats_.add("pt_misses");
    for (const uint32_t idx : covering) {
        if (!ptResident_[idx]) {
            ptResident_[idx] = true;
            ++ptResidentCount_;
        }
    }
    if (ptResidentCount_ > config_.ptEntries) {
        // Derive the stamps (see OpState::ptClock).
        std::vector<uint64_t> stamp(ptResident_.size(), 0);
        for (size_t o = 0; o < ops_.size(); ++o) {
            if (ops_[o].ptClock == 0)
                continue;
            for (uint32_t i = 0; i < patternsByOpcode_[o].size(); ++i) {
                uint64_t &s = stamp[patternsByOpcode_[o][i]];
                s = std::max(s, ops_[o].ptClock + i);
            }
        }
        while (ptResidentCount_ > config_.ptEntries) {
            uint32_t evicted = 0;
            uint64_t minStamp = ~uint64_t(0);
            for (uint32_t i = 0; i < ptResident_.size(); ++i) {
                if (ptResident_[i] && stamp[i] < minStamp) {
                    minStamp = stamp[i];
                    evicted = i;
                }
            }
            evictPattern(evicted);
        }
    }
    state.resident = true;
    // Re-derive residency: an opcode is resident iff all covering
    // patterns are in the PT (evictions above may have split groups).
    for (size_t o = 0; o < patternsByOpcode_.size(); ++o) {
        if (!ops_[o].resident)
            continue;
        for (const uint32_t idx : patternsByOpcode_[o]) {
            if (!ptResident_[idx]) {
                ops_[o].resident = false;
                break;
            }
        }
    }
    return true;
}

unsigned
DiseEngine::rtIndex(SeqId id, uint32_t disepc) const
{
    // Consecutive sequence slots fall in consecutive sets; distinct
    // sequences are spread by id. Mirrors low-order-bit indexing of a
    // hardware RT where the line address is (id << log2(maxlen)) | slot;
    // rtShift_ is derived from the active set's longest sequence.
    return static_cast<unsigned>(((uint64_t(id) << rtShift_) + disepc) &
                                 (rtSets_ - 1));
}

DiseEngine::RtEntry *
DiseEngine::rtFind(SeqId id, uint32_t disepc)
{
    RtEntry *way = &rt_[size_t(rtIndex(id, disepc)) * config_.rtAssoc];
    for (uint32_t w = 0; w < config_.rtAssoc; ++w) {
        if (way[w].valid && way[w].seqId == id && way[w].disepc == disepc)
            return &way[w];
    }
    return nullptr;
}

bool
DiseEngine::checkReplacementTable(SeqId id, const ReplacementSeq &seq)
{
    // The walk: refresh (or fill) every slot's LRU stamp (see
    // SeqInfo::rtClock). The walking sequence's slots this walk has not
    // reached yet still hold its previous walk's stamps.
    SeqInfo &walking = seqs_[id];
    const uint64_t prevClock = walking.rtClock;
    walking.rtClock = useCounter_ + 1;
    useCounter_ += seq.length();
    if (config_.rtEntries == 0)
        return false; // perfect RT

    bool miss = false;
    for (uint32_t slot = 0; slot < seq.length(); ++slot) {
        RtEntry *hit = rtFind(id, slot);
        if (hit && hit->corrupt) {
            if (config_.parityChecks) {
                // Parity trips on use: invalidate and fall through to
                // the fill path so the controller re-faults the slot
                // (the caller charges the miss penalty).
                stats_.add("rt_parity_detected");
                hit->valid = false;
                hit->corrupt = false;
                hit = nullptr;
                ++rtEpoch_;
            } else {
                // No parity: the garbled entry hits and its instruction
                // is delivered bit-flipped (applied in expand()).
                corruptSlotsHit_.emplace_back(slot, hit->corruptBit);
            }
        }
        if (hit)
            continue;
        miss = true;
        // Fill this slot: the first invalid way, else the LRU way.
        RtEntry *way = &rt_[size_t(rtIndex(id, slot)) * config_.rtAssoc];
        RtEntry *victim = &way[0];
        uint64_t oldest = ~uint64_t(0);
        for (uint32_t w = 0; w < config_.rtAssoc; ++w) {
            if (!way[w].valid) {
                victim = &way[w];
                break;
            }
            const uint64_t clock = way[w].seqId == id && way[w].disepc > slot
                                       ? prevClock
                                       : seqs_[way[w].seqId].rtClock;
            if (clock + way[w].disepc < oldest) {
                oldest = clock + way[w].disepc;
                victim = &way[w];
            }
        }
        victim->valid = true;
        victim->seqId = id;
        victim->disepc = slot;
        victim->corrupt = false;
        ++rtEpoch_;
    }
    return miss;
}

void
DiseEngine::syncStats() const
{
    const auto put = [&](const char *key, uint64_t value) {
        if (value)
            stats_.set(key, value);
    };
    put("inspected", inspected_);
    put("expansions", expansions_);
    put("replacement_insts", replacementInsts_);
    put("expand_cache_fills", cacheFills_);
    put("expand_cache_hits", cacheHits_);
    put("pt_silent_drops", ptSilentDrops_);
    put("rt_garbage_expansions", rtGarbageExpansions_);
}

/**
 * Model a single-bit upset in a stored replacement instruction: flip the
 * bit in the encoding and re-decode. Instructions synthesized by the IL
 * have no encoding (raw == 0); for those the flip is applied to the
 * immediate field as a documented approximation.
 */
static void
flipInstBit(DecodedInst &inst, unsigned bit)
{
    if (inst.raw != 0) {
        inst = decode(inst.raw ^ (Word(1) << (bit % 32)));
    } else {
        inst.imm ^= int64_t(1) << (bit % 16);
    }
}

ExpandResult
DiseEngine::expand(const DecodedInst &fetched, Addr pc)
{
    ExpandResult result;
    ++inspected_;
    if (!set_ || set_->empty())
        return result;

    suppressExpand_ = false;
    corruptSlotsHit_.clear();
    result.ptMiss = checkPatternTable(fetched.op);
    if (result.ptMiss)
        result.missPenalty += config_.missPenalty;

    const auto seqId = set_->match(fetched);
    if (!seqId)
        return result;
    if (suppressExpand_) {
        // Parity-off PT corruption: the garbled pattern matches nothing,
        // so a trigger that should have expanded silently passes through.
        ++ptSilentDrops_;
        return result;
    }

    const ReplacementSeq *seq =
        *seqId < seqs_.size() ? seqs_[*seqId].seq : nullptr;
    if (!seq) {
        // A tagged trigger naming an unbound dictionary entry is a user
        // error (corrupt codeword); surface it loudly.
        fatal(strFormat("DISE: trigger at 0x%llx selects unbound "
                        "replacement sequence %u",
                        (unsigned long long)pc, *seqId));
    }

    result.rtMiss = checkReplacementTable(*seqId, *seq);
    if (result.rtMiss) {
        stats_.add("rt_misses");
        result.missPenalty += seq->composeOnFill
                                  ? config_.composedMissPenalty
                                  : config_.missPenalty;
        if (seq->composeOnFill)
            stats_.add("rt_misses_composed");
    }

    result.expanded = true;
    result.seqId = *seqId;
    result.seq = seq;

    // Instantiation fast path: repeated dynamic instances of the same
    // static trigger produce identical replacement sequences (keyed by
    // PC as well when the sequence reads it), so memoize and hand out a
    // span into the cache. Triggers without an encoding (raw == 0, only
    // synthesized instructions) are not keyable and use the scratch
    // buffer, as does everything once the cache is full (at once when
    // its cap is 0).
    if (fetched.raw != 0) {
        const bool pcDep = seqs_[*seqId].pcDependent;
        const SeqKey key{*seqId, fetched.raw, pcDep ? pc : 0};
        auto it = expCache_.find(key);
        if (it == expCache_.end() &&
            expCache_.size() < config_.expansionCacheMaxEntries) {
            it = expCache_.emplace(key, std::vector<DecodedInst>()).first;
            instantiateSeqInto(*seq, fetched, pc, it->second);
            ++cacheFills_;
        } else if (it != expCache_.end()) {
            ++cacheHits_;
        }
        if (it != expCache_.end()) {
            result.insts = it->second.data();
            result.numInsts = static_cast<uint32_t>(it->second.size());
            result.memoized = true;
        }
    }
    if (!result.insts) {
        scratch_.clear();
        instantiateSeqInto(*seq, fetched, pc, scratch_);
        result.insts = scratch_.data();
        result.numInsts = static_cast<uint32_t>(scratch_.size());
    }

    if (!corruptSlotsHit_.empty()) {
        // Parity-off RT corruption: deliver the garbled instruction(s)
        // from a scratch copy so the memoized cache entry stays clean.
        if (result.insts != scratch_.data())
            scratch_.assign(result.begin(), result.end());
        for (const auto &[slot, bit] : corruptSlotsHit_) {
            if (slot < scratch_.size())
                flipInstBit(scratch_[slot], bit);
        }
        result.insts = scratch_.data();
        result.numInsts = static_cast<uint32_t>(scratch_.size());
        result.memoized = false;
        ++rtGarbageExpansions_;
    }

    ++expansions_;
    replacementInsts_ += result.numInsts;
    return result;
}

bool
DiseEngine::probeRt(const ExpandMemo &memo)
{
    for (uint32_t slot = 0; config_.rtEntries != 0 && slot < memo.numInsts;
         ++slot) {
        const RtEntry *hit = rtFind(memo.seqId, slot);
        if (!hit || hit->corrupt)
            return false;
    }
    seqs_[memo.seqId].rtEpoch = rtEpoch_;
    return true;
}

void
DiseEngine::fillMemo(ExpandMemo &memo, const DecodedInst &fetched,
                     const ExpandResult &result) const
{
    memo = ExpandMemo();
    // Never record outcomes observed through injected corruption: a
    // parity-suppressed match or garbled delivery is not replayable.
    if (corruptResident_ || !set_ || set_->empty())
        return;
    if (!result.expanded) {
        memo.gen = generation_;
        memo.kind = ExpandMemo::NoMatch;
        memo.op = fetched.op;
        return;
    }
    if (!result.memoized)
        return; // scratch-backed span: contents may differ next call
    memo.gen = generation_;
    memo.kind = ExpandMemo::Expanded;
    memo.op = fetched.op;
    memo.seqId = result.seqId;
    memo.seq = result.seq;
    memo.insts = result.insts;
    memo.numInsts = result.numInsts;
}

const ReplacementSeq *
DiseEngine::sequence(SeqId id) const
{
    return set_ ? set_->sequence(id) : nullptr;
}

} // namespace dise
