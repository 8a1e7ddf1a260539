/**
 * @file
 * The DISE engine: the decode-stage hardware that inspects every fetched
 * instruction and macro-expands triggers (paper Section 2.2).
 *
 * Three structures are modeled:
 *
 *  - The pattern table (PT) matches fetched instructions against the
 *    active patterns, most-specific first. Virtualization treats the PT
 *    as a cache over the active production set: a small pattern-counter
 *    table tracks, per opcode, the number of active vs PT-resident
 *    patterns; a fetched instance of an opcode whose counters differ is a
 *    PT miss, which (procedurally, via the controller) fills all patterns
 *    covering that opcode.
 *
 *  - The replacement table (RT) caches replacement sequences, one entry
 *    per replacement instruction, tagged by (sequence id, DISEPC offset).
 *    It may be direct-mapped, set-associative, or perfect. An RT miss is
 *    detected when an id/DISEPC pair produced by the PT is absent; the
 *    controller fills the whole sequence.
 *
 *  - The instantiation logic (IL) — instantiate() in production.hpp —
 *    combines replacement literals with trigger fields.
 *
 * PT and RT misses interrupt the processor: the pipeline is flushed and
 * the fill proceeds procedurally (30 cycles; 150 when the miss handler
 * must also compose productions, as in transparent-within-aware ACF
 * composition). The engine reports those events; the timing model charges
 * them.
 */

#ifndef DISE_DISE_ENGINE_HPP
#define DISE_DISE_ENGINE_HPP

#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/bits.hpp"
#include "src/common/stats.hpp"
#include "src/dise/production.hpp"

namespace dise {

/** Decode-pipeline placement options for the engine (paper Section 4.1). */
enum class DisePlacement : uint8_t {
    /** Idealized: expansion costs nothing (upper bound). */
    Free,
    /** PT/RT in parallel with the decoder: 1-cycle stall per expansion. */
    Stall,
    /** PT/RT in series: one extra pipeline stage, always. */
    Pipe,
};

/** Engine configuration (defaults match the paper's simulated machine). */
struct DiseConfig
{
    uint32_t ptEntries = 32;
    /** RT capacity in replacement-instruction entries; 0 = perfect. */
    uint32_t rtEntries = 2048;
    /** RT associativity; 1 = direct-mapped. */
    uint32_t rtAssoc = 2;
    /** Cycles to fill on a simple PT/RT miss. */
    uint32_t missPenalty = 30;
    /** Cycles when the miss handler must compose productions. */
    uint32_t composedMissPenalty = 150;
    DisePlacement placement = DisePlacement::Pipe;
    /**
     * Simulator (not architecture) knob: memoize instantiated
     * replacement sequences per (sequence, trigger word, PC class) so
     * repeated dynamic instances of the same static trigger skip the
     * instantiation logic. Caching stops once this many entries are
     * held; 0 turns it off. Purely a fast path — architectural stats
     * and results are identical at any cap.
     */
    uint32_t expansionCacheMaxEntries = 1u << 16;
    /**
     * Per-entry parity on the PT and RT. With parity on, a corrupted
     * entry (injected via corruptPatternEntry / corruptReplacementEntry)
     * is detected on its next use, invalidated, and re-faulted through
     * the controller, charging the usual miss penalty. With parity off,
     * a corrupted PT entry silently fails to match (triggers of the
     * covered opcodes pass through unexpanded) and a corrupted RT entry
     * yields a garbled replacement instruction. Fault-free behavior is
     * bit-identical with parity on or off.
     */
    bool parityChecks = false;
};

/**
 * Longest replacement sequence, in instructions, that
 * DiseEngine::setProductions accepts. The trace record's DISEPC fields
 * are 16 bits wide (DynInst in src/sim/trace.hpp asserts they hold
 * it), so a longer sequence would alias slot positions.
 */
constexpr uint32_t kMaxSeqLen = 65535;

/**
 * Largest sequence id DiseEngine::setProductions accepts: the engine
 * keeps its per-sequence state dense over [0, largest id]. Codeword
 * tags are 11 bits (kMaxCodewordTag) and composed sets stay in the
 * low thousands.
 */
constexpr SeqId kMaxSeqId = 65535;

/**
 * Per-static-trigger expansion memo, owned by the caller (one per
 * translated Engine slot, see SlotSide::memo). Records the outcome of a
 * clean expand() of one static instruction — either "covered opcode but
 * no pattern matched" or "expanded to this memoized span" — so repeated
 * dynamic instances can skip the pattern match and the expansion-cache
 * hash lookup entirely (DiseEngine::expandFast). After a successful
 * expandFast the caller adopts an Expanded outcome straight from these
 * fields (no miss, memoized span). Invalid whenever the recorded
 * generation lags the engine's: installs, flushes, and fault injections
 * all advance it.
 */
struct ExpandMemo
{
    uint64_t gen = ~uint64_t(0);
    enum : uint8_t { Unknown = 0, NoMatch = 1, Expanded = 2 };
    uint8_t kind = Unknown;
    Opcode op = Opcode::NOP;
    SeqId seqId = 0;
    const ReplacementSeq *seq = nullptr;
    /** Memoized instantiation span (points into the engine's expansion
     *  cache, stable until the next generation bump). */
    const DecodedInst *insts = nullptr;
    uint32_t numInsts = 0;
};

/**
 * Result of presenting one fetched instruction to the engine.
 *
 * The replacement instructions are exposed as a non-owning span:
 * @c insts points either into the engine's expansion cache or into its
 * reusable scratch buffer, so no allocation happens per fetch. The span
 * is valid until the engine's next expand(), flushTables() or
 * setProductions() call — the same lifetime contract as @c seq, which
 * points into the active production set. Callers that outlive that
 * window (none in the simulator loop: a new expansion can only start
 * after the previous sequence fully retired) must copy.
 */
struct ExpandResult
{
    /** True when the instruction matched a pattern and was replaced. */
    bool expanded = false;
    SeqId seqId = 0;
    const ReplacementSeq *seq = nullptr;
    /** The instantiated replacement sequence (offset 0 onward). */
    const DecodedInst *insts = nullptr;
    uint32_t numInsts = 0;
    bool ptMiss = false;
    bool rtMiss = false;
    /** Stall cycles the miss events cost (flush handled by the caller). */
    uint32_t missPenalty = 0;
    /**
     * @c insts points into the engine's memoized expansion cache: the
     * span is stable (same pointer, same contents) for every future
     * expansion of this key at the current table generation. False for
     * scratch-backed or fault-garbled deliveries, whose contents may
     * differ call to call.
     */
    bool memoized = false;

    /** @name Span access to the instantiated sequence. */
    /// @{
    size_t size() const { return numInsts; }
    bool empty() const { return numInsts == 0; }
    const DecodedInst &operator[](size_t i) const { return insts[i]; }
    const DecodedInst *begin() const { return insts; }
    const DecodedInst *end() const { return insts + numInsts; }
    /// @}
};

/** The engine proper. Production sets are installed by the controller. */
class DiseEngine
{
  public:
    explicit DiseEngine(const DiseConfig &config = {});

    /**
     * Install (activate) a production set; cold PT/RT.
     * @throws FatalError, with no state changed, when a sequence is
     *         longer than kMaxSeqLen instructions or its id is above
     *         kMaxSeqId.
     */
    void setProductions(std::shared_ptr<const ProductionSet> set);

    /** The active set (may be null). */
    const ProductionSet *productions() const { return set_.get(); }

    /**
     * The active set's owning handle (snapshot/restore plumbing). The
     * engine is value-copyable — tables, caches, stats and the LRU/
     * generation counters all copy; internal sequence pointers
     * (seqs_) reference the shared set, which the copy co-owns — so
     * a plain `DiseEngine` copy is a complete engine snapshot, and
     * restoring is plain assignment. DiseController::restoreEngine
     * uses this accessor to keep its own active-set handle in sync.
     */
    std::shared_ptr<const ProductionSet> sharedProductions() const
    {
        return set_;
    }

    /**
     * Inspect one fetched instruction.
     *
     * @param fetched Decoded fetch-stream instruction.
     * @param pc Its PC.
     * @return Expansion outcome, including any PT/RT miss events. When
     *         the instruction is not a trigger, expanded is false and the
     *         instruction passes through unchanged.
     */
    ExpandResult expand(const DecodedInst &fetched, Addr pc);

    /**
     * Memoized inspection fast path. When @p memo records a clean prior
     * outcome for the same static instruction at the current table
     * generation AND the tables are in the state the memo assumes (PT
     * residency intact, every RT slot of the sequence still a clean
     * hit), performs the inspection with bit-identical counter and LRU
     * evolution to expand() — the PT walk, the RT walk, the
     * inspected/expansions/cache-hit counters — and returns true: the
     * outcome is then exactly the one @p memo records. Returns false
     * (with no state touched) whenever any check fails or any injected
     * corruption may be resident; the caller then runs the full
     * expand() and may re-fill the memo.
     *
     * A walk stores one clock (see OpState::ptClock, SeqInfo::rtClock),
     * so replaying both walks is two stores and a clock advance. The RT
     * check costs no probe while the sequence's residency epoch is
     * current. Header-inline: the hit is the translated interpreter's
     * per-expansion cost. Only the probe that re-takes the epoch
     * (probeRt) is a call.
     */
    DISE_ALWAYS_INLINE bool
    expandFast(const ExpandMemo &memo)
    {
        // A memo at the live generation proves the active set, the
        // pattern list, and the memoized instantiation span are all
        // unchanged; the dynamic preconditions (PT residency, clean RT
        // hits) are verified before any state is touched, so a bail-out
        // leaves the tables exactly as expand() expects to find them.
        OpState &op = ops_[static_cast<size_t>(memo.op)];
        if (memo.gen != generation_ || memo.kind == ExpandMemo::Unknown ||
            corruptResident_ || !op.resident)
            return false;
        const bool expanded = memo.kind == ExpandMemo::Expanded;
        SeqInfo *info = nullptr;
        if (expanded) {
            // Every RT slot must still be a clean resident hit: a
            // probe at the live RT epoch proves it.
            info = &seqs_[memo.seqId];
            if (info->rtEpoch != rtEpoch_ && !probeRt(memo))
                return false; // miss (or fault): the full path fills it
        }
        // Replay expand()'s PT walk, then its RT walk, on the shared
        // LRU clock.
        op.ptClock = useCounter_ + 1;
        uint64_t clock = useCounter_ + op.numPatterns;
        ++inspected_;
        if (expanded) {
            info->rtClock = clock + 1;
            clock += memo.numInsts;
            ++cacheHits_; // the memoized span is still in expCache_
            ++expansions_;
            replacementInsts_ += memo.numInsts;
        }
        useCounter_ = clock;
        return true;
    }

    /**
     * Record the outcome of a full expand() of @p fetched into @p memo
     * for future expandFast() calls. Only clean outcomes are recorded:
     * nothing is recorded while injected corruption is resident, and
     * expansions are recorded only when the result span is memoized
     * (stable for the rest of the generation).
     */
    void fillMemo(ExpandMemo &memo, const DecodedInst &fetched,
                  const ExpandResult &result) const;

    /**
     * Sequence lookup without the RT model (used to resume mid-sequence
     * after an interrupt, where the RT was already filled).
     */
    const ReplacementSeq *sequence(SeqId id) const;

    /** Drop all PT/RT residency (context switch / explicit flush). */
    void flushTables();

    /** @name Translation-cache support (see ExecCore's trace cache). */
    /// @{
    /**
     * Monotone table-generation counter: bumped whenever the engine's
     * visible expansion behavior may change — production-set installs
     * (setProductions), flushTables, and successful fault injections
     * (corruptPatternEntry / corruptReplacementEntry). Translated traces
     * key on it so any PT/RT content change invalidates them.
     */
    uint64_t generation() const { return generation_; }

    /**
     * True when the active set has patterns covering @p op, i.e. when an
     * expand() of an instruction with this opcode could touch PT/RT
     * state or match. For uncovered opcodes expand() is exactly
     * "++inspected" — the trace fast path skips the call and accounts
     * the inspections in bulk via noteInspected().
     */
    bool
    opcodeCovered(Opcode op) const
    {
        return set_ && !set_->empty() &&
               ops_[static_cast<size_t>(op)].numPatterns != 0;
    }

    /**
     * Account @p n fetched instructions that bypassed expand() because
     * their opcodes are not covered (see opcodeCovered). Keeps the
     * "inspected" stat bit-identical to the per-fetch slow path.
     */
    void noteInspected(uint64_t n) { inspected_ += n; }
    /// @}

    /** @name Fault-injection hooks (see DiseConfig::parityChecks). */
    /// @{
    /**
     * Corrupt one PT-resident pattern entry, chosen deterministically by
     * @p pick among the resident patterns in ascending pattern-index
     * order. Returns false (no-op) when the PT is empty.
     */
    bool corruptPatternEntry(uint64_t pick);

    /**
     * Corrupt one valid RT entry, chosen deterministically by @p pick in
     * ascending slot order; @p bit selects the bit flipped in the
     * replacement instruction the entry holds. Returns false (no-op)
     * when the RT is empty or perfect (rtEntries == 0).
     */
    bool corruptReplacementEntry(uint64_t pick, unsigned bit);

    /** True while any injected corruption is still resident. */
    bool hasCorruptEntries() const;
    /// @}

    const DiseConfig &config() const { return config_; }
    const StatGroup &stats() const
    {
        syncStats();
        return stats_;
    }
    StatGroup &stats()
    {
        syncStats();
        return stats_;
    }

  private:
    /**
     * Flush the hot-path counters below into the StatGroup. Per-fetch
     * events are counted in plain members — a string-keyed map update
     * per expansion would dominate the fast path — and materialized as
     * named counters only when someone reads stats().
     */
    void syncStats() const;

    /** Check/maintain PT residency; returns true on a PT miss. */
    bool checkPatternTable(Opcode op);

    /** Drop pattern @p idx from the PT. */
    void evictPattern(uint32_t idx);

    /** Check/maintain RT residency; returns true on an RT miss. */
    bool checkReplacementTable(SeqId id, const ReplacementSeq &seq);

    /**
     * expandFast's RT probe: when every slot of @p memo's sequence hits
     * a clean entry, stamp the sequence with the live RT epoch (always,
     * for a perfect RT). @return false when a slot misses or hits a
     * corrupt entry.
     */
    bool probeRt(const ExpandMemo &memo);

    DiseConfig config_;
    std::shared_ptr<const ProductionSet> set_;

    /*
     * LRU order. Both tables share one clock, useCounter_, and are
     * stamped in walks: a PT walk refreshes (or fills) every pattern
     * covering one opcode, an RT walk every slot of one sequence, each
     * in order with consecutive ticks. So a walk keeps one clock, the
     * stamp its first element gets, and stamps are derived only where
     * a miss picks a victim.
     */

    /** @name PT model. */
    /// @{
    /** Pattern indices covering each opcode (derived from the set). */
    std::vector<std::vector<uint32_t>> patternsByOpcode_;
    /** What the engine keeps per opcode (expandFast reads all three). */
    struct OpState
    {
        /**
         * The opcode's last PT walk stamped patternsByOpcode_[op][i]
         * with ptClock + i; 0 when not walked since the last flush. A
         * pattern's stamp is the largest over its covering opcodes: a
         * later walk outranks an earlier one, which consumed as many
         * ticks as it stamped.
         */
        uint64_t ptClock = 0;
        /** Number of patterns covering the opcode. */
        uint32_t numPatterns = 0;
        /** True when all patterns for the opcode are PT-resident. */
        bool resident = false;
    };
    std::vector<OpState> ops_;
    /** Per-pattern PT residency, indexed by pattern index. */
    std::vector<bool> ptResident_;
    /** Number of resident patterns. */
    uint32_t ptResidentCount_ = 0;
    /// @}

    /** @name RT model. */
    /// @{
    struct RtEntry
    {
        SeqId seqId = 0;
        uint32_t disepc = 0;
        bool valid = false;
        /** Injected single-bit fault (cleared on invalidate/refill). */
        bool corrupt = false;
        unsigned corruptBit = 0;
    };
    std::vector<RtEntry> rt_;
    uint32_t rtSets_ = 0;
    /**
     * RT content epoch: bumped by every change to which (sequence,
     * slot) pairs the RT holds — a fill (and the eviction it makes), a
     * parity invalidation, an injected corruption, a flush. Walks do
     * not bump it.
     */
    uint64_t rtEpoch_ = 0;
    /**
     * log2 of the per-sequence slot stride in the RT index: derived
     * from the active set's longest replacement sequence (rounded up to
     * a power of two, floor 8 slots) so distinct sequences never alias
     * each other's slot ranges.
     */
    unsigned rtShift_ = 3;
    unsigned rtIndex(SeqId id, uint32_t disepc) const;
    /** The valid entry holding (@p id, @p disepc), or nullptr. */
    RtEntry *rtFind(SeqId id, uint32_t disepc);
    /// @}

    /** @name Expansion fast path (simulator-level memoization). */
    /// @{
    struct SeqKey
    {
        SeqId id;
        Word raw;
        /** Trigger PC for PC-dependent sequences; 0 otherwise. */
        Addr pc;
        bool operator==(const SeqKey &) const = default;
    };
    struct SeqKeyHash
    {
        size_t
        operator()(const SeqKey &k) const
        {
            // splitmix64-style mix of the three fields.
            uint64_t x = (uint64_t(k.id) << 32) ^ k.raw;
            x ^= k.pc + 0x9e3779b97f4a7c15ull + (x << 6) + (x >> 2);
            x ^= x >> 30;
            x *= 0xbf58476d1ce4e5b9ull;
            x ^= x >> 27;
            return static_cast<size_t>(x);
        }
    };
    /**
     * Memoized instantiations. Values are never erased individually
     * (only cleared wholesale by flushTables/setProductions), so spans
     * handed out in ExpandResult stay valid across inserts.
     */
    std::unordered_map<SeqKey, std::vector<DecodedInst>, SeqKeyHash>
        expCache_;
    /** What the engine keeps per sequence id. */
    struct SeqInfo
    {
        /** The sequence (a pointer into the active set, valid while
         *  set_ is held); nullptr marks unbound ids. */
        const ReplacementSeq *seq = nullptr;
        /** rtEpoch_ at which every slot last probed as a clean hit. */
        uint64_t rtEpoch = ~uint64_t(0);
        /**
         * The sequence's last RT walk stamped slot d with rtClock + d,
         * so a valid entry's stamp is rtClock + disepc of its sequence.
         */
        uint64_t rtClock = 0;
        /** PC-dependence class (see seqDependsOnPC). */
        bool pcDependent = false;
    };
    /**
     * Dense over [0, max seqId] — ids are at most kMaxSeqId — so an
     * expansion never walks the set's std::map.
     */
    std::vector<SeqInfo> seqs_;
    /** Reused instantiation buffer for uncacheable expansions. */
    std::vector<DecodedInst> scratch_;
    /// @}

    /** @name Hot-path event counters (see syncStats). */
    /// @{
    uint64_t inspected_ = 0;
    uint64_t expansions_ = 0;
    uint64_t replacementInsts_ = 0;
    uint64_t cacheFills_ = 0;
    uint64_t cacheHits_ = 0;
    uint64_t ptSilentDrops_ = 0;
    uint64_t rtGarbageExpansions_ = 0;
    /// @}

    /** @name Injected-fault state (see corruptPatternEntry). */
    /// @{
    /** Corrupted resident pattern indices (empty in fault-free runs). */
    std::set<uint32_t> ptCorrupt_;
    /** Parity-off PT drop: suppress this fetch's expansion. */
    bool suppressExpand_ = false;
    /** Parity-off RT garble: (slot, bit) pairs hit this fetch. */
    std::vector<std::pair<uint32_t, unsigned>> corruptSlotsHit_;
    /**
     * Sticky "corruption may be resident" latch: set by either corrupt
     * hook, cleared only by flushTables. Deliberately conservative —
     * parity detection repairs individual entries without clearing it —
     * so expandFast can gate on one flag instead of re-scanning tables;
     * while set, every inspection takes the full expand() path.
     */
    bool corruptResident_ = false;
    /// @}

    /** The shared LRU clock (see "LRU order" above). */
    uint64_t useCounter_ = 0;
    uint64_t generation_ = 0;
    mutable StatGroup stats_;
};

} // namespace dise

#endif // DISE_DISE_ENGINE_HPP
