/**
 * @file
 * Branch prediction: gshare direction predictor, set-associative BTB,
 * and a return-address stack. Matches the "aggressive branch speculation"
 * of the paper's simulated MIPS R10000-like machine.
 *
 * DISE interaction (paper Section 2.2): DISE-internal branches and
 * non-trigger application branches inside replacement sequences are never
 * predicted and must not update the BTB; the pipeline model enforces this
 * by simply not consulting the predictor for them.
 */

#ifndef DISE_BRANCH_PREDICTOR_HPP
#define DISE_BRANCH_PREDICTOR_HPP

#include <cstdint>
#include <vector>

#include "src/common/bits.hpp"
#include "src/common/stats.hpp"
#include "src/isa/inst.hpp"

namespace dise {

/** Predictor configuration. */
struct PredictorParams
{
    uint32_t gshareEntries = 4096; ///< 2-bit counters
    uint32_t historyBits = 8;
    uint32_t btbEntries = 2048;
    uint32_t btbAssoc = 4;
    uint32_t rasEntries = 16;
};

/** Combined direction + target predictor. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const PredictorParams &params = {});

    /** A complete front-end prediction for one control instruction. */
    struct Prediction
    {
        bool taken = false;
        Addr target = 0;
        bool targetKnown = false; ///< BTB/RAS supplied a target
    };

    /**
     * Predict a control instruction at @p pc.
     * @param cls Its opcode class (drives direction/target policy).
     * @param fallThrough pc + 4.
     */
    Prediction predict(Addr pc, OpClass cls, Addr fallThrough);

    /**
     * Train on the resolved outcome.
     * @param pc Branch PC.
     * @param cls Opcode class.
     * @param taken Actual direction.
     * @param target Actual target.
     */
    void update(Addr pc, OpClass cls, bool taken, Addr target);

    /**
     * @name Caller-accounted hot variants.
     * predict()/update() are implemented as a "predictions"/"updates"
     * counter bump plus these, so direction, BTB, RAS, and history
     * behaviour is identical by construction. Hot consumers (the
     * trace-feed timing path and sampled-mode warming) call these and
     * bump cached StatGroup::cell() pointers themselves, keeping the
     * per-branch path free of map lookups. Defined inline below so
     * they inline into the timing model's per-record loop.
     */
    /// @{
    Prediction predictHot(Addr pc, OpClass cls, Addr fallThrough);
    void updateHot(Addr pc, OpClass cls, bool taken, Addr target);
    /// @}

    /** Push a return address (on calls). */
    void pushReturn(Addr returnAddr);

    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

  private:
    struct BtbEntry
    {
        bool valid = false;
        uint64_t tag = 0;
        Addr target = 0;
        uint64_t lastUse = 0;
    };

    unsigned gshareIndex(Addr pc) const;
    BtbEntry *btbLookup(Addr pc);
    void btbInsert(Addr pc, Addr target);

    PredictorParams params_;
    /** BTB set index mask and tag shift (the set count is a power of
     *  two): keeps integer division off the per-branch path. */
    uint64_t btbSetMask_ = 0;
    uint32_t btbSetShift_ = 0;
    std::vector<uint8_t> counters_;
    uint64_t history_ = 0;
    std::vector<BtbEntry> btb_;
    std::vector<Addr> ras_;
    size_t rasTop_ = 0;
    uint64_t useCounter_ = 0;
    StatGroup stats_;
};

inline unsigned
BranchPredictor::gshareIndex(Addr pc) const
{
    const uint64_t hist = history_ & ((uint64_t(1) << params_.historyBits) - 1);
    return static_cast<unsigned>(((pc >> 2) ^ hist) &
                                 (params_.gshareEntries - 1));
}

inline BranchPredictor::BtbEntry *
BranchPredictor::btbLookup(Addr pc)
{
    const uint64_t set = (pc >> 2) & btbSetMask_;
    const uint64_t tag = (pc >> 2) >> btbSetShift_;
    BtbEntry *way = &btb_[set * params_.btbAssoc];
    for (uint32_t w = 0; w < params_.btbAssoc; ++w)
        if (way[w].valid && way[w].tag == tag)
            return &way[w];
    return nullptr;
}

inline void
BranchPredictor::btbInsert(Addr pc, Addr target)
{
    const uint64_t set = (pc >> 2) & btbSetMask_;
    const uint64_t tag = (pc >> 2) >> btbSetShift_;
    BtbEntry *way = &btb_[set * params_.btbAssoc];
    BtbEntry *victim = &way[0];
    for (uint32_t w = 0; w < params_.btbAssoc; ++w) {
        if (way[w].valid && way[w].tag == tag) {
            victim = &way[w];
            break;
        }
        if (!way[w].valid || way[w].lastUse < victim->lastUse)
            victim = &way[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->target = target;
    victim->lastUse = ++useCounter_;
}

DISE_ALWAYS_INLINE BranchPredictor::Prediction
BranchPredictor::predictHot(Addr pc, OpClass cls, Addr fallThrough)
{
    Prediction pred;
    pred.target = fallThrough;

    switch (cls) {
      case OpClass::CondBranch: {
        const unsigned idx = gshareIndex(pc);
        pred.taken = counters_[idx] >= 2;
        if (pred.taken) {
            if (BtbEntry *entry = btbLookup(pc)) {
                entry->lastUse = ++useCounter_;
                pred.target = entry->target;
                pred.targetKnown = true;
            } else {
                // Taken prediction without a target is useless; fetch
                // falls through and the branch resolves as a mispredict.
                pred.taken = false;
            }
        } else {
            pred.targetKnown = true;
        }
        break;
      }
      case OpClass::UncondBranch:
      case OpClass::Call:
        pred.taken = true;
        if (BtbEntry *entry = btbLookup(pc)) {
            entry->lastUse = ++useCounter_;
            pred.target = entry->target;
            pred.targetKnown = true;
        }
        break;
      case OpClass::Return:
        pred.taken = true;
        if (rasTop_ > 0) {
            --rasTop_;
            pred.target = ras_[rasTop_ % params_.rasEntries];
            pred.targetKnown = true;
        } else if (BtbEntry *entry = btbLookup(pc)) {
            pred.target = entry->target;
            pred.targetKnown = true;
        }
        break;
      case OpClass::Jump:
      case OpClass::CallIndirect:
        pred.taken = true;
        if (BtbEntry *entry = btbLookup(pc)) {
            entry->lastUse = ++useCounter_;
            pred.target = entry->target;
            pred.targetKnown = true;
        }
        break;
      default:
        break;
    }
    return pred;
}

DISE_ALWAYS_INLINE void
BranchPredictor::updateHot(Addr pc, OpClass cls, bool taken, Addr target)
{
    if (cls == OpClass::CondBranch) {
        const unsigned idx = gshareIndex(pc);
        uint8_t &counter = counters_[idx];
        if (taken && counter < 3)
            ++counter;
        else if (!taken && counter > 0)
            --counter;
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }
    if (taken && cls != OpClass::Return)
        btbInsert(pc, target);
}

} // namespace dise

#endif // DISE_BRANCH_PREDICTOR_HPP
