#include "src/branch/predictor.hpp"

#include "src/common/bits.hpp"
#include "src/common/logging.hpp"

namespace dise {

BranchPredictor::BranchPredictor(const PredictorParams &params)
    : params_(params), stats_("bpred")
{
    DISE_ASSERT(isPow2(params_.gshareEntries), "gshare size must be pow2");
    const uint32_t sets = params_.btbEntries / params_.btbAssoc;
    DISE_ASSERT(isPow2(sets), "btb sets must be pow2");
    btbSetMask_ = sets - 1;
    btbSetShift_ = log2i(sets);
    counters_.assign(params_.gshareEntries, 1); // weakly not-taken
    btb_.assign(params_.btbEntries, BtbEntry());
    ras_.assign(params_.rasEntries, 0);
}

BranchPredictor::Prediction
BranchPredictor::predict(Addr pc, OpClass cls, Addr fallThrough)
{
    stats_.add("predictions");
    return predictHot(pc, cls, fallThrough);
}

void
BranchPredictor::update(Addr pc, OpClass cls, bool taken, Addr target)
{
    stats_.add("updates");
    updateHot(pc, cls, taken, target);
}

void
BranchPredictor::pushReturn(Addr returnAddr)
{
    ras_[rasTop_ % params_.rasEntries] = returnAddr;
    ++rasTop_;
}

} // namespace dise
