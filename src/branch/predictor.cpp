#include "src/branch/predictor.hpp"

#include "src/common/bits.hpp"
#include "src/common/logging.hpp"

namespace dise {

BranchPredictor::BranchPredictor(const PredictorParams &params)
    : params_(params), stats_("bpred")
{
    DISE_ASSERT(isPow2(params_.gshareEntries) && isPow2(params_.rasEntries),
                "gshare and ras sizes must be pow2");
    const uint32_t sets = params_.btbEntries / params_.btbAssoc;
    DISE_ASSERT(isPow2(sets), "btb sets must be pow2");
    btbSetMask_ = sets - 1;
    btbSetShift_ = log2i(sets);
    counters_.assign(params_.gshareEntries, 1); // weakly not-taken
    btb_.assign(params_.btbEntries, BtbEntry());
    ras_.assign(params_.rasEntries, 0);
}

void
BranchPredictor::pushReturn(Addr returnAddr)
{
    ras_[rasTop_ & (params_.rasEntries - 1)] = returnAddr;
    ++rasTop_;
}

const StatGroup &
BranchPredictor::stats() const
{
    if (predictions_)
        stats_.set("predictions", predictions_);
    if (updates_)
        stats_.set("updates", updates_);
    return stats_;
}

} // namespace dise
