#include "src/dise/controller.hpp"

namespace dise {

DiseController::DiseController(const DiseConfig &config) : engine_(config)
{
}

void
DiseController::install(std::shared_ptr<const ProductionSet> set)
{
    // The engine may refuse the set; only an accepted one becomes active.
    engine_.setProductions(set);
    active_ = std::move(set);
}

void
DiseController::deactivate()
{
    active_.reset();
    engine_.setProductions(nullptr);
}

DiseOsKernel::DiseOsKernel(DiseController &controller)
    : controller_(controller)
{
}

void
DiseOsKernel::installKernelAcf(const std::string &name, ProductionSet set)
{
    kernelAcfs_[name] = std::move(set);
    rebuildActive();
}

void
DiseOsKernel::removeKernelAcf(const std::string &name)
{
    kernelAcfs_.erase(name);
    rebuildActive();
}

void
DiseOsKernel::submitUserAcf(Pid pid, ProductionSet set)
{
    userAcfs_[pid] = std::move(set);
    if (pid == current_)
        rebuildActive();
}

void
DiseOsKernel::switchTo(Pid pid, DiseRegFile &hwRegs)
{
    if (pid == current_)
        return;
    savedRegs_[current_] = hwRegs;
    const auto it = savedRegs_.find(pid);
    hwRegs = (it != savedRegs_.end()) ? it->second : DiseRegFile{};
    current_ = pid;
    rebuildActive();
}

void
DiseOsKernel::rebuildActive()
{
    auto combined = std::make_shared<ProductionSet>();
    for (const auto &kv : kernelAcfs_)
        combined->merge(kv.second);
    const auto it = userAcfs_.find(current_);
    if (it != userAcfs_.end())
        combined->merge(it->second);
    controller_.install(std::move(combined));
}

} // namespace dise
