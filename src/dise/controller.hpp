/**
 * @file
 * The DISE controller and the OS-kernel virtualization layer above it
 * (paper Section 2.3).
 *
 * The controller mediates all PT/RT manipulation: it translates
 * productions from their external representation into the internal PT/RT
 * formats, virtualizes the table sizes (misses fault entries in,
 * procedurally, at a fixed cycle cost), and is the single point through
 * which production sets are activated.
 *
 * The DiseOsKernel models the second layer of access control: it
 * virtualizes the resident production set across processes. Productions
 * submitted through the kernel API ("inspected and approved", typically
 * transparent system utilities) apply to every process; productions a
 * process installs directly from its own data space apply only to that
 * process and are deactivated when it is switched out. The kernel also
 * preserves per-process DISE state (dedicated registers) across context
 * switches.
 */

#ifndef DISE_DISE_CONTROLLER_HPP
#define DISE_DISE_CONTROLLER_HPP

#include <array>
#include <map>
#include <memory>
#include <string>

#include "src/dise/engine.hpp"

namespace dise {

/** The dedicated DISE register file ($dr0..$dr7). */
struct DiseRegFile
{
    std::array<uint64_t, kNumDiseRegs> regs{};

    uint64_t &operator[](unsigned i) { return regs.at(i); }
    uint64_t operator[](unsigned i) const { return regs.at(i); }
};

/** Hardware controller: the only interface for programming the PT/RT. */
class DiseController
{
  public:
    explicit DiseController(const DiseConfig &config = {});

    DiseEngine &engine() { return engine_; }
    const DiseEngine &engine() const { return engine_; }

    /**
     * Translate and activate a production set. The previous set is
     * deactivated and the PT/RT start cold (entries fault in on use).
     * A set the engine refuses (see DiseEngine::setProductions) throws
     * and leaves the previous set active.
     */
    void install(std::shared_ptr<const ProductionSet> set);

    /** Deactivate all productions. */
    void deactivate();

    /**
     * Replace the engine wholesale with a previously captured copy
     * (see DiseEngine::sharedProductions for why plain copies are
     * complete snapshots). PT/RT residency, LRU stamps, the expansion
     * cache, statistics and the table generation all revert to the
     * captured values; the controller's active-set handle follows the
     * restored engine.
     */
    void
    restoreEngine(const DiseEngine &snapshot)
    {
        engine_ = snapshot;
        active_ = engine_.sharedProductions();
    }

    /** The active set (may be null). */
    std::shared_ptr<const ProductionSet> active() const { return active_; }

  private:
    DiseEngine engine_;
    std::shared_ptr<const ProductionSet> active_;
};

/** OS-kernel production and register virtualization. */
class DiseOsKernel
{
  public:
    using Pid = uint32_t;

    explicit DiseOsKernel(DiseController &controller);

    /**
     * Install a kernel-approved (system utility) ACF; it applies to all
     * processes and survives context switches.
     */
    void installKernelAcf(const std::string &name, ProductionSet set);

    /** Remove a kernel ACF by name. */
    void removeKernelAcf(const std::string &name);

    /**
     * A process submits productions residing in its own data space; they
     * are active only while that process runs.
     */
    void submitUserAcf(Pid pid, ProductionSet set);

    /**
     * Context switch: snapshot the outgoing process's dedicated
     * registers, restore the incoming one's, and rebuild the active
     * production set (kernel ACFs + the incoming process's user ACFs).
     *
     * @param pid The incoming process.
     * @param hwRegs The hardware dedicated register file to swap.
     */
    void switchTo(Pid pid, DiseRegFile &hwRegs);

    Pid currentPid() const { return current_; }

  private:
    void rebuildActive();

    DiseController &controller_;
    std::map<std::string, ProductionSet> kernelAcfs_;
    std::map<Pid, ProductionSet> userAcfs_;
    std::map<Pid, DiseRegFile> savedRegs_;
    Pid current_ = 0;
};

} // namespace dise

#endif // DISE_DISE_CONTROLLER_HPP
