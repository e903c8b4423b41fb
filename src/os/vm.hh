/**
 * @file
 * The OS virtual-memory cost model. The paper charges fixed costs for
 * the OS interventions (Table 2): soft traps for page faults and
 * relocation interrupts, TLB shootdowns, and a per-block cost for
 * flushing or moving blocks during page allocation, replacement and
 * relocation. No kernel code is simulated; this class centralizes the
 * cost arithmetic and the OS-event statistics.
 */

#ifndef RNUMA_OS_VM_HH
#define RNUMA_OS_VM_HH

#include "common/params.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace rnuma
{

/** Per-node OS page-management cost model. */
class VmManager
{
  public:
    VmManager(const Params &params, NodeId node, RunStats &stats);

    /**
     * Charge a simple mapping fault (first touch of a remote page
     * that maps CC-NUMA, or of a local page): one soft trap.
     * @return the tick at which the faulting CPU resumes.
     */
    Tick chargeMapFault(Tick now);

    /**
     * Charge a page operation: an S-COMA page allocation, a
     * replacement, or an R-NUMA relocation, which Section 4 says
     * "uses similar mechanisms as page allocation/replacement and
     * incurs the same overheads". Soft trap + TLB shootdown + setup
     * + a per-block cost for the @p blocks flushed from a victim or
     * moved into the new frame (Table 2: 3000-11500 cycles).
     */
    Tick chargePageOp(Tick now, std::size_t blocks);

    NodeId nodeId() const { return node; }

  private:
    const Params &p;
    NodeId node;
    RunStats &stats;
};

} // namespace rnuma

#endif // RNUMA_OS_VM_HH
