/**
 * @file
 * Generic timer model.
 *
 * ARM provides a virtual timer a VM can program without trapping;
 * when it fires it raises a *physical* interrupt that is taken to EL2
 * and must be translated into a virtual interrupt by the hypervisor
 * (paper, Section II). This class models the per-CPU timer hardware:
 * programming a deadline schedules a future PPI through the IrqChip.
 */

#ifndef VIRTSIM_HW_VTIMER_HH
#define VIRTSIM_HW_VTIMER_HH

#include <cstdint>
#include <vector>

#include "hw/gic.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace virtsim {

/** Per-CPU programmable timer bank. */
class TimerBank
{
  public:
    TimerBank(EventQueue &eq, IrqChip &chip, int n_cpus,
              IrqId irq = ppiVtimerIrq);

    /**
     * Arm the timer of cpu to fire at absolute time deadline.
     * Reprogramming replaces any previously armed deadline.
     */
    void program(PcpuId cpu, Cycles deadline);

    /** Disarm the timer of cpu. */
    void cancel(PcpuId cpu);

    /** @return true if the timer of cpu is armed. */
    bool armed(PcpuId cpu) const;

    /** Armed deadline; only meaningful when armed(). */
    Cycles deadline(PcpuId cpu) const;

  private:
    struct Slot
    {
        bool isArmed = false;
        Cycles when = 0;
        /** Generation counter: fires from stale program() calls are
         *  ignored, implementing cancel/reprogram without removing
         *  events from the queue. */
        std::uint64_t gen = 0;
    };

    EventQueue &eq;
    IrqChip &chip;
    IrqId irq;
    std::vector<Slot> slots;
};

} // namespace virtsim

#endif // VIRTSIM_HW_VTIMER_HH
