/**
 * @file
 * The seven microbenchmarks of the paper's Table I, measured exactly
 * as described in Section IV: each quantifies one low-level
 * interaction between the hypervisor and the hardware virtualization
 * support, with VCPUs pinned and virtual interrupts steered away from
 * the measured VCPU. Results are reported in cycles so the 2.4 GHz
 * ARM and 2.1 GHz x86 testbeds are comparable (Table II).
 *
 * The suite drives the *same* hypervisor entry points the application
 * benchmarks use — the numbers are emergent, not tabulated.
 */

#ifndef VIRTSIM_CORE_MICROBENCH_HH
#define VIRTSIM_CORE_MICROBENCH_HH

#include <string>
#include <vector>

#include "core/testbed.hh"
#include "sim/attrib.hh"
#include "sim/probe.hh"
#include "sim/stats.hh"

namespace virtsim {

/** The Table I operations, in row order. */
enum class MicroOp
{
    Hypercall,
    InterruptControllerTrap,
    VirtualIpi,
    VirtualIrqCompletion,
    VmSwitch,
    IoLatencyOut,
    IoLatencyIn,
};

inline constexpr std::array<MicroOp, 7> allMicroOps = {
    MicroOp::Hypercall,
    MicroOp::InterruptControllerTrap,
    MicroOp::VirtualIpi,
    MicroOp::VirtualIrqCompletion,
    MicroOp::VmSwitch,
    MicroOp::IoLatencyOut,
    MicroOp::IoLatencyIn,
};

std::string to_string(MicroOp op);

/** Description of one microbenchmark (the Table I text). */
std::string describe(MicroOp op);

/** Result of one microbenchmark on one configuration. */
struct MicroResult
{
    MicroOp op;
    HistogramStat cycles; ///< per-iteration cost in cycles (exact mean)
};

/** One configuration's full Table I column. */
struct MicroSweepColumn
{
    SutKind kind = SutKind::KvmArm;
    std::vector<MicroResult> results;
    /** Metrics captured after the column ran (trap counts, world
     *  switches, vIRQ injections per VM). */
    MetricsSnapshot metrics;
    /** Causal blame across the whole column: every span cycle the
     *  suite's operations emitted, attributed per primitive. Name
     *  keyed, so columns diff against each other directly. */
    BlameReport blame;
};

/**
 * Run the full microbenchmark suite on each configuration, one
 * independent testbed per column, farmed out across host threads
 * (sim/sweep.hh; VIRTSIM_JOBS controls the width). Columns come back
 * in input order and are byte-identical to a serial run.
 *
 * Attribution (the per-column BlameReport) is pay-for-what-you-ask:
 * with attribution=false the columns' blame reports stay empty and
 * the probe stamping inside each cell remains on its dead-probe fast
 * path. Cycle results and metrics snapshots are identical either way
 * — observability never alters simulated timing.
 */
std::vector<MicroSweepColumn>
runMicrobenchSweep(const std::vector<SutKind> &kinds,
                   int iterations = 50, bool attribution = false);

/**
 * Runs the microbenchmark suite against one virtualized testbed.
 */
class MicrobenchSuite
{
  public:
    /** @pre tb is a virtualized configuration. */
    explicit MicrobenchSuite(Testbed &tb);

    /** Run one operation for the given number of iterations. */
    MicroResult run(MicroOp op, int iterations = 50);

    /** Run the full Table I suite. */
    std::vector<MicroResult> runAll(int iterations = 50);

  private:
    /** Make sure the second VM needed by VM Switch exists. */
    Vm &secondVm();

    /** Pre-iteration state setup per operation. */
    void setUp(MicroOp op);

    /** Issue one iteration; done(t_end). */
    void issue(MicroOp op, Cycles t, Done done);

    Testbed &tb;
    Vm *vm1 = nullptr;
    bool vm1Loaded = false;
};

} // namespace virtsim

#endif // VIRTSIM_CORE_MICROBENCH_HH
