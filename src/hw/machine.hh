/**
 * @file
 * A complete simulated server machine: CPUs, interrupt controller,
 * timers, MMU/TLBs, memory and NIC, bound to one event queue.
 *
 * Factory configurations reproduce the paper's testbeds (Section III):
 * HP Moonshot m400 (8-core ARMv8 X-Gene, 64 GB, 10 GbE) and Dell
 * PowerEdge r320 (8-core Xeon E5-2450 with hyperthreading off, 16 GB,
 * 10 GbE).
 */

#ifndef VIRTSIM_HW_MACHINE_HH
#define VIRTSIM_HW_MACHINE_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/cost_model.hh"
#include "hw/cpu.hh"
#include "hw/gic.hh"
#include "hw/memory.hh"
#include "hw/mmu.hh"
#include "hw/nic.hh"
#include "hw/vtimer.hh"
#include "sim/event_queue.hh"
#include "sim/probe.hh"
#include "sim/shard.hh"

namespace virtsim {

/** Static description of a machine. */
struct MachineConfig
{
    std::string name = "machine";
    CostModel costs = CostModel::armAtlas();
    int nCpus = 8;
    /** RAM in GiB (configuration bookkeeping; Section III uses it to
     *  carve VM / Dom0 / hypervisor shares). */
    int ramGib = 64;
    Nic::Params nicParams{};

    /** The paper's ARM testbed node. */
    static MachineConfig hpMoonshotM400();

    /** The paper's x86 testbed node. */
    static MachineConfig dellR320();
};

/**
 * How a machine's components map onto the shards of a sharded kernel
 * (sim/shard.hh). The standard assignment gives PhysicalCpu i shard
 * 1+i and the device side (NIC, timers, wire, client) shard 0; this
 * plan then says which *lane* each of those shards runs on. The
 * default plan (everything on one lane) reproduces the serial kernel
 * exactly. Any two components coupled through zero-latency shared
 * state — a hypervisor's run queues, vhost worker and vring, client
 * and server of a MAERTS stream — must share a lane; only the
 * channel-mediated interactions (IPIs, the wire) may cross lanes.
 */
struct MachineShardPlan
{
    /** Lane of PhysicalCpu i; empty = every CPU on deviceLane. */
    std::vector<int> cpuLane;
    /** Lane of shard 0 (devices, wire, client). */
    int deviceLane = 0;
    /**
     * Declare the per-CPU from-any IPI channels. The channels are
     * what lets IPIs cross lanes, but their lookahead (ipiFlight,
     * ~360 cycles) is the tightest latency in the machine, so the
     * conservative horizon of every lane shrinks to IPI quanta even
     * in worlds that never send one. A world that routes all of its
     * cross-CPU interaction through its own channels and sends no
     * cross-lane IPIs may opt out; the delivery-queue lane assert
     * still catches an IPI that then tries to cross lanes.
     */
    bool ipiChannels = true;

    int
    laneFor(PcpuId cpu) const
    {
        return cpuLane.empty()
                   ? deviceLane
                   : cpuLane[static_cast<std::size_t>(cpu)];
    }

    /**
     * Load-balanced planning: pack nCpus per-CPU shards onto at most
     * maxLanes lanes by longest-processing-time greedy packing —
     * heaviest shard first onto the least-loaded lane, ties broken
     * toward the lowest lane (and, among equal weights, the lowest
     * CPU), so the plan is a pure function of its inputs.
     *
     * weights[i] estimates CPU i's event traffic: per-shard event
     * counts from a profiling warmup (ShardedEventKernel::stats()
     * lane events after a short representative run), or static
     * weights like per-VM connection counts. Empty = uniform.
     * deviceWeight preloads lane 0 with the device/wire/client
     * side's share so CPUs prefer other lanes while any remain.
     *
     * The kernel's determinism bar (modelled results byte-identical
     * at every VIRTSIM_SHARDS) already guarantees the plan cannot
     * change results — only wall-clock balance. This is what lets
     * VIRTSIM_SHARDS stay far below the CPU count on huge fleets:
     * 256 VMs on a 16-lane kernel get ~16 CPUs per lane instead of
     * demanding 257 lanes.
     */
    static MachineShardPlan
    balanced(int nCpus, int maxLanes,
             const std::vector<std::uint64_t> &weights = {},
             std::uint64_t deviceWeight = 0);
};

/**
 * A running machine instance.
 */
class Machine
{
  public:
    Machine(EventQueue &eq, MachineConfig config);

    /**
     * Shard-aware construction: CPUs schedule on the lanes the plan
     * assigns, the interrupt chip's IPIs travel through declared
     * from-any channels (lookahead = ipiFlight), and the machine's
     * shards are registered with the kernel. With a default plan and
     * a single-lane kernel this is behaviorally identical to the
     * EventQueue constructor.
     */
    Machine(ShardedEventKernel &kern, const MachineShardPlan &plan,
            MachineConfig config);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return cfg; }
    Arch arch() const { return cfg.costs.arch; }
    const CostModel &costs() const { return cfg.costs; }
    const Frequency &freq() const { return cfg.costs.freq; }

    EventQueue &queue() { return eq; }

    /** Queue PhysicalCpu `id` schedules on (its lane queue under a
     *  shard plan; the machine queue otherwise). */
    EventQueue &cpuQueue(PcpuId id) { return cpu(id).queue(); }

    /** Observability bundle (trace sink + metrics + profiler). */
    Probe &probe() { return _probe; }
    TraceSink &trace() { return _probe.trace; }
    MetricsRegistry &metrics() { return _probe.metrics; }

    /** Read-only list of the machine domain's counters by name, as
     *  stats().allCounters(). Kept only for the benchmark driver
     *  (perfbench), which reads it; the model counts and reads on
     *  metrics().machine(). A later benchmark change may drop it. */
    struct CounterList
    {
        const MetricsDomain &domain;
        std::map<std::string, Counter> allCounters() const;
    };
    CounterList stats() { return {_probe.metrics.machine()}; }

    int numCpus() const { return static_cast<int>(cpus.size()); }
    PhysicalCpu &cpu(PcpuId id);

    IrqChip &irqChip() { return *chip; }

    /** ARM-only accessor. @pre arch() == Arch::Arm */
    Gic &gic();

    /** x86-only accessor. @pre arch() == Arch::X86 */
    Apic &apic();

    TimerBank &timers() { return *_timers; }
    Mmu &mmu() { return _mmu; }
    MainMemory &memory() { return _memory; }
    Nic &nic() { return *_nic; }

  private:
    /**
     * Register this machine's hardware gauges with the timeline
     * sampler: per-CPU exception level / run mode and busy-cycle
     * rate, GIC list-register occupancy (ARM), event-queue depth,
     * NIC rx queue depth and drop rate, and the stage-2 fault rate.
     * Called from the constructor.
     */
    void registerTimelineGauges();

    MachineConfig cfg;
    EventQueue &eq;
    /** Owning kernel under shard-aware construction; null for the
     *  plain EventQueue constructor. Lets world-wide gauges sum over
     *  lanes instead of reporting one lane's share. */
    ShardedEventKernel *_kern = nullptr;
    Probe _probe;
    std::vector<std::unique_ptr<PhysicalCpu>> cpus;
    std::unique_ptr<IrqChip> chip;
    std::unique_ptr<TimerBank> _timers;
    Mmu _mmu;
    MainMemory _memory;
    std::unique_ptr<Nic> _nic;
};

} // namespace virtsim

#endif // VIRTSIM_HW_MACHINE_HH
