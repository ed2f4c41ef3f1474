#include "hw/machine.hh"

#include <algorithm>
#include <numeric>

#include "sim/log.hh"

namespace virtsim {

MachineShardPlan
MachineShardPlan::balanced(int nCpus, int maxLanes,
                           const std::vector<std::uint64_t> &weights,
                           std::uint64_t deviceWeight)
{
    VIRTSIM_ASSERT(nCpus > 0, "balanced plan needs at least one cpu");
    VIRTSIM_ASSERT(maxLanes > 0,
                   "balanced plan needs at least one lane");
    VIRTSIM_ASSERT(weights.empty() ||
                       weights.size() ==
                           static_cast<std::size_t>(nCpus),
                   "balanced plan: ", weights.size(),
                   " weights for ", nCpus, " cpus");
    MachineShardPlan plan;
    plan.deviceLane = 0;
    plan.cpuLane.assign(static_cast<std::size_t>(nCpus), 0);
    if (maxLanes == 1)
        return plan; // everything on lane 0; nothing to balance

    // Heaviest first (LPT): sort CPU indices by descending weight,
    // ascending CPU on ties, so the packing is deterministic.
    std::vector<int> order(static_cast<std::size_t>(nCpus));
    std::iota(order.begin(), order.end(), 0);
    const auto weightOf = [&weights](int cpu) {
        if (weights.empty())
            return std::uint64_t{1};
        // An idle shard still costs a queue slot; floor at 1 so the
        // packing spreads zero-weight CPUs instead of piling them
        // all onto one lane.
        return std::max<std::uint64_t>(
            1, weights[static_cast<std::size_t>(cpu)]);
    };
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        const std::uint64_t wa = weightOf(a), wb = weightOf(b);
        return wa != wb ? wa > wb : a < b;
    });

    std::vector<std::uint64_t> load(
        static_cast<std::size_t>(maxLanes), 0);
    load[0] = deviceWeight;
    for (int cpu : order) {
        int best = 0;
        for (int l = 1; l < maxLanes; ++l) {
            if (load[static_cast<std::size_t>(l)] <
                load[static_cast<std::size_t>(best)])
                best = l;
        }
        plan.cpuLane[static_cast<std::size_t>(cpu)] = best;
        load[static_cast<std::size_t>(best)] += weightOf(cpu);
    }
    return plan;
}

MachineConfig
MachineConfig::hpMoonshotM400()
{
    MachineConfig c;
    c.name = "hp-moonshot-m400";
    c.costs = CostModel::armAtlas();
    c.nCpus = 8;
    c.ramGib = 64;
    // Adaptive interrupt moderation: immediate at request-response
    // rates, coalescing under streaming load (~30 us window).
    c.nicParams.coalesceWindow = 72000;
    return c;
}

MachineConfig
MachineConfig::dellR320()
{
    MachineConfig c;
    c.name = "dell-r320";
    c.costs = CostModel::x86Xeon();
    c.nCpus = 8; // hyperthreading disabled: 8 physical cores
    c.ramGib = 16;
    c.nicParams.coalesceWindow = 63000; // ~30 us at 2.1 GHz
    return c;
}

Machine::Machine(EventQueue &eq, MachineConfig config)
    : cfg(std::move(config)), eq(eq),
      _mmu(cfg.costs, _probe.metrics.machine(), cfg.nCpus, &_probe),
      _memory(cfg.costs, _probe.metrics.machine())
{
    VIRTSIM_ASSERT(cfg.nCpus > 0, "machine needs at least one cpu");
    for (int i = 0; i < cfg.nCpus; ++i)
        cpus.push_back(std::make_unique<PhysicalCpu>(i, eq, cfg.costs));

    if (cfg.costs.arch == Arch::Arm) {
        chip = std::make_unique<Gic>(eq, cfg.costs,
                                     _probe.metrics.machine(),
                                     cfg.nCpus, &_probe);
    } else {
        chip = std::make_unique<Apic>(eq, cfg.costs,
                                      _probe.metrics.machine(),
                                      cfg.nCpus, &_probe);
    }

    _timers = std::make_unique<TimerBank>(eq, *chip, cfg.nCpus);
    _nic = std::make_unique<Nic>(eq, *chip, _probe.metrics.machine(),
                                 cfg.costs.freq, cfg.nicParams);

    registerTimelineGauges();
}

Machine::Machine(ShardedEventKernel &kern,
                 const MachineShardPlan &plan, MachineConfig config)
    : cfg(std::move(config)), eq(kern.lane(plan.deviceLane)),
      _kern(&kern),
      _mmu(cfg.costs, _probe.metrics.machine(), cfg.nCpus, &_probe),
      _memory(cfg.costs, _probe.metrics.machine())
{
    VIRTSIM_ASSERT(cfg.nCpus > 0, "machine needs at least one cpu");
    VIRTSIM_ASSERT(plan.cpuLane.empty() ||
                       static_cast<int>(plan.cpuLane.size()) ==
                           cfg.nCpus,
                   "shard plan covers ", plan.cpuLane.size(),
                   " cpus, machine has ", cfg.nCpus);

    kern.assignShard(deviceShard, plan.deviceLane);
    std::vector<EventQueue *> cpuQs;
    std::vector<int> cpuLanes;
    for (int i = 0; i < cfg.nCpus; ++i) {
        const int lane = plan.laneFor(i);
        kern.assignShard(cpuShard(i), lane);
        cpuQs.push_back(&kern.lane(lane));
        cpuLanes.push_back(lane);
        cpus.push_back(std::make_unique<PhysicalCpu>(
            i, kern.lane(lane), cfg.costs));
    }

    if (cfg.costs.arch == Arch::Arm) {
        chip = std::make_unique<Gic>(eq, cfg.costs,
                                     _probe.metrics.machine(),
                                     cfg.nCpus, &_probe);
    } else {
        chip = std::make_unique<Apic>(eq, cfg.costs,
                                      _probe.metrics.machine(),
                                      cfg.nCpus, &_probe);
    }

    // Every IPI, regardless of sender, flows through the target CPU's
    // declared channel; the flight time is the conservative lookahead
    // that lets IPIs cross lanes. Worlds that never send cross-lane
    // IPIs opt out via the plan so the tight ipiFlight lookahead does
    // not throttle every lane's horizon.
    std::vector<ShardChannel *> ipi;
    if (plan.ipiChannels) {
        for (int i = 0; i < cfg.nCpus; ++i) {
            ipi.push_back(&kern.channel("ipi.cpu" + std::to_string(i),
                                        anyShard, cpuShard(i),
                                        cfg.costs.ipiFlight));
        }
    }
    chip->bindShards(std::move(cpuQs), std::move(cpuLanes),
                     std::move(ipi));

    _timers = std::make_unique<TimerBank>(eq, *chip, cfg.nCpus);
    _nic = std::make_unique<Nic>(eq, *chip, _probe.metrics.machine(),
                                 cfg.costs.freq, cfg.nicParams);

    registerTimelineGauges();
}

void
Machine::registerTimelineGauges()
{
    TimelineSampler &tl = _probe.timeline;
    const bool arm = cfg.costs.arch == Arch::Arm;
    for (int i = 0; i < cfg.nCpus; ++i) {
        PhysicalCpu *c = cpus[static_cast<std::size_t>(i)].get();
        const std::string prefix = "cpu" + std::to_string(i);
        const auto track = static_cast<std::uint16_t>(i);
        // Exception level (ARM: EL0/EL1/EL2) or root/non-root mode
        // (x86) as the CpuMode ordinal — the paper's Table I state.
        tl.addGauge(prefix + (arm ? ".el" : ".mode"),
                    [c] {
                        return static_cast<std::int64_t>(c->mode());
                    },
                    track);
        tl.addRateGauge(prefix + ".busy.rate",
                        [c] {
                            return static_cast<std::int64_t>(
                                c->busyCycles());
                        },
                        track);
        if (arm) {
            Gic *g = static_cast<Gic *>(chip.get());
            tl.addGauge(prefix + ".gic.lr_used",
                        [g, i] {
                            std::int64_t used = 0;
                            for (const ListReg &lr : g->listRegs(i)) {
                                if (!lr.empty())
                                    ++used;
                            }
                            return used;
                        },
                        track);
        }
    }
    // Pending events across the whole world, not just the home lane:
    // under a shard plan the count must not depend on how the events
    // happen to be partitioned. Safe to read from a sampling tick —
    // classic worlds keep every component (and so every event) on the
    // home lane, and the fleet samples at barriers, lanes quiesced.
    tl.addGauge("event_queue.depth", [this] {
        if (!_kern)
            return static_cast<std::int64_t>(eq.pending());
        std::int64_t total = 0;
        for (int i = 0; i < _kern->laneCount(); ++i)
            total += static_cast<std::int64_t>(
                _kern->lane(i).pending());
        return total;
    });
    tl.addGauge("nic.rx_queue", [this] {
        return static_cast<std::int64_t>(_nic->rxQueueDepth());
    });
    // value(), not counter(): a registering read would add a
    // zero-valued row to every snapshot.
    const MetricsDomain *dom = &_probe.metrics.machine();
    const TapId rxDropped = internTap("nic.rx_dropped");
    const TapId stage2Fault = internTap("mmu.stage2_fault");
    tl.addRateGauge("nic.rx_drop.rate", [dom, rxDropped] {
        return static_cast<std::int64_t>(dom->value(rxDropped));
    });
    tl.addRateGauge("mmu.stage2_fault.rate", [dom, stage2Fault] {
        return static_cast<std::int64_t>(dom->value(stage2Fault));
    });
}

std::map<std::string, Counter>
Machine::CounterList::allCounters() const
{
    std::map<std::string, Counter> out;
    domain.forEachCounter([&out](TapId tap, std::uint64_t v) {
        out[tapName(tap)].inc(v);
    });
    return out;
}

PhysicalCpu &
Machine::cpu(PcpuId id)
{
    VIRTSIM_ASSERT(id >= 0 && id < numCpus(), "bad pcpu id ", id);
    return *cpus[static_cast<std::size_t>(id)];
}

Gic &
Machine::gic()
{
    VIRTSIM_ASSERT(arch() == Arch::Arm, "gic() on non-ARM machine");
    return static_cast<Gic &>(*chip);
}

Apic &
Machine::apic()
{
    VIRTSIM_ASSERT(arch() == Arch::X86, "apic() on non-x86 machine");
    return static_cast<Apic &>(*chip);
}

} // namespace virtsim
