#include "core/testbed.hh"

#include <cctype>

#include "os/kernel.hh"
#include "sim/log.hh"

namespace virtsim {

namespace {

/** One-way wire latency between server and client, in microseconds.
 *  [calibrated] so native send-to-recv lands at 29.7 us (Table V)
 *  with the NIC DMA and client processing of the netperf model. */
constexpr double wireOneWayUs = 12.0;

/** Default p99 round-trip SLO for testbed workloads, in
 *  microseconds. Like the watchdog thresholds, it sits well above
 *  every paper-configuration round trip (tens of microseconds,
 *  Table V), so a breach flags a genuinely pathological run rather
 *  than normal virtualization overhead. VIRTSIM_SLO_P99_US
 *  overrides. */
constexpr double testbedDefaultSloP99Us = 500.0;

/** "KVM ARM" -> "kvm_arm": the export-path tag of a configuration. */
std::string
kindTag(SutKind kind)
{
    std::string tag = to_string(kind);
    for (char &c : tag)
        c = std::isalnum(static_cast<unsigned char>(c))
                ? static_cast<char>(
                      std::tolower(static_cast<unsigned char>(c)))
                : '_';
    return tag;
}

/** The default watchdog rule set over a testbed machine's gauges
 *  (stalled VCPU, sustained LR saturation, NIC queue bound, rx-drop
 *  burst). No-op if rules are already present. */
void
installWatchdogRules(TimelineSampler &tl, const Frequency &f)
{
    if (tl.ruleCount() > 0)
        return;
    // Thresholds sit well above anything the paper-config workloads
    // produce, so anomalies flag genuinely pathological states (a
    // wedged VCPU, a saturated LR file held across samples, drop
    // bursts) rather than normal bursts.
    for (std::size_t g = 0; g < tl.gaugeCount(); ++g) {
        const std::string &name = tl.gaugeName(g);
        if (name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".state") == 0) {
            // VcpuState::InHyp sustained: an exit being handled for
            // 200 us straight means the VCPU is wedged in the
            // hypervisor (every Table I operation is tens of us at
            // worst).
            tl.addRule("stalled." + name, name,
                       static_cast<std::int64_t>(VcpuState::InHyp),
                       f.cycles(200.0));
        } else if (name.size() > 12 &&
                   name.compare(name.size() - 12, 12,
                                ".gic.lr_used") == 0) {
            // All four list registers occupied across consecutive
            // samples: virtual interrupts are backing up faster than
            // the guest acknowledges them.
            tl.addRule("lr_saturation." + name, name,
                       static_cast<std::int64_t>(numListRegs),
                       f.cycles(100.0));
        }
    }
    if (tl.findGauge("nic.rx_queue") >= 0) {
        tl.addRule("rx_queue_depth", "nic.rx_queue", 1024,
                   f.cycles(100.0));
    }
    if (tl.findGauge("nic.rx_drop.rate") >= 0)
        tl.addRule("rx_drop_burst", "nic.rx_drop.rate", 8, 0);
}

} // namespace

std::string
to_string(SutKind k)
{
    switch (k) {
      case SutKind::Native:
        return "Native";
      case SutKind::NativeX86:
        return "Native x86";
      case SutKind::KvmArm:
        return "KVM ARM";
      case SutKind::XenArm:
        return "Xen ARM";
      case SutKind::KvmX86:
        return "KVM x86";
      case SutKind::XenX86:
        return "Xen x86";
      case SutKind::KvmArmVhe:
        return "KVM ARM (VHE)";
    }
    panic("bad SutKind");
}

bool
isVirtualized(SutKind k)
{
    return k != SutKind::Native && k != SutKind::NativeX86;
}

Arch
archOf(SutKind k)
{
    switch (k) {
      case SutKind::KvmX86:
      case SutKind::XenX86:
      case SutKind::NativeX86:
        return Arch::X86;
      default:
        return Arch::Arm;
    }
}

Testbed::Testbed(TestbedConfig config)
    : cfg(config), kern(shardLanes()), eq(kern.lane(0)),
      rng(config.seed),
      net(NetstackCosts::linux(
          (archOf(config.kind) == Arch::Arm ? CostModel::armAtlas()
                                            : CostModel::x86Xeon())
              .freq))
{
    MachineConfig mc = archOf(cfg.kind) == Arch::Arm
                           ? MachineConfig::hpMoonshotM400()
                           : MachineConfig::dellR320();
    // Default plan: every CPU on the device lane. A classic testbed
    // world is coupled end to end through zero-latency shared state
    // (hypervisor run queues, backend rings, workload frontiers), so
    // it must collapse onto one lane whatever VIRTSIM_SHARDS says;
    // the declared channels then degenerate to plain scheduleAt and
    // results stay byte-identical. core/fleet.hh builds the plan
    // that spreads CPUs across lanes.
    server = std::make_unique<Machine>(kern, MachineShardPlan{}, mc);
    wire_ = std::make_unique<Wire>(
        eq, server->metrics().machine(),
        server->freq().cycles(wireOneWayUs),
        &server->probe());
    // Both wire legs are declared channels (the NIC-to-client edge
    // of the shard model); with client and NIC on the device shard
    // they resolve same-lane here.
    wire_->bindChannels(
        &kern.channel("wire.to_server", deviceShard, deviceShard,
                      wire_->oneWayLatency()),
        &kern.channel("wire.to_client", deviceShard, deviceShard,
                      wire_->oneWayLatency()));

    wire_->setServerEndpoint([this](Cycles t, const Packet &pkt) {
        server->nic().receiveFromWire(t, pkt);
    });
    wire_->setClientEndpoint([this](Cycles t, const Packet &pkt) {
        if (onClientRx)
            onClientRx(t, pkt);
    });
    server->nic().onWireTx = [this](Cycles t, const Packet &pkt) {
        wire_->sendToClient(t, pkt);
    };

    if (isVirtualized(cfg.kind))
        buildVirtualized();
    else
        buildNative();

    // Observability opt-ins: every VIRTSIM_* sink knob, one export
    // file per configuration (the lowercased SUT kind tags the path).
    sinks = std::make_unique<Sinks>(*server, kern, to_string(cfg.kind),
                                    kindTag(cfg.kind));
    sinkPlan.defaultSloP99Us = testbedDefaultSloP99Us;
    sinkPlan.rules = [f = server->freq()](TimelineSampler &tl) {
        installWatchdogRules(tl, f);
    };
    // Classic worlds place every model component on lane 0 (default
    // MachineShardPlan), so all stamping lands in one sink segment
    // and the in-queue timeline tick chain keeps its exact semantics
    // at any VIRTSIM_SHARDS.
    sinks->arm(sinkPlan);
}

Testbed::~Testbed()
{
    sinks->exportAll(eq.now());
}

void
Testbed::beginRun()
{
    server->probe().reset();
    sinks->reset();
}

void
Testbed::buildNative()
{
    // Native Linux capped at 4 cores; all device interrupts on CPU 0
    // (the paper verified native performance is unchanged by
    // single-CPU interrupt affinity).
    server->irqChip().routeExternal(spiNicIrq, 0);
    server->irqChip().setPhysIrqHandler(
        [this](Cycles t, PcpuId cpu, IrqId irq) {
            if (irq == spiNicIrq) {
                PhysicalCpu &c = server->cpu(cpu);
                const Cycles t1 = c.charge(t, net.irqPath);
                const auto aggs = groDrain(server->nic(),
                                           net.groFrames);
                for (const auto &agg : aggs) {
                    if (onHostRx)
                        onHostRx(t1, agg);
                    if (onVmRx)
                        onVmRx(t1, agg);
                }
                return;
            }
            if (irq == sgiRescheduleIrq) {
                // Native IPI: receiver runs the scheduler IPI
                // handler; the registered completion fires.
                PhysicalCpu &c = server->cpu(cpu);
                const Cycles t1 =
                    c.charge(t, server->costs().irqEntryExit);
                auto &q =
                    nativeIpiDone[static_cast<std::size_t>(cpu)];
                if (!q.empty()) {
                    Done d = std::move(q.front());
                    q.pop_front();
                    eq.scheduleAt(t1, [t1, d] { d(t1); });
                }
                return;
            }
        });
}

void
Testbed::buildVirtualized()
{
    switch (cfg.kind) {
      case SutKind::KvmArm:
        hv = std::make_unique<KvmArm>(*server);
        break;
      case SutKind::KvmArmVhe:
        hv = std::make_unique<KvmArmVhe>(*server);
        break;
      case SutKind::XenArm:
        hv = std::make_unique<XenArm>(*server);
        break;
      case SutKind::KvmX86:
        hv = std::make_unique<KvmX86>(*server);
        break;
      case SutKind::XenX86:
        hv = std::make_unique<XenX86>(*server);
        break;
      case SutKind::Native:
      case SutKind::NativeX86:
        panic("buildVirtualized on native config");
    }
    hv->setVirqDistribution(cfg.virqDist);

    // The measured VM: 4 VCPUs / 12 GB, one VCPU per dedicated PCPU
    // (Section III).
    Vm &vm = hv->createVm("vm0", width(), {0, 1, 2, 3});
    guestVm = &vm;

    if (cfg.vApic && server->arch() == Arch::X86)
        server->apic().setVApic(true);

    // Paravirtual networking, per Section III ("All VMs used
    // paravirtualized I/O, typical of cloud infrastructure
    // deployments such as Amazon EC2").
    if (auto *kvm_arm = dynamic_cast<KvmArm *>(hv.get())) {
        VhostBackend::Params vp;
        vp.workerPcpu = 4;
        vp.hostIrqPcpu = 5;
        kvm_arm->attachVirtualNic(vm, vp);
    } else if (auto *xen_arm = dynamic_cast<XenArm *>(hv.get())) {
        NetbackBackend::Params np;
        np.dom0Pcpu = 4;
        np.zeroCopyGrants = cfg.zeroCopyGrants;
        xen_arm->attachVirtualNic(vm, np);
    } else if (auto *kvm_x86 = dynamic_cast<KvmX86 *>(hv.get())) {
        VhostBackend::Params vp;
        vp.workerPcpu = 4;
        vp.hostIrqPcpu = 5;
        kvm_x86->attachVirtualNic(vm, vp);
    } else if (auto *xen_x86 = dynamic_cast<XenX86 *>(hv.get())) {
        NetbackBackend::Params np;
        np.dom0Pcpu = 4;
        np.zeroCopyGrants = cfg.zeroCopyGrants;
        xen_x86->attachVirtualNic(vm, np);
    }

    hv->onHostDatalinkRx = [this](Cycles t, const Packet &pkt) {
        if (onHostRx)
            onHostRx(t, pkt);
    };
    hv->onGuestRx = [this](Cycles t, Vm &, const Packet &pkt) {
        if (onVmRx)
            onVmRx(t, pkt);
    };

    // Backend wake and kick edges join the kernel's channel table.
    hv->declareShardChannels(kern);
    hv->start();
}

PhysicalCpu &
Testbed::lcpuOf(int lcpu)
{
    VIRTSIM_ASSERT(lcpu >= 0 && lcpu < width(), "bad lcpu ", lcpu);
    if (!virtualized())
        return server->cpu(lcpu);
    return server->cpu(guestVm->vcpu(lcpu).pcpu());
}

Vcpu &
Testbed::vcpuOf(int lcpu)
{
    VIRTSIM_ASSERT(virtualized(), "vcpuOf on native testbed");
    VIRTSIM_ASSERT(lcpu >= 0 && lcpu < width(), "bad lcpu ", lcpu);
    return guestVm->vcpu(lcpu);
}

Cycles
Testbed::charge(Cycles t, int lcpu, Cycles work)
{
    return lcpuOf(lcpu).charge(t, work);
}

Cycles
Testbed::frontier(int lcpu)
{
    return lcpuOf(lcpu).frontier();
}

void
Testbed::setIdle(int lcpu, bool idle)
{
    if (!virtualized())
        return;
    Vcpu &v = vcpuOf(lcpu);
    if (idle) {
        if (v.state() != VcpuState::Idle)
            hv->blockVcpu(v);
    } else if (v.state() == VcpuState::Idle) {
        // The wake itself happens (and is charged) on the next
        // injection; this only reverses a premature block.
        v.setState(VcpuState::Running);
    }
}

void
Testbed::send(Cycles t, int lcpu, const Packet &pkt, Done on_datalink_tx)
{
    Packet p = pkt;
    p.seq = ++txSeq;
    if (virtualized()) {
        hv->guestTransmit(t, vcpuOf(lcpu), p,
                          std::move(on_datalink_tx));
        return;
    }
    // Native: the driver hands the frame straight to the NIC.
    PhysicalCpu &c = lcpuOf(lcpu);
    const Cycles t1 = c.charge(t, net.doorbell);
    server->nic().transmit(t1, p);
    eq.scheduleAt(t1, [t1, d = std::move(on_datalink_tx)] { d(t1); });
}

void
Testbed::sendIpi(Cycles t, int from_lcpu, int to_lcpu, Done done)
{
    if (virtualized()) {
        hv->virtualIpi(t, vcpuOf(from_lcpu), vcpuOf(to_lcpu),
                       std::move(done));
        return;
    }
    // Native SGI: sender writes the distributor, hardware delivers,
    // receiver runs the scheduler-IPI handler.
    PhysicalCpu &src = lcpuOf(from_lcpu);
    const Cycles t1 = src.charge(t, server->costs().irqChipRegAccess);
    nativeIpiDone[static_cast<std::size_t>(to_lcpu)].push_back(
        std::move(done));
    server->irqChip().sendIpi(t1, to_lcpu, sgiRescheduleIrq);
}

void
Testbed::completeVirq(Cycles t, int lcpu, Done done)
{
    if (virtualized()) {
        hv->virqComplete(t, vcpuOf(lcpu), std::move(done));
        return;
    }
    // Native: the EOI write to the physical controller.
    PhysicalCpu &c = lcpuOf(lcpu);
    const Cycles t1 = c.charge(t, server->costs().irqChipRegAccess);
    eq.scheduleAt(t1, [t1, d = std::move(done)] { d(t1); });
}

std::uint32_t
Testbed::tsoBytes() const
{
    const bool xen =
        cfg.kind == SutKind::XenArm || cfg.kind == SutKind::XenX86;
    if (xen && cfg.tsoRegression)
        return net.tsoBytesRegressed;
    return net.tsoBytes;
}

void
Testbed::clientSend(Cycles t, const Packet &pkt)
{
    wire_->sendToServer(t, pkt);
}

namespace {

thread_local TestbedCacheStats tl_built;

} // namespace

TestbedCacheStats
testbedCacheStats()
{
    return tl_built;
}

TestbedLease
acquireTestbed(const TestbedConfig &cfg)
{
    ++tl_built.misses;
    return std::make_unique<Testbed>(cfg);
}

} // namespace virtsim
