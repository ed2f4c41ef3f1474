#include "hv/xen_arm.hh"

#include "os/kernel.hh"
#include "sim/log.hh"

namespace virtsim {

namespace {

/** Xen instrumentation taps, interned once per process. */
struct XenTaps
{
    TapId trap = internTap("xen.trap");
    TapId resume = internTap("xen.resume");
    TapId domainSwitch = internTap("xen.domain_switch");
    TapId worldSwitch = internTap("xen.world_switch");
    TapId trapHypercall = internTap("xen.trap.hypercall");
    TapId trapIrqchip = internTap("xen.trap.irqchip");
    TapId trapVipi = internTap("xen.trap.vipi");
    TapId trapVmSwitch = internTap("xen.trap.vm_switch");
    TapId trapIoOut = internTap("xen.trap.io_out");
    TapId virqInjected = internTap("xen.virq_injected");
    TapId txKick = internTap("xen.io.tx_kick");
    TapId rxDeliver = internTap("xen.io.rx_deliver");
    /** Guest-visible operation envelopes (TraceCat::Op), shared
     *  names across hypervisors for differential attribution. */
    TapId opHypercall = internTap("op.hypercall");
    TapId opIrqTrap = internTap("op.irq_trap");
    TapId opVipi = internTap("op.vipi");
    TapId opVmSwitch = internTap("op.vm_switch");
    TapId opIoOut = internTap("op.io_out");
    TapId opIoIn = internTap("op.io_in");
    /** Machine-domain event counters. */
    TapId traps = internTap("xen.traps");
    TapId idleDomainSwitches = internTap("xen.idle_domain_switches");
    TapId domainSwitches = internTap("xen.domain_switches");
    TapId hypercalls = internTap("xen.hypercalls");
    TapId irqchipTraps = internTap("xen.irqchip_traps");
    TapId virtualIpis = internTap("xen.virtual_ipis");
    TapId vmSwitches = internTap("xen.vm_switches");
    TapId ioSignalOut = internTap("xen.io_signal_out");
    TapId ioSignalIn = internTap("xen.io_signal_in");
    TapId rxEventSuppressed = internTap("xen.rx_event_suppressed");
    TapId txBackpressure = internTap("xen.tx_backpressure");
    TapId txKickSuppressed = internTap("xen.tx_kick_suppressed");
    TapId dom0Blocked = internTap("xen.dom0_blocked");
    TapId unhandledPhysIrq = internTap("xen.unhandled_phys_irq");
    TapId spuriousKick = internTap("xen.spurious_kick");
    TapId vcpuBlocked = internTap("xen.vcpu_blocked");
};

constexpr auto &xenTaps = tapsOf<XenTaps>;

} // namespace

XenArm::XenArm(Machine &m)
    : Hypervisor(m),
      sched(static_cast<std::size_t>(m.numCpus())),
      kickActions(static_cast<std::size_t>(m.numCpus())),
      net(NetstackCosts::linux(m.freq()))
{
    VIRTSIM_ASSERT(m.arch() == Arch::Arm, "XenArm needs an ARM machine");
    xenTaps();
    // Dom0: 4 VCPUs on the upper half of the machine (Section III:
    // Dom0 capped at 4 VCPUs / 4 GB, pinned away from the DomU).
    const int half = m.numCpus() / 2;
    std::vector<PcpuId> dom0_pins;
    for (int i = 0; i < half; ++i)
        dom0_pins.push_back(half + i);
    _dom0 = std::make_unique<Vm>(0, "dom0", VmKind::Dom0, half,
                                 dom0_pins);
    dists[0] = std::make_unique<VgicDistributor>(*_dom0);
    evtchn = std::make_unique<EventChannel>(m);
}

Vm &
XenArm::createVm(const std::string &name, int n_vcpus,
                 const std::vector<PcpuId> &pinning)
{
    Vm &vm = Hypervisor::createVm(name, n_vcpus, pinning);
    dists[vm.id()] = std::make_unique<VgicDistributor>(vm);
    return vm;
}

TapId
XenArm::worldSwitchTap() const
{
    return xenTaps().worldSwitch;
}

void
XenArm::start()
{
    Hypervisor::start();
    mach.irqChip().setPhysIrqHandler(
        [this](Cycles t, PcpuId cpu, IrqId irq) {
            onPhysIrq(t, cpu, irq);
        });
    // Guest VCPUs start executing; Dom0 VCPUs start blocked, so
    // their PCPUs run the idle domain (the paper's default state
    // when no I/O is in flight).
    for (auto &vmp : _vms) {
        for (int i = 0; i < vmp->numVcpus(); ++i) {
            Vcpu &v = vmp->vcpu(i);
            auto &s = sched[static_cast<std::size_t>(v.pcpu())];
            if (s.current == nullptr) {
                s.current = &v;
                s.inGuest = true;
                v.setLoaded(true);
                v.setState(VcpuState::Running);
                mach.cpu(v.pcpu()).regs() = v.savedRegs();
                mach.cpu(v.pcpu()).setContext(v.name());
            }
        }
    }
    for (int i = 0; i < _dom0->numVcpus(); ++i) {
        _dom0->vcpu(i).setState(VcpuState::Idle);
        mach.cpu(_dom0->vcpu(i).pcpu()).setContext("idle-domain");
    }
}

VgicDistributor &
XenArm::dist(Vm &vm)
{
    auto it = dists.find(vm.id());
    VIRTSIM_ASSERT(it != dists.end(), "no vgic for vm ", vm.name());
    return *it->second;
}

Cycles
XenArm::trapToXen(Cycles t, Vcpu &v)
{
    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(s.current == &v && s.inGuest,
                   "trapToXen: ", v.name(), " not executing");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const CostModel &cm = mach.costs();
    const Cycles c = cm.trapToEl2 + cm.cost(RegClass::Gp).save +
                     params.hypercallDispatch;
    v.savedRegs().copyClassFrom(cpu.regs(), RegClass::Gp);
    s.inGuest = false;
    cpu.setMode(CpuMode::El2);
    machineMetrics().counter(xenTaps().traps).inc();
    const Cycles tr = cpu.charge(t, c);
    const XenTaps &taps = xenTaps();
    trace().span(t, tr, taps.trap, TraceCat::Switch,
                 static_cast<std::uint16_t>(v.pcpu()), c);
    vmMetrics(v.vm()).counter(taps.worldSwitch).inc();
    cpuMetrics(v.pcpu()).counter(taps.worldSwitch).inc();
    return tr;
}

Cycles
XenArm::resumeVm(Cycles t, Vcpu &v)
{
    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(s.current == &v && !s.inGuest,
                   "resumeVm: ", v.name(), " not trapped");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const CostModel &cm = mach.costs();
    const Cycles c = cm.cost(RegClass::Gp).restore + cm.eretToEl1;
    cpu.regs().copyClassFrom(v.savedRegs(), RegClass::Gp);
    s.inGuest = true;
    cpu.setMode(CpuMode::El1);
    const Cycles tr = cpu.charge(t, c);
    trace().span(t, tr, xenTaps().resume, TraceCat::Switch,
                 static_cast<std::uint16_t>(v.pcpu()), c);
    return tr;
}

Cycles
XenArm::switchDomains(Cycles t, Vcpu *from, Vcpu &to, bool charge_sched)
{
    auto &s = sched[static_cast<std::size_t>(to.pcpu())];
    PhysicalCpu &cpu = mach.cpu(to.pcpu());
    const CostModel &cm = mach.costs();

    Cycles c = 0;
    if (from != nullptr) {
        VIRTSIM_ASSERT(from->pcpu() == to.pcpu(),
                       "domain switch across pcpus");
        c += wse.save(cpu, from->savedRegs(), xenVmSwitchState, t);
        from->setLoaded(false);
    } else {
        // Leaving the idle domain: next to nothing to save.
        c += cm.cost(RegClass::Gp).save;
        machineMetrics().counter(xenTaps().idleDomainSwitches).inc();
    }
    if (charge_sched)
        c += params.schedWork;

    // Flush software-pending virqs into the list registers.
    VgicDistributor &d = dist(to.vm());
    while (d.hasPending(to.id())) {
        const IrqId virq = d.popPending(to.id());
        if (mach.gic().injectVirq(t, to.pcpu(), virq) < 0) {
            d.setPending(to.id(), virq);
            break;
        }
        c += mach.gic().lrWriteCost();
    }

    c += wse.restore(cpu, to.savedRegs(), xenVmSwitchState, t + c);
    c += cm.eretToEl1;

    s.current = &to;
    s.inGuest = true;
    to.setLoaded(true);
    to.setState(VcpuState::Running);
    cpu.setContext(to.name());
    machineMetrics().counter(xenTaps().domainSwitches).inc();
    const Cycles tr = cpu.charge(t, c);
    const XenTaps &taps = xenTaps();
    trace().span(t, tr, taps.domainSwitch, TraceCat::Switch,
                 static_cast<std::uint16_t>(to.pcpu()), c);
    vmMetrics(to.vm()).counter(taps.worldSwitch).inc();
    cpuMetrics(to.pcpu()).counter(taps.worldSwitch).inc();
    return tr;
}

Cycles
XenArm::ensureRunning(Cycles t, Vcpu &v)
{
    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    if (s.current == &v && s.inGuest)
        return t;
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    if (s.current == nullptr) {
        // Wake from the idle domain: scheduler wake path, then the
        // register switch-in.
        const Cycles tw = cpu.charge(t, params.domainWakeFromIdle);
        return switchDomains(tw, nullptr, v, false);
    }
    if (s.current == &v && !s.inGuest)
        return resumeVm(t, v);
    // Preempt whoever runs there (full switch).
    Vcpu *from = s.current;
    return switchDomains(t, from, v, true);
}

void
XenArm::hypercall(Cycles t, Vcpu &v, Done done)
{
    // The whole round trip happens in EL2: trap, GP save, handler,
    // GP restore, eret (Table II: 376 cycles).
    const Cycles t1 = trapToXen(t, v);
    const Cycles t2 = resumeVm(t1, v);
    machineMetrics().counter(xenTaps().hypercalls).inc();
    vmMetrics(v.vm()).histogram(xenTaps().trapHypercall).add(t2 - t);
    trace().span(t, t2, xenTaps().opHypercall, TraceCat::Op,
                 static_cast<std::uint16_t>(v.pcpu()));
    queue().scheduleAt(t2, [t2, done] { done(t2); });
}

void
XenArm::irqControllerTrap(Cycles t, Vcpu &v, Done done)
{
    // The distributor is emulated directly in EL2 (Figure 2): no
    // second world to reach, unlike KVM.
    const Cycles t1 = trapToXen(t, v);
    const Cycles t2 =
        mach.cpu(v.pcpu()).charge(t1, params.vgicDistEmulation);
    const Cycles t3 = resumeVm(t2, v);
    machineMetrics().counter(xenTaps().irqchipTraps).inc();
    vmMetrics(v.vm()).histogram(xenTaps().trapIrqchip).add(t3 - t);
    trace().span(t, t3, xenTaps().opIrqTrap, TraceCat::Op,
                 static_cast<std::uint16_t>(v.pcpu()));
    queue().scheduleAt(t3, [t3, done] { done(t3); });
}

Cycles
XenArm::injectIntoRunning(Cycles t, Vcpu &v, Done done)
{
    // A physical SGI arrives while the VCPU executes guest code: Xen
    // takes it in EL2, acknowledges the GIC, injects the pending virq
    // into a list register and resumes the guest — no other world is
    // involved.
    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(s.current == &v && s.inGuest,
                   "injectIntoRunning: ", v.name(), " not running");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const CostModel &cm = mach.costs();

    Cycles c = cm.trapToEl2 + cm.cost(RegClass::Gp).save;
    c += cm.irqChipRegAccess; // physical IAR read
    c += params.xenIrqDispatch;
    c += params.vgicInject;
    const IrqId virq = dist(v.vm()).popPending(v.id());
    if (virq >= 0) {
        mach.gic().injectVirq(t, v.pcpu(), virq);
        c += mach.gic().lrWriteCost();
    }
    c += cm.irqChipRegAccess; // physical EOI write
    c += cm.cost(RegClass::Gp).restore + cm.eretToEl1;

    // Guest side: acknowledge the virtual interrupt and dispatch.
    c += mach.gic().guestAckCost() + params.guestIrqDispatch;

    const Cycles t1 = cpu.charge(t, c);
    const IrqId acked = mach.gic().guestAckVirq(v.pcpu(), t1);
    queue().scheduleAt(t1, [t1, done] { done(t1); });
    // Completion (71-cycle fast path) trails the handler.
    if (acked >= 0)
        cpu.charge(t1, mach.gic().guestCompleteVirq(v.pcpu(), acked));
    return t1;
}

void
XenArm::injectVirq(Cycles t, Vcpu &v, IrqId virq, Done done)
{
    dist(v.vm()).setPending(v.id(), virq);
    machineMetrics().counter(xenTaps().virqInjected).inc();
    vmMetrics(v.vm()).counter(xenTaps().virqInjected).inc();
    trace().instant(t, xenTaps().virqInjected, TraceCat::Irq,
                    static_cast<std::uint16_t>(v.pcpu()),
                    static_cast<std::uint64_t>(virq));

    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    if (s.current == &v && s.inGuest) {
        // Running target: physical SGI so the target PCPU programs
        // its own list registers.
        kickActions[static_cast<std::size_t>(v.pcpu())].push_back(
            [this, &v, done](Cycles th) {
                injectIntoRunning(th, v, done);
            });
        mach.gic().sendIpi(t, v.pcpu(), sgiRescheduleIrq);
        return;
    }
    // Blocked / descheduled target: wake it (possibly switching the
    // PCPU away from the idle domain), then it takes the virq.
    kickActions[static_cast<std::size_t>(v.pcpu())].push_back(
        [this, &v, done](Cycles th) {
            const Cycles tr = ensureRunning(th, v);
            PhysicalCpu &cpu = mach.cpu(v.pcpu());
            const Cycles ta = cpu.charge(
                tr, mach.gic().guestAckCost() + params.guestIrqDispatch);
            const IrqId acked = mach.gic().guestAckVirq(v.pcpu(), ta);
            queue().scheduleAt(ta, [ta, done] { done(ta); });
            if (acked >= 0) {
                cpu.charge(ta, mach.gic().guestCompleteVirq(v.pcpu(),
                                                            acked));
            }
        });
    mach.gic().sendIpi(t, v.pcpu(), sgiRescheduleIrq);
}

void
XenArm::virtualIpi(Cycles t, Vcpu &src, Vcpu &dst, Done done)
{
    VIRTSIM_ASSERT(src.pcpu() != dst.pcpu(),
                   "virtual IPI microbenchmark requires distinct pcpus");
    machineMetrics().counter(xenTaps().virtualIpis).inc();

    // Sender: GICD_SGIR write traps into EL2; the SGI emulation runs
    // right there.
    const Cycles t1 = trapToXen(t, src);
    PhysicalCpu &scpu = mach.cpu(src.pcpu());
    const Cycles t2 = scpu.charge(
        t1, params.sgiEmulation + mach.costs().irqChipRegAccess);

    vmMetrics(src.vm()).histogram(xenTaps().trapVipi).add(t2 - t);
    // Operation envelope closes when the receiver dispatches.
    Done wrapped = [this, t,
                    track = static_cast<std::uint16_t>(src.pcpu()),
                    done](Cycles ta) {
        trace().span(t, ta, xenTaps().opVipi, TraceCat::Op, track);
        done(ta);
    };
    injectVirq(t2, dst, sgiRescheduleIrq + 8, std::move(wrapped));
    resumeVm(t2, src);
}

void
XenArm::virqComplete(Cycles t, Vcpu &v, Done done)
{
    // Identical hardware fast path as on KVM: Table II shows 71
    // cycles for both hypervisors.
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    IrqId virq = -1;
    for (auto &lr : mach.gic().listRegs(v.pcpu())) {
        if (!lr.empty() && lr.active) {
            virq = lr.virq;
            break;
        }
    }
    const Cycles c = mach.gic().guestCompleteVirq(v.pcpu(), virq);
    const Cycles t1 = cpu.charge(t, c);
    queue().scheduleAt(t1, [t1, done] { done(t1); });
}

void
XenArm::vmSwitch(Cycles t, Vcpu &from, Vcpu &to, Done done)
{
    VIRTSIM_ASSERT(from.pcpu() == to.pcpu(),
                   "vm switch is a same-pcpu operation");
    // Both worlds live in EL1, so unlike the Hypercall case Xen must
    // switch the full EL1 state — which is why Table II shows Xen
    // only slightly ahead of KVM here (8,799 vs 10,387).
    PhysicalCpu &cpu = mach.cpu(from.pcpu());
    const Cycles t1 = cpu.charge(t, mach.costs().trapToEl2);
    auto &s = sched[static_cast<std::size_t>(from.pcpu())];
    s.inGuest = false;
    from.setState(VcpuState::Idle);
    const Cycles t2 = switchDomains(t1, &from, to, true);
    machineMetrics().counter(xenTaps().vmSwitches).inc();
    vmMetrics(to.vm()).histogram(xenTaps().trapVmSwitch).add(t2 - t);
    trace().span(t, t2, xenTaps().opVmSwitch, TraceCat::Op,
                 static_cast<std::uint16_t>(from.pcpu()));
    queue().scheduleAt(t2, [t2, done] { done(t2); });
}

void
XenArm::ioSignalOut(Cycles t, Vcpu &v, Done done)
{
    VIRTSIM_ASSERT(_netback, "ioSignalOut requires an attached vNIC");
    // DomU kick: hypercall into Xen, event-channel notify, signal
    // Dom0 — which is usually idling, so its PCPU must switch away
    // from the idle domain before netback can see the signal.
    const Cycles t1 = trapToXen(t, v);
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const Cycles t2 = cpu.charge(t1, evtchn->notify(portDom0));
    machineMetrics().counter(xenTaps().ioSignalOut).inc();
    vmMetrics(v.vm()).histogram(xenTaps().trapIoOut).add(t2 - t);

    Done wrapped = [this, t,
                    track = static_cast<std::uint16_t>(v.pcpu()),
                    done](Cycles ta) {
        trace().span(t, ta, xenTaps().opIoOut, TraceCat::Op, track);
        done(ta);
    };
    Vcpu &d0 = dom0Vcpu();
    kickActions[static_cast<std::size_t>(d0.pcpu())].push_back(
        [this, &d0, done = std::move(wrapped)](Cycles th) {
            const Cycles tr = ensureRunning(th, d0);
            PhysicalCpu &dcpu = mach.cpu(d0.pcpu());
            Cycles c = mach.gic().guestAckCost() +
                       params.guestIrqDispatch;
            const IrqId acked = mach.gic().guestAckVirq(d0.pcpu(), tr);
            if (acked >= 0)
                c += mach.gic().guestCompleteVirq(d0.pcpu(), acked);
            c += params.backendDequeue;
            const Cycles t3 = dcpu.charge(tr, c);
            queue().scheduleAt(t3, [t3, done] { done(t3); });
        });
    mach.gic().sendIpi(t2, d0.pcpu(), sgiRescheduleIrq);
    resumeVm(t2, v);
}

void
XenArm::ioSignalIn(Cycles t, Vcpu &v, Done done)
{
    VIRTSIM_ASSERT(_netback, "ioSignalIn requires an attached vNIC");
    // Dom0 signals the guest: trap to Xen, event channel, physical
    // IPI, and the receiving VM — idle in this microbenchmark — is
    // switched in from the idle domain.
    Vcpu &d0 = dom0Vcpu();
    const Cycles tr = ensureRunning(t, d0); // bench setup: not charged
                                            // when already running
    const Cycles t1 = trapToXen(tr, d0);
    PhysicalCpu &dcpu = mach.cpu(d0.pcpu());
    const Cycles t2 = dcpu.charge(t1, evtchn->notify(portDomU));
    machineMetrics().counter(xenTaps().ioSignalIn).inc();
    Done wrapped = [this, t,
                    track = static_cast<std::uint16_t>(v.pcpu()),
                    done](Cycles ta) {
        trace().span(t, ta, xenTaps().opIoIn, TraceCat::Op, track);
        done(ta);
    };
    injectVirq(t2, v, spiNicIrq, std::move(wrapped));
    resumeVm(t2, d0);
}

void
XenArm::declareShardChannels(ShardedEventKernel &kern)
{
    if (!_netback)
        return;
    const NetbackBackend::Params &np = _netback->params();
    // NAPI-to-kthread rx handoff inside Dom0: zero modelled latency
    // on one CPU, so both endpoints resolve to Dom0's lane. The
    // frontend's tx kick crosses CPUs as a physical SGI and already
    // rides the machine's per-CPU IPI channels.
    _netback->bindWakeChannel(
        &kern.channel("netback.wake", cpuShard(np.dom0Pcpu),
                      cpuShard(np.dom0Pcpu), 0));
}

void
XenArm::attachVirtualNic(Vm &vm, NetbackBackend::Params np)
{
    VIRTSIM_ASSERT(!_netback, "only one virtual NIC supported");
    netVm = &vm;
    _netback = std::make_unique<NetbackBackend>(mach, *_dom0, vm, net,
                                                np);
    portDomU = evtchn->allocate();
    portDom0 = evtchn->allocate();
    // Frontend pre-grants rx buffers and posts the requests, like
    // netfront keeping its rx ring full.
    for (int i = 0; i < 256; ++i) {
        PvRequest req;
        const BufferId buf = mach.memory().alloc(vm.name(), 4096);
        req.gref = _netback->grantTable().grant(buf, false);
        _netback->rxRing().frontPost(req);
    }
    mach.irqChip().routeExternal(spiNicIrq, np.dom0Pcpu);
}

void
XenArm::deliverPacketToVm(Cycles t, Vm &vm, const Packet &pkt, Done done)
{
    VIRTSIM_ASSERT(_netback && netVm == &vm,
                   "deliverPacketToVm: vm has no attached vNIC");
    trace().instant(t, xenTaps().rxDeliver, TraceCat::Io, noTrack,
                    pkt.seq);
    _netback->dom0RxToDomU(t, pkt, true,
                           [this, &vm, pkt, done](Cycles tr) {
                               notifyGuestRx(tr, vm, pkt, done);
                           });
}

void
XenArm::notifyGuestRx(Cycles t, Vm &vm, const Packet &pkt, Done done)
{
    const VcpuId target = pickVirqTarget(vm);
    Vcpu &v = vm.vcpu(target);
    const int frames = framesFor(pkt.bytes);

    auto guest_pop = [this, &vm, pkt, frames, done,
                      target](Cycles ti) {
        // Frontend reaps one response (and re-grants + reposts a
        // buffer) per wire frame.
        PhysicalCpu &vcpu_cpu = mach.cpu(vm.vcpu(target).pcpu());
        // Event-channel upcall demux precedes the frontend's ring
        // work on every delivered event.
        Cycles c = params.evtchnUpcall;
        for (int i = 0; i < frames; ++i) {
            bool ok = false;
            PvRequest resp;
            _netback->rxRing().frontPopResponse(resp, ok);
            if (ok)
                _netback->rxRing().frontPost(resp);
            c += params.guestDriverRxPop;
        }
        const Cycles tg = vcpu_cpu.charge(ti, c);
        queue().scheduleAt(tg, [this, tg, &vm, pkt, done] {
            if (onGuestRx)
                onGuestRx(tg, vm, pkt);
            done(tg);
        });
    };

    if (v.state() != VcpuState::Idle && t < rxQuietUntil) {
        // Event channel masked while the frontend polls the ring.
        machineMetrics().counter(xenTaps().rxEventSuppressed).inc();
        guest_pop(t);
        return;
    }
    rxQuietUntil = t + mach.freq().cycles(2.5);

    PhysicalCpu &dcpu = mach.cpu(_netback->params().dom0Pcpu);
    const Cycles t1 = dcpu.charge(t, evtchn->notify(portDomU));
    injectVirq(t1, v, spiNicIrq,
               [guest_pop](Cycles ti) { guest_pop(ti); });
}

void
XenArm::guestTransmit(Cycles t, Vcpu &v, const Packet &pkt, Done done)
{
    VIRTSIM_ASSERT(_netback, "guestTransmit requires an attached vNIC");
    if (_netback->txRing().full()) {
        // Ring full: netfront blocks the frame until netback frees
        // slots (TCP backpressure).
        txBacklog.emplace_back(&v, std::make_pair(pkt, std::move(done)));
        machineMetrics().counter(xenTaps().txBackpressure).inc();
        return;
    }
    PhysicalCpu &cpu = mach.cpu(v.pcpu());

    // Frontend: grant each page of the payload, then post the
    // request.
    const int pages =
        static_cast<int>((pkt.bytes + 4095) / 4096 == 0
                             ? 1
                             : (pkt.bytes + 4095) / 4096);
    PvRequest req;
    req.pkt = pkt;
    const BufferId buf = mach.memory().alloc(v.vm().name(), pkt.bytes);
    req.gref = _netback->grantTable().grant(buf, true);
    Cycles c = static_cast<Cycles>(pages) * params.grantSetup;
    c += _netback->txRing().frontPost(req);
    const Cycles t0 = cpu.charge(t, c);
    txDone[pkt.seq] = std::move(done);
    txBufs[pkt.seq] = std::make_pair(req.gref, buf);

    if (txPumpActive) {
        machineMetrics().counter(xenTaps().txKickSuppressed).inc();
        return;
    }

    // Kick Dom0 via the event channel.
    const Cycles t1 = trapToXen(t0, v);
    const Cycles t2 = cpu.charge(t1, evtchn->notify(portDom0));
    trace().span(t0, t2, xenTaps().txKick, TraceCat::Io,
                 static_cast<std::uint16_t>(v.pcpu()), pkt.seq);
    resumeVm(t2, v);

    Vcpu &d0 = dom0Vcpu();
    txPumpActive = true;
    kickActions[static_cast<std::size_t>(d0.pcpu())].push_back(
        [this, &d0](Cycles th) {
            const Cycles tr = ensureRunning(th, d0);
            PhysicalCpu &dcpu = mach.cpu(d0.pcpu());
            Cycles c2 = mach.gic().guestAckCost() +
                        params.guestIrqDispatch +
                        params.backendDequeue;
            const IrqId acked = mach.gic().guestAckVirq(d0.pcpu(), tr);
            if (acked >= 0)
                c2 += mach.gic().guestCompleteVirq(d0.pcpu(), acked);
            const Cycles t3 = dcpu.charge(tr, c2);
            _netback->markTxKick();
            pumpTx(t3);
        });
    mach.gic().sendIpi(t2, d0.pcpu(), sgiRescheduleIrq);
}

void
XenArm::pumpTx(Cycles t)
{
    if (_netback->txRing().requestDepth() == 0) {
        txPumpActive = false;
        scheduleDom0IdleCheck(t);
        return;
    }
    _netback->domUTx(t, [this](Cycles td, const Packet &pkt) {
        auto it = txDone.find(pkt.seq);
        if (it != txDone.end()) {
            Done done = std::move(it->second);
            txDone.erase(it);
            done(td);
        }
        auto bit = txBufs.find(pkt.seq);
        if (bit != txBufs.end()) {
            _netback->grantTable().end(bit->second.first);
            mach.memory().free(bit->second.second);
            txBufs.erase(bit);
        }
        mach.nic().transmit(td, pkt);
        while (!txBacklog.empty() && !_netback->txRing().full()) {
            auto item = std::move(txBacklog.front());
            txBacklog.pop_front();
            guestTransmit(td, *item.first, item.second.first,
                          std::move(item.second.second));
        }
        pumpTx(td);
    });
}

Vcpu &
XenArm::dom0Vcpu()
{
    return _dom0->vcpu(0);
}

void
XenArm::scheduleDom0IdleCheck(Cycles t)
{
    Vcpu &d0 = dom0Vcpu();
    const PcpuId p = d0.pcpu();
    const std::uint64_t gen = ++idleGen;
    // Dom0 blocks once it has been quiescent for a grace period; the
    // PCPU then runs the idle domain and the next I/O event pays the
    // wake cost — the effect the paper repeatedly observes.
    const Cycles grace = mach.freq().cycles(20.0);
    queue().scheduleAt(t + grace, [this, p, gen, &d0] {
        if (idleGen != gen)
            return;
        auto &s = sched[static_cast<std::size_t>(p)];
        if (s.current != &d0)
            return;
        if (mach.cpu(p).frontier() > queue().now()) {
            // Work arrived (or is still draining) since the check
            // was armed: try again once the queue quiesces.
            scheduleDom0IdleCheck(mach.cpu(p).frontier());
            return;
        }
        s.current = nullptr;
        s.inGuest = false;
        d0.setState(VcpuState::Idle);
        d0.setLoaded(false);
        mach.cpu(p).setContext("idle-domain");
        machineMetrics().counter(xenTaps().dom0Blocked).inc();
    });
}

void
XenArm::onPhysIrq(Cycles t, PcpuId cpu, IrqId irq)
{
    if (irq == sgiRescheduleIrq) {
        handleKick(t, cpu);
        return;
    }
    if (irq == spiNicIrq) {
        handleNicIrq(t, cpu);
        return;
    }
    if (irq == ppiVtimerIrq) {
        auto &s = sched[static_cast<std::size_t>(cpu)];
        if (s.current && s.inGuest)
            injectVirq(t, *s.current, ppiVtimerIrq, [](Cycles) {});
        return;
    }
    machineMetrics().counter(xenTaps().unhandledPhysIrq).inc();
}

void
XenArm::handleKick(Cycles t, PcpuId cpu)
{
    auto &q = kickActions[static_cast<std::size_t>(cpu)];
    if (q.empty()) {
        machineMetrics().counter(xenTaps().spuriousKick).inc();
        return;
    }
    auto action = std::move(q.front());
    q.pop_front();
    action(t);
}

void
XenArm::handleNicIrq(Cycles t, PcpuId cpu)
{
    if (!netVm)
        return;
    // The physical interrupt is taken by Xen in EL2 (all physical
    // interrupts are, while VMs run) and translated into a virtual
    // IRQ for Dom0, whose PCPU is typically running the idle domain:
    // this pre-stamp latency is why Xen's send-to-recv leg in
    // Table V is longer than native.
    PhysicalCpu &xcpu = mach.cpu(cpu);
    const CostModel &cm = mach.costs();
    Cycles c = cm.irqChipRegAccess + params.xenIrqDispatch +
               params.vgicInject + cm.irqChipRegAccess;
    const Cycles t1 = xcpu.charge(t, c);

    Vcpu &d0 = dom0Vcpu();
    const Cycles t2 = ensureRunning(t1, d0);
    PhysicalCpu &dcpu = mach.cpu(d0.pcpu());
    Cycles ack_cost = mach.gic().guestAckCost() + net.irqPath;
    const IrqId acked = mach.gic().guestAckVirq(d0.pcpu(), t2);
    if (acked >= 0)
        ack_cost += mach.gic().guestCompleteVirq(d0.pcpu(), acked);
    const Cycles t3 = dcpu.charge(t2, ack_cost);

    // Dom0's physical driver drains the NIC, GRO-coalescing.
    const auto aggs = groDrain(mach.nic(), net.groFrames);
    Cycles tcur = t3;
    for (const auto &agg : aggs) {
        if (onHostDatalinkRx)
            onHostDatalinkRx(tcur, agg);
        deliverPacketToVm(tcur, *netVm, agg, [](Cycles) {});
        tcur = dcpu.frontier();
    }
    scheduleDom0IdleCheck(dcpu.frontier());
}


void
XenArm::forceDom0Running()
{
    Vcpu &d0 = dom0Vcpu();
    auto &s = sched[static_cast<std::size_t>(d0.pcpu())];
    s.current = &d0;
    s.inGuest = true;
    d0.setLoaded(true);
    d0.setState(VcpuState::Running);
    mach.cpu(d0.pcpu()).setContext(d0.name());
}

void
XenArm::forceDom0Idle()
{
    Vcpu &d0 = dom0Vcpu();
    auto &s = sched[static_cast<std::size_t>(d0.pcpu())];
    s.current = nullptr;
    s.inGuest = false;
    d0.setLoaded(false);
    d0.setState(VcpuState::Idle);
    mach.cpu(d0.pcpu()).setContext("idle-domain");
}


void
XenArm::blockVcpu(Vcpu &v)
{
    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(s.current == &v,
                   "blockVcpu: ", v.name(), " not current");
    // Guest blocked: Xen schedules the idle domain onto the PCPU.
    s.current = nullptr;
    s.inGuest = false;
    v.setLoaded(false);
    v.setState(VcpuState::Idle);
    mach.cpu(v.pcpu()).setContext("idle-domain");
    machineMetrics().counter(xenTaps().vcpuBlocked).inc();
}

} // namespace virtsim
