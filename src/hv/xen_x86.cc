#include "hv/xen_x86.hh"

#include "os/kernel.hh"
#include "sim/log.hh"
#include "sim/probe.hh"

namespace virtsim {

namespace {

/** Xen x86 instrumentation taps, interned once per process. */
struct XenX86Taps
{
    TapId worldSwitch = internTap("xen.world_switch");
    TapId trapHypercall = internTap("xen.trap.hypercall");
    TapId trapIrqchip = internTap("xen.trap.irqchip");
    TapId trapVmSwitch = internTap("xen.trap.vm_switch");
    TapId trapEoi = internTap("xen.trap.eoi");
    TapId virqInjected = internTap("xen.virq_injected");
    // Guest-visible operation envelopes, shared across hypervisors so
    // differential reports line up by name.
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
    TapId virqCompleteTrap = internTap("xen.virq_complete_trap");
    TapId virtualIpis = internTap("xen.virtual_ipis");
    TapId virqCompleteVapic = internTap("xen.virq_complete_vapic");
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

constexpr auto &xenX86Taps = tapsOf<XenX86Taps>;

} // namespace

XenX86::XenX86(Machine &m)
    : Hypervisor(m),
      sched(static_cast<std::size_t>(m.numCpus())),
      kickActions(static_cast<std::size_t>(m.numCpus())),
      net(NetstackCosts::linux(m.freq()))
{
    VIRTSIM_ASSERT(m.arch() == Arch::X86, "XenX86 needs an x86 machine");
    xenX86Taps();
    const int half = m.numCpus() / 2;
    std::vector<PcpuId> dom0_pins;
    for (int i = 0; i < half; ++i)
        dom0_pins.push_back(half + i);
    // Dom0 runs as a PV instance on x86 (Section III: HVM domains
    // were used "except for Dom0 which was only supported as a PV
    // instance").
    _dom0 = std::make_unique<Vm>(0, "dom0", VmKind::Dom0, half,
                                 dom0_pins);
    dists[0] = std::make_unique<VgicDistributor>(*_dom0);
    evtchn = std::make_unique<EventChannel>(m);
}

Vm &
XenX86::createVm(const std::string &name, int n_vcpus,
                 const std::vector<PcpuId> &pinning)
{
    Vm &vm = Hypervisor::createVm(name, n_vcpus, pinning);
    dists[vm.id()] = std::make_unique<VgicDistributor>(vm);
    return vm;
}

TapId
XenX86::worldSwitchTap() const
{
    return xenX86Taps().worldSwitch;
}

void
XenX86::start()
{
    Hypervisor::start();
    mach.irqChip().setPhysIrqHandler(
        [this](Cycles t, PcpuId cpu, IrqId irq) {
            onPhysIrq(t, cpu, irq);
        });
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
XenX86::dist(Vm &vm)
{
    auto it = dists.find(vm.id());
    VIRTSIM_ASSERT(it != dists.end(), "no irq state for vm ", vm.name());
    return *it->second;
}

Cycles
XenX86::trapToXen(Cycles t, Vcpu &v)
{
    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(s.current == &v && s.inGuest,
                   "trapToXen: ", v.name(), " not executing");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    // Hardware exit: the VMCS state switch is the same mechanism KVM
    // pays — Type 1 gains nothing here on x86 (Section IV).
    v.savedRegs().copyClassFrom(cpu.regs(), RegClass::Gp);
    v.savedRegs().copyClassFrom(cpu.regs(), RegClass::Vmcs);
    const Cycles c = mach.costs().vmexitHw + params.hypercallDispatch;
    s.inGuest = false;
    cpu.setMode(CpuMode::KernelRoot);
    machineMetrics().counter(xenX86Taps().traps).inc();
    vmMetrics(v.vm()).counter(xenX86Taps().worldSwitch).inc();
    cpuMetrics(v.pcpu()).counter(xenX86Taps().worldSwitch).inc();
    return cpu.charge(t, c);
}

Cycles
XenX86::resumeVm(Cycles t, Vcpu &v)
{
    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(s.current == &v && !s.inGuest,
                   "resumeVm: ", v.name(), " not trapped");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    cpu.regs().copyClassFrom(v.savedRegs(), RegClass::Gp);
    cpu.regs().copyClassFrom(v.savedRegs(), RegClass::Vmcs);
    const Cycles c = mach.costs().vmentryHw;
    s.inGuest = true;
    cpu.setMode(CpuMode::KernelNonRoot);
    vmMetrics(v.vm()).counter(xenX86Taps().worldSwitch).inc();
    cpuMetrics(v.pcpu()).counter(xenX86Taps().worldSwitch).inc();
    return cpu.charge(t, c);
}

Cycles
XenX86::switchDomains(Cycles t, Vcpu *from, Vcpu &to, bool charge_sched)
{
    auto &s = sched[static_cast<std::size_t>(to.pcpu())];
    PhysicalCpu &cpu = mach.cpu(to.pcpu());

    Cycles c = 0;
    if (from != nullptr) {
        VIRTSIM_ASSERT(from->pcpu() == to.pcpu(),
                       "domain switch across pcpus");
        from->savedRegs().copyClassFrom(cpu.regs(), RegClass::Gp);
        from->savedRegs().copyClassFrom(cpu.regs(), RegClass::Vmcs);
        from->setLoaded(false);
    } else {
        machineMetrics().counter(xenX86Taps().idleDomainSwitches).inc();
    }
    if (charge_sched)
        c += params.schedWork;
    c += mach.costs().vmcsSwitch;

    Cycles inject = 0;
    VgicDistributor &d = dist(to.vm());
    if (d.hasPending(to.id())) {
        const IrqId virq = d.popPending(to.id());
        inject = mach.apic().injectVirq(t, to.pcpu(), virq);
    }

    cpu.regs().copyClassFrom(to.savedRegs(), RegClass::Gp);
    cpu.regs().copyClassFrom(to.savedRegs(), RegClass::Vmcs);
    c += mach.costs().vmentryHw + inject;

    s.current = &to;
    s.inGuest = true;
    to.setLoaded(true);
    to.setState(VcpuState::Running);
    cpu.setContext(to.name());
    machineMetrics().counter(xenX86Taps().domainSwitches).inc();
    return cpu.charge(t, c);
}

Cycles
XenX86::ensureRunning(Cycles t, Vcpu &v)
{
    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    if (s.current == &v && s.inGuest)
        return t;
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    if (s.current == nullptr) {
        const Cycles tw = cpu.charge(t, params.domainWakeFromIdle);
        return switchDomains(tw, nullptr, v, false);
    }
    if (s.current == &v && !s.inGuest)
        return resumeVm(t, v);
    return switchDomains(t, s.current, v, true);
}

void
XenX86::hypercall(Cycles t, Vcpu &v, Done done)
{
    const Cycles t1 = trapToXen(t, v);
    const Cycles th =
        mach.cpu(v.pcpu()).charge(t1, params.hypercallHandler);
    const Cycles t2 = resumeVm(th, v);
    machineMetrics().counter(xenX86Taps().hypercalls).inc();
    vmMetrics(v.vm()).histogram(xenX86Taps().trapHypercall)
        .add(t2 - t);
    trace().span(t, t2, xenX86Taps().opHypercall, TraceCat::Op,
                 static_cast<std::uint16_t>(v.pcpu()));
    queue().scheduleAt(t2, [t2, done] { done(t2); });
}

void
XenX86::irqControllerTrap(Cycles t, Vcpu &v, Done done)
{
    const Cycles t1 = trapToXen(t, v);
    const Cycles t2 =
        mach.cpu(v.pcpu()).charge(t1, params.apicEmulation);
    const Cycles t3 = resumeVm(t2, v);
    machineMetrics().counter(xenX86Taps().irqchipTraps).inc();
    vmMetrics(v.vm()).histogram(xenX86Taps().trapIrqchip)
        .add(t3 - t);
    trace().span(t, t3, xenX86Taps().opIrqTrap, TraceCat::Op,
                 static_cast<std::uint16_t>(v.pcpu()));
    queue().scheduleAt(t3, [t3, done] { done(t3); });
}

Cycles
XenX86::injectIntoRunning(Cycles t, Vcpu &v, Done done)
{
    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(s.current == &v && s.inGuest,
                   "injectIntoRunning: ", v.name(), " not running");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const CostModel &cm = mach.costs();

    Cycles c = cm.vmexitHw;
    c += cm.irqChipRegAccess; // APIC ack
    c += params.xenIrqDispatch;
    c += cm.irqChipRegAccess; // APIC EOI
    const IrqId virq = dist(v.vm()).popPending(v.id());
    if (virq >= 0)
        c += mach.apic().injectVirq(t, v.pcpu(), virq);
    c += cm.vmentryHw;
    c += cm.irqChipRegAccess + params.guestIrqDispatch;
    const IrqId acked = mach.apic().guestAckVirq(v.pcpu());

    const Cycles t1 = cpu.charge(t, c);
    queue().scheduleAt(t1, [t1, done] { done(t1); });
    // HVM guest EOI traps (no vAPIC): charged after the handler.
    if (acked >= 0 && !mach.apic().vApicEnabled()) {
        cpu.charge(t1, cm.vmexitHw + params.eoiEmulation +
                           cm.vmentryHw);
        machineMetrics().counter(xenX86Taps().virqCompleteTrap).inc();
    }
    return t1;
}

void
XenX86::injectVirq(Cycles t, Vcpu &v, IrqId virq, Done done)
{
    dist(v.vm()).setPending(v.id(), virq);
    machineMetrics().counter(xenX86Taps().virqInjected).inc();
    vmMetrics(v.vm()).counter(xenX86Taps().virqInjected).inc();

    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    if (s.current == &v && s.inGuest) {
        kickActions[static_cast<std::size_t>(v.pcpu())].push_back(
            [this, &v, done](Cycles th) {
                injectIntoRunning(th, v, done);
            });
        mach.apic().sendIpi(t, v.pcpu(), sgiRescheduleIrq);
        return;
    }
    kickActions[static_cast<std::size_t>(v.pcpu())].push_back(
        [this, &v, done](Cycles th) {
            const Cycles tr = ensureRunning(th, v);
            PhysicalCpu &cpu = mach.cpu(v.pcpu());
            const Cycles ta = cpu.charge(
                tr,
                mach.costs().irqChipRegAccess + params.guestIrqDispatch);
            mach.apic().guestAckVirq(v.pcpu());
            queue().scheduleAt(ta, [ta, done] { done(ta); });
        });
    mach.apic().sendIpi(t, v.pcpu(), sgiRescheduleIrq);
}

void
XenX86::virtualIpi(Cycles t, Vcpu &src, Vcpu &dst, Done done)
{
    VIRTSIM_ASSERT(src.pcpu() != dst.pcpu(),
                   "virtual IPI microbenchmark requires distinct pcpus");
    machineMetrics().counter(xenX86Taps().virtualIpis).inc();
    const Cycles t1 = trapToXen(t, src);
    PhysicalCpu &scpu = mach.cpu(src.pcpu());
    const Cycles t2 = scpu.charge(
        t1, params.apicEmulation + params.kickPath +
                mach.costs().irqChipRegAccess);
    Done wrapped = [this, t, track = static_cast<std::uint16_t>(src.pcpu()),
                    done](Cycles ta) {
        trace().span(t, ta, xenX86Taps().opVipi, TraceCat::Op, track);
        done(ta);
    };
    injectVirq(t2, dst, sgiRescheduleIrq + 8, std::move(wrapped));
    resumeVm(t2, src);
}

void
XenX86::virqComplete(Cycles t, Vcpu &v, Done done)
{
    if (mach.apic().vApicEnabled()) {
        PhysicalCpu &cpu = mach.cpu(v.pcpu());
        const Cycles t1 =
            cpu.charge(t, mach.costs().irqChipRegAccess);
        machineMetrics().counter(xenX86Taps().virqCompleteVapic).inc();
        queue().scheduleAt(t1, [t1, done] { done(t1); });
        return;
    }
    const Cycles t1 = trapToXen(t, v);
    const Cycles t2 =
        mach.cpu(v.pcpu()).charge(t1, params.eoiEmulation);
    const Cycles t3 = resumeVm(t2, v);
    machineMetrics().counter(xenX86Taps().virqCompleteTrap).inc();
    vmMetrics(v.vm()).histogram(xenX86Taps().trapEoi).add(t3 - t);
    queue().scheduleAt(t3, [t3, done] { done(t3); });
}

void
XenX86::vmSwitch(Cycles t, Vcpu &from, Vcpu &to, Done done)
{
    VIRTSIM_ASSERT(from.pcpu() == to.pcpu(),
                   "vm switch is a same-pcpu operation");
    PhysicalCpu &cpu = mach.cpu(from.pcpu());
    const Cycles t1 = cpu.charge(t, mach.costs().vmexitHw);
    auto &s = sched[static_cast<std::size_t>(from.pcpu())];
    s.inGuest = false;
    from.setState(VcpuState::Idle);
    const Cycles t2 = switchDomains(t1, &from, to, true);
    machineMetrics().counter(xenX86Taps().vmSwitches).inc();
    vmMetrics(to.vm()).histogram(xenX86Taps().trapVmSwitch)
        .add(t2 - t);
    trace().span(t, t2, xenX86Taps().opVmSwitch, TraceCat::Op,
                 static_cast<std::uint16_t>(from.pcpu()));
    queue().scheduleAt(t2, [t2, done] { done(t2); });
}

void
XenX86::ioSignalOut(Cycles t, Vcpu &v, Done done)
{
    VIRTSIM_ASSERT(_netback, "ioSignalOut requires an attached vNIC");
    const Cycles t1 = trapToXen(t, v);
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const Cycles t2 = cpu.charge(t1, evtchn->notify(portDom0));
    machineMetrics().counter(xenX86Taps().ioSignalOut).inc();

    Vcpu &d0 = dom0Vcpu();
    Done wrapped = [this, t, track = static_cast<std::uint16_t>(v.pcpu()),
                    done](Cycles ta) {
        trace().span(t, ta, xenX86Taps().opIoOut, TraceCat::Op, track);
        done(ta);
    };
    kickActions[static_cast<std::size_t>(d0.pcpu())].push_back(
        [this, &d0, done = std::move(wrapped)](Cycles th) {
            const Cycles tr = ensureRunning(th, d0);
            PhysicalCpu &dcpu = mach.cpu(d0.pcpu());
            const Cycles t3 = dcpu.charge(
                tr, mach.costs().irqChipRegAccess +
                        params.guestIrqDispatch + params.backendDequeue);
            mach.apic().guestAckVirq(d0.pcpu());
            queue().scheduleAt(t3, [t3, done] { done(t3); });
        });
    mach.apic().sendIpi(t2, d0.pcpu(), sgiRescheduleIrq);
    resumeVm(t2, v);
}

void
XenX86::ioSignalIn(Cycles t, Vcpu &v, Done done)
{
    VIRTSIM_ASSERT(_netback, "ioSignalIn requires an attached vNIC");
    Vcpu &d0 = dom0Vcpu();
    const Cycles tr = ensureRunning(t, d0);
    const Cycles t1 = trapToXen(tr, d0);
    PhysicalCpu &dcpu = mach.cpu(d0.pcpu());
    const Cycles t2 = dcpu.charge(t1, evtchn->notify(portDomU));
    machineMetrics().counter(xenX86Taps().ioSignalIn).inc();
    Done wrapped = [this, t, track = static_cast<std::uint16_t>(v.pcpu()),
                    done](Cycles ta) {
        trace().span(t, ta, xenX86Taps().opIoIn, TraceCat::Op, track);
        done(ta);
    };
    injectVirq(t2, v, spiNicIrq, std::move(wrapped));
    resumeVm(t2, d0);
}

void
XenX86::declareShardChannels(ShardedEventKernel &kern)
{
    if (!_netback)
        return;
    const NetbackBackend::Params &np = _netback->params();
    // Same channel as Xen ARM: all netback work happens on Dom0's
    // CPU; only the tx kick crosses CPUs, via the IPI channels.
    _netback->bindWakeChannel(
        &kern.channel("netback.wake", cpuShard(np.dom0Pcpu),
                      cpuShard(np.dom0Pcpu), 0));
}

void
XenX86::attachVirtualNic(Vm &vm, NetbackBackend::Params np)
{
    VIRTSIM_ASSERT(!_netback, "only one virtual NIC supported");
    netVm = &vm;
    _netback = std::make_unique<NetbackBackend>(mach, *_dom0, vm, net,
                                                np);
    portDomU = evtchn->allocate();
    portDom0 = evtchn->allocate();
    for (int i = 0; i < 256; ++i) {
        PvRequest req;
        const BufferId buf = mach.memory().alloc(vm.name(), 4096);
        req.gref = _netback->grantTable().grant(buf, false);
        _netback->rxRing().frontPost(req);
    }
    mach.irqChip().routeExternal(spiNicIrq, np.dom0Pcpu);
}

void
XenX86::deliverPacketToVm(Cycles t, Vm &vm, const Packet &pkt, Done done)
{
    VIRTSIM_ASSERT(_netback && netVm == &vm,
                   "deliverPacketToVm: vm has no attached vNIC");
    _netback->dom0RxToDomU(t, pkt, true,
                           [this, &vm, pkt, done](Cycles tr) {
                               notifyGuestRx(tr, vm, pkt, done);
                           });
}

void
XenX86::notifyGuestRx(Cycles t, Vm &vm, const Packet &pkt, Done done)
{
    const VcpuId target = pickVirqTarget(vm);
    Vcpu &v = vm.vcpu(target);
    const int frames = framesFor(pkt.bytes);

    auto guest_pop = [this, &vm, pkt, frames, done, target](Cycles ti) {
        PhysicalCpu &vcpu_cpu = mach.cpu(vm.vcpu(target).pcpu());
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
        machineMetrics().counter(xenX86Taps().rxEventSuppressed).inc();
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
XenX86::guestTransmit(Cycles t, Vcpu &v, const Packet &pkt, Done done)
{
    VIRTSIM_ASSERT(_netback, "guestTransmit requires an attached vNIC");
    if (_netback->txRing().full()) {
        // Ring full: netfront blocks the frame until netback frees
        // slots (TCP backpressure).
        txBacklog.emplace_back(&v, std::make_pair(pkt, std::move(done)));
        machineMetrics().counter(xenX86Taps().txBackpressure).inc();
        return;
    }
    PhysicalCpu &cpu = mach.cpu(v.pcpu());

    const std::uint32_t pages4k = (pkt.bytes + 4095) / 4096;
    const Cycles grant_cost =
        static_cast<Cycles>(pages4k == 0 ? 1 : pages4k) *
        params.grantSetup;
    PvRequest req;
    req.pkt = pkt;
    const BufferId buf = mach.memory().alloc(v.vm().name(), pkt.bytes);
    req.gref = _netback->grantTable().grant(buf, true);
    const Cycles c = grant_cost + _netback->txRing().frontPost(req);
    const Cycles t0 = cpu.charge(t, c);
    txDone[pkt.seq] = std::move(done);
    txBufs[pkt.seq] = std::make_pair(req.gref, buf);

    if (txPumpActive) {
        machineMetrics().counter(xenX86Taps().txKickSuppressed).inc();
        return;
    }

    const Cycles t1 = trapToXen(t0, v);
    const Cycles t2 = cpu.charge(t1, evtchn->notify(portDom0));
    resumeVm(t2, v);

    Vcpu &d0 = dom0Vcpu();
    txPumpActive = true;
    kickActions[static_cast<std::size_t>(d0.pcpu())].push_back(
        [this, &d0](Cycles th) {
            const Cycles tr = ensureRunning(th, d0);
            PhysicalCpu &dcpu = mach.cpu(d0.pcpu());
            const Cycles t3 = dcpu.charge(
                tr, mach.costs().irqChipRegAccess +
                        params.guestIrqDispatch + params.backendDequeue);
            mach.apic().guestAckVirq(d0.pcpu());
            _netback->markTxKick();
            pumpTx(t3);
        });
    mach.apic().sendIpi(t2, d0.pcpu(), sgiRescheduleIrq);
}

void
XenX86::pumpTx(Cycles t)
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
XenX86::dom0Vcpu()
{
    return _dom0->vcpu(0);
}

void
XenX86::scheduleDom0IdleCheck(Cycles t)
{
    Vcpu &d0 = dom0Vcpu();
    const PcpuId p = d0.pcpu();
    const std::uint64_t gen = ++idleGen;
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
        machineMetrics().counter(xenX86Taps().dom0Blocked).inc();
    });
}

void
XenX86::onPhysIrq(Cycles t, PcpuId cpu, IrqId irq)
{
    if (irq == sgiRescheduleIrq) {
        handleKick(t, cpu);
        return;
    }
    if (irq == spiNicIrq) {
        handleNicIrq(t, cpu);
        return;
    }
    machineMetrics().counter(xenX86Taps().unhandledPhysIrq).inc();
}

void
XenX86::handleKick(Cycles t, PcpuId cpu)
{
    auto &q = kickActions[static_cast<std::size_t>(cpu)];
    if (q.empty()) {
        machineMetrics().counter(xenX86Taps().spuriousKick).inc();
        return;
    }
    auto action = std::move(q.front());
    q.pop_front();
    action(t);
}

void
XenX86::handleNicIrq(Cycles t, PcpuId cpu)
{
    if (!netVm)
        return;
    PhysicalCpu &xcpu = mach.cpu(cpu);
    const CostModel &cm = mach.costs();
    const Cycles t1 = xcpu.charge(
        t, cm.irqChipRegAccess + params.xenIrqDispatch +
               cm.irqChipRegAccess);

    Vcpu &d0 = dom0Vcpu();
    const Cycles t2 = ensureRunning(t1, d0);
    PhysicalCpu &dcpu = mach.cpu(d0.pcpu());
    const Cycles t3 = dcpu.charge(
        t2, cm.irqChipRegAccess + net.irqPath);
    mach.apic().guestAckVirq(d0.pcpu());

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
XenX86::forceDom0Running()
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
XenX86::forceDom0Idle()
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
XenX86::blockVcpu(Vcpu &v)
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
    machineMetrics().counter(xenX86Taps().vcpuBlocked).inc();
}

} // namespace virtsim
