#include "hv/kvm_x86.hh"

#include "os/kernel.hh"
#include "sim/log.hh"
#include "sim/probe.hh"

namespace virtsim {

namespace {

/** KVM x86 instrumentation taps, interned once per process. */
struct KvmX86Taps
{
    TapId worldSwitch = internTap("kvm.world_switch");
    TapId trapHypercall = internTap("kvm.trap.hypercall");
    TapId trapIrqchip = internTap("kvm.trap.irqchip");
    TapId trapVipi = internTap("kvm.trap.vipi");
    TapId trapVmSwitch = internTap("kvm.trap.vm_switch");
    TapId trapEoi = internTap("kvm.trap.eoi");
    TapId virqInjected = internTap("kvm.virq_injected");
    // Guest-visible operation envelopes, shared across hypervisors so
    // differential reports line up by name.
    TapId opHypercall = internTap("op.hypercall");
    TapId opIrqTrap = internTap("op.irq_trap");
    TapId opVipi = internTap("op.vipi");
    TapId opVmSwitch = internTap("op.vm_switch");
    TapId opIoOut = internTap("op.io_out");
    TapId opIoIn = internTap("op.io_in");
    /** Machine-domain event counters. */
    TapId vmExits = internTap("kvm.vm_exits");
    TapId vmEntries = internTap("kvm.vm_entries");
    TapId hypercalls = internTap("kvm.hypercalls");
    TapId irqchipTraps = internTap("kvm.irqchip_traps");
    TapId spuriousWakeup = internTap("kvm.spurious_wakeup");
    TapId virqCompleteTrap = internTap("kvm.virq_complete_trap");
    TapId virtualIpis = internTap("kvm.virtual_ipis");
    TapId virqCompleteVapic = internTap("kvm.virq_complete_vapic");
    TapId vmSwitches = internTap("kvm.vm_switches");
    TapId ioSignalOut = internTap("kvm.io_signal_out");
    TapId ioSignalIn = internTap("kvm.io_signal_in");
    TapId rxNotificationSuppressed =
        internTap("kvm.rx_notification_suppressed");
    TapId txBackpressure = internTap("kvm.tx_backpressure");
    TapId txKickSuppressed = internTap("kvm.tx_kick_suppressed");
    TapId unhandledPhysIrq = internTap("kvm.unhandled_phys_irq");
};

constexpr auto &kvmX86Taps = tapsOf<KvmX86Taps>;

} // namespace

KvmX86::KvmX86(Machine &m)
    : Hypervisor(m),
      hostCtx(static_cast<std::size_t>(m.numCpus())),
      kickActions(static_cast<std::size_t>(m.numCpus())),
      net(NetstackCosts::linux(m.freq()))
{
    VIRTSIM_ASSERT(m.arch() == Arch::X86, "KvmX86 needs an x86 machine");
    kvmX86Taps();
    for (std::size_t i = 0; i < hostCtx.size(); ++i)
        hostCtx[i].regs.fillPattern(0x860000 + i);
}

Vm &
KvmX86::createVm(const std::string &name, int n_vcpus,
                 const std::vector<PcpuId> &pinning)
{
    Vm &vm = Hypervisor::createVm(name, n_vcpus, pinning);
    dists[vm.id()] = std::make_unique<VgicDistributor>(vm);
    return vm;
}

TapId
KvmX86::worldSwitchTap() const
{
    return kvmX86Taps().worldSwitch;
}

void
KvmX86::start()
{
    Hypervisor::start();
    mach.irqChip().setPhysIrqHandler(
        [this](Cycles t, PcpuId cpu, IrqId irq) {
            onPhysIrq(t, cpu, irq);
        });
    for (auto &vmp : _vms) {
        for (int i = 0; i < vmp->numVcpus(); ++i) {
            Vcpu &v = vmp->vcpu(i);
            auto &ctx = hostCtx[static_cast<std::size_t>(v.pcpu())];
            if (ctx.loaded == nullptr) {
                ctx.loaded = &v;
                ctx.inVm = true;
                v.setLoaded(true);
                v.setState(VcpuState::Running);
                mach.cpu(v.pcpu()).regs() = v.savedRegs();
                mach.cpu(v.pcpu()).setContext(v.name());
            }
        }
    }
}

VgicDistributor &
KvmX86::dist(Vm &vm)
{
    auto it = dists.find(vm.id());
    VIRTSIM_ASSERT(it != dists.end(), "no irq state for vm ", vm.name());
    return *it->second;
}

Cycles
KvmX86::exitToHost(Cycles t, Vcpu &v)
{
    auto &ctx = hostCtx[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(ctx.inVm && ctx.loaded == &v,
                   "exitToHost: ", v.name(), " not running");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    // The hardware saves the guest state block to the VMCS and loads
    // the host state as part of the exit itself — no software
    // save/restore choice, unlike ARM.
    v.savedRegs().copyClassFrom(cpu.regs(), RegClass::Gp);
    v.savedRegs().copyClassFrom(cpu.regs(), RegClass::Vmcs);
    cpu.regs().copyClassFrom(ctx.regs, RegClass::Gp);
    cpu.regs().copyClassFrom(ctx.regs, RegClass::Vmcs);
    const Cycles c = mach.costs().vmexitHw + params.exitDispatch;
    ctx.inVm = false;
    v.setState(VcpuState::InHyp);
    cpu.setMode(CpuMode::KernelRoot);
    cpu.setContext("host");
    machineMetrics().counter(kvmX86Taps().vmExits).inc();
    vmMetrics(v.vm()).counter(kvmX86Taps().worldSwitch).inc();
    cpuMetrics(v.pcpu()).counter(kvmX86Taps().worldSwitch).inc();
    return cpu.charge(t, c);
}

Cycles
KvmX86::enterVm(Cycles t, Vcpu &v)
{
    auto &ctx = hostCtx[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(!ctx.inVm, "enterVm: pcpu busy");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    ctx.regs.copyClassFrom(cpu.regs(), RegClass::Gp);
    ctx.regs.copyClassFrom(cpu.regs(), RegClass::Vmcs);

    // Pending virtual interrupts are injected through the VMCS
    // interrupt-information field on entry.
    Cycles inject = 0;
    VgicDistributor &d = dist(v.vm());
    if (d.hasPending(v.id())) {
        const IrqId virq = d.popPending(v.id());
        inject = mach.apic().injectVirq(t, v.pcpu(), virq);
    }

    cpu.regs().copyClassFrom(v.savedRegs(), RegClass::Gp);
    cpu.regs().copyClassFrom(v.savedRegs(), RegClass::Vmcs);
    const Cycles c = mach.costs().vmentryHw + inject;
    ctx.inVm = true;
    ctx.loaded = &v;
    v.setLoaded(true);
    v.setState(VcpuState::Running);
    cpu.setMode(CpuMode::KernelNonRoot);
    cpu.setContext(v.name());
    machineMetrics().counter(kvmX86Taps().vmEntries).inc();
    vmMetrics(v.vm()).counter(kvmX86Taps().worldSwitch).inc();
    cpuMetrics(v.pcpu()).counter(kvmX86Taps().worldSwitch).inc();
    return cpu.charge(t, c);
}

void
KvmX86::hypercall(Cycles t, Vcpu &v, Done done)
{
    const Cycles t1 = exitToHost(t, v);
    const Cycles t2 =
        mach.cpu(v.pcpu()).charge(t1, params.hypercallHandler);
    const Cycles t3 = enterVm(t2, v);
    machineMetrics().counter(kvmX86Taps().hypercalls).inc();
    vmMetrics(v.vm()).histogram(kvmX86Taps().trapHypercall)
        .add(t3 - t);
    trace().span(t, t3, kvmX86Taps().opHypercall, TraceCat::Op,
                 static_cast<std::uint16_t>(v.pcpu()));
    queue().scheduleAt(t3, [t3, done] { done(t3); });
}

void
KvmX86::irqControllerTrap(Cycles t, Vcpu &v, Done done)
{
    const Cycles t1 = exitToHost(t, v);
    const Cycles t2 =
        mach.cpu(v.pcpu()).charge(t1, params.apicEmulation);
    const Cycles t3 = enterVm(t2, v);
    machineMetrics().counter(kvmX86Taps().irqchipTraps).inc();
    vmMetrics(v.vm()).histogram(kvmX86Taps().trapIrqchip)
        .add(t3 - t);
    trace().span(t, t3, kvmX86Taps().opIrqTrap, TraceCat::Op,
                 static_cast<std::uint16_t>(v.pcpu()));
    queue().scheduleAt(t3, [t3, done] { done(t3); });
}

Cycles
KvmX86::flushAndResume(Cycles t, Vcpu &v, Done done)
{
    const Cycles te = enterVm(t, v);
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const IrqId virq = mach.apic().guestAckVirq(v.pcpu());
    if (virq < 0)
        machineMetrics().counter(kvmX86Taps().spuriousWakeup).inc();
    const Cycles ta = cpu.charge(
        te, mach.costs().irqChipRegAccess + params.guestIrqDispatch);
    queue().scheduleAt(ta, [ta, done] { done(ta); });
    // The handler's EOI write traps on vAPIC-less hardware: a full
    // exit round trip per delivered interrupt, charged after the
    // measurement endpoint — it shows up in application results,
    // not in Table II's delivery latency.
    if (virq >= 0 && !mach.apic().vApicEnabled()) {
        cpu.charge(ta, mach.costs().vmexitHw + params.eoiEmulation +
                           mach.costs().vmentryHw);
        machineMetrics().counter(kvmX86Taps().virqCompleteTrap).inc();
    }
    return ta;
}

void
KvmX86::injectVirq(Cycles t, Vcpu &v, IrqId virq, Done done)
{
    dist(v.vm()).setPending(v.id(), virq);
    machineMetrics().counter(kvmX86Taps().virqInjected).inc();
    vmMetrics(v.vm()).counter(kvmX86Taps().virqInjected).inc();

    switch (v.state()) {
      case VcpuState::Running: {
        kickActions[static_cast<std::size_t>(v.pcpu())].push_back(
            [this, &v, done](Cycles th) {
                flushAndResume(th, v, done);
            });
        mach.apic().sendIpi(t, v.pcpu(), sgiRescheduleIrq);
        break;
      }
      case VcpuState::Idle: {
        PhysicalCpu &cpu = mach.cpu(v.pcpu());
        const Cycles tw = cpu.charge(t, params.vcpuWakeFromIdle);
        flushAndResume(tw, v, done);
        break;
      }
      case VcpuState::InHyp: {
        PhysicalCpu &cpu = mach.cpu(v.pcpu());
        const Cycles tw =
            cpu.charge(t, mach.costs().listRegWrite);
        queue().scheduleAt(tw, [tw, done] { done(tw); });
        break;
      }
    }
}

void
KvmX86::virtualIpi(Cycles t, Vcpu &src, Vcpu &dst, Done done)
{
    VIRTSIM_ASSERT(src.pcpu() != dst.pcpu(),
                   "virtual IPI microbenchmark requires distinct pcpus");
    machineMetrics().counter(kvmX86Taps().virtualIpis).inc();
    // ICR write traps; emulation + kick in the host.
    const Cycles t1 = exitToHost(t, src);
    PhysicalCpu &scpu = mach.cpu(src.pcpu());
    const Cycles t2 = scpu.charge(
        t1, params.apicEmulation + params.kickPath +
                mach.costs().irqChipRegAccess);
    vmMetrics(src.vm()).histogram(kvmX86Taps().trapVipi)
        .add(t2 - t);
    Done wrapped = [this, t, track = static_cast<std::uint16_t>(src.pcpu()),
                    done](Cycles ta) {
        trace().span(t, ta, kvmX86Taps().opVipi, TraceCat::Op, track);
        done(ta);
    };
    injectVirq(t2, dst, sgiRescheduleIrq + 8, std::move(wrapped));
    enterVm(t2, src);
}

void
KvmX86::virqComplete(Cycles t, Vcpu &v, Done done)
{
    // Without vAPIC the EOI write traps to the hypervisor — the ARM
    // vs x86 contrast of Table II (71 vs ~1.5k cycles).
    if (mach.apic().vApicEnabled()) {
        PhysicalCpu &cpu = mach.cpu(v.pcpu());
        const Cycles t1 =
            cpu.charge(t, mach.costs().irqChipRegAccess);
        machineMetrics().counter(kvmX86Taps().virqCompleteVapic).inc();
        queue().scheduleAt(t1, [t1, done] { done(t1); });
        return;
    }
    const Cycles t1 = exitToHost(t, v);
    const Cycles t2 =
        mach.cpu(v.pcpu()).charge(t1, params.eoiEmulation);
    const Cycles t3 = enterVm(t2, v);
    machineMetrics().counter(kvmX86Taps().virqCompleteTrap).inc();
    vmMetrics(v.vm()).histogram(kvmX86Taps().trapEoi).add(t3 - t);
    queue().scheduleAt(t3, [t3, done] { done(t3); });
}

void
KvmX86::vmSwitch(Cycles t, Vcpu &from, Vcpu &to, Done done)
{
    VIRTSIM_ASSERT(from.pcpu() == to.pcpu(),
                   "vm switch is a same-pcpu operation");
    const Cycles t1 = exitToHost(t, from);
    from.setState(VcpuState::Idle);
    from.setLoaded(false);
    const Cycles t2 = mach.cpu(from.pcpu())
                          .charge(t1, params.vcpuSwitchWork +
                                          mach.costs().vmcsSwitch);
    const Cycles t3 = enterVm(t2, to);
    machineMetrics().counter(kvmX86Taps().vmSwitches).inc();
    vmMetrics(to.vm()).histogram(kvmX86Taps().trapVmSwitch)
        .add(t3 - t);
    trace().span(t, t3, kvmX86Taps().opVmSwitch, TraceCat::Op,
                 static_cast<std::uint16_t>(from.pcpu()));
    queue().scheduleAt(t3, [t3, done] { done(t3); });
}

void
KvmX86::ioSignalOut(Cycles t, Vcpu &v, Done done)
{
    VIRTSIM_ASSERT(_vhost, "ioSignalOut requires an attached vNIC");
    // KVM x86's ioeventfd fast path: the kick is recognized and the
    // eventfd signalled inside the inner vmexit loop, before the full
    // exit dispatch, and the guest re-enters immediately — the
    // 560-cycle Table II standout.
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const Cycles t2 = cpu.charge(
        t, mach.costs().vmexitHw + params.ioeventfdSignal);
    cpu.charge(t2, mach.costs().vmentryHw);
    machineMetrics().counter(kvmX86Taps().ioSignalOut).inc();
    trace().span(t, t2, kvmX86Taps().opIoOut, TraceCat::Op,
                 static_cast<std::uint16_t>(v.pcpu()));
    queue().scheduleAt(t2, [t2, done] { done(t2); });
}

void
KvmX86::ioSignalIn(Cycles t, Vcpu &v, Done done)
{
    VIRTSIM_ASSERT(_vhost, "ioSignalIn requires an attached vNIC");
    PhysicalCpu &worker = mach.cpu(_vhost->params().workerPcpu);
    const Cycles t1 = worker.charge(t, params.irqfdInject);
    machineMetrics().counter(kvmX86Taps().ioSignalIn).inc();
    Done wrapped = [this, t, track = static_cast<std::uint16_t>(v.pcpu()),
                    done](Cycles ta) {
        trace().span(t, ta, kvmX86Taps().opIoIn, TraceCat::Op, track);
        done(ta);
    };
    injectVirq(t1, v, spiNicIrq, std::move(wrapped));
}

void
KvmX86::declareShardChannels(ShardedEventKernel &kern)
{
    if (!_vhost)
        return;
    const VhostBackend::Params &vp = _vhost->params();
    // Same channel set as KVM ARM: the vhost architecture is
    // identical, only the transition costs differ.
    _vhost->bindWakeChannel(
        &kern.channel("vhost.wake", cpuShard(vp.hostIrqPcpu),
                      cpuShard(vp.workerPcpu), 0));
    chIoeventfd = &kern.channel("kvm.ioeventfd", anyShard,
                                cpuShard(vp.workerPcpu),
                                params.vhostNotifyLatency);
}

void
KvmX86::attachVirtualNic(Vm &vm, VhostBackend::Params vp)
{
    VIRTSIM_ASSERT(!_vhost, "only one virtual NIC supported");
    netVm = &vm;
    _vhost = std::make_unique<VhostBackend>(mach, vm, net, vp);
    for (int i = 0; i < 256; ++i) {
        VirtioDesc d;
        d.buf = mach.memory().alloc(vm.name(), 2048);
        _vhost->rxRing().guestPost(d);
    }
    mach.irqChip().routeExternal(spiNicIrq, vp.hostIrqPcpu);
}

void
KvmX86::deliverPacketToVm(Cycles t, Vm &vm, const Packet &pkt, Done done)
{
    VIRTSIM_ASSERT(_vhost && netVm == &vm,
                   "deliverPacketToVm: vm has no attached vNIC");
    _vhost->hostRxToGuest(t, pkt, true,
                          [this, &vm, pkt, done](Cycles tr) {
                              notifyGuestRx(tr, vm, pkt, done);
                          });
}

void
KvmX86::notifyGuestRx(Cycles t, Vm &vm, const Packet &pkt, Done done)
{
    const VcpuId target = pickVirqTarget(vm);
    Vcpu &v = vm.vcpu(target);
    PhysicalCpu &cpu = mach.cpu(v.pcpu());

    auto guest_pop = [this, &vm, pkt, done](Cycles tg) {
        bool ok = false;
        VirtioDesc d;
        _vhost->rxRing().guestPopUsed(d, ok);
        if (ok)
            _vhost->rxRing().guestPost(d);
        if (onGuestRx)
            onGuestRx(tg, vm, pkt);
        done(tg);
    };

    if (v.state() != VcpuState::Idle && cpu.frontier() > t) {
        machineMetrics().counter(kvmX86Taps().rxNotificationSuppressed).inc();
        const Cycles tg = cpu.charge(t, params.guestDriverRxPop);
        queue().scheduleAt(tg, [tg, guest_pop] { guest_pop(tg); });
        return;
    }

    PhysicalCpu &worker = mach.cpu(_vhost->params().workerPcpu);
    const Cycles t1 = worker.charge(t, params.irqfdInject);
    injectVirq(t1, v, spiNicIrq,
               [this, &v, guest_pop](Cycles ti) {
                   const Cycles tg = mach.cpu(v.pcpu())
                                         .charge(ti,
                                                 params.guestDriverRxPop);
                   queue().scheduleAt(tg,
                                      [tg, guest_pop] { guest_pop(tg); });
               });
}

void
KvmX86::guestTransmit(Cycles t, Vcpu &v, const Packet &pkt, Done done)
{
    VIRTSIM_ASSERT(_vhost, "guestTransmit requires an attached vNIC");
    if (_vhost->txRing().availFull()) {
        // Ring full: the virtio driver stops the queue until the
        // backend frees descriptors (TCP backpressure).
        txBacklog.emplace_back(&v, std::make_pair(pkt, std::move(done)));
        machineMetrics().counter(kvmX86Taps().txBackpressure).inc();
        return;
    }
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    VirtioDesc d;
    d.buf = invalidBuffer;
    d.pkt = pkt;
    const Cycles c = _vhost->txRing().guestPost(d) + 130;
    const Cycles t0 = cpu.charge(t, c);
    txDone[pkt.seq] = std::move(done);

    if (txPumpActive) {
        machineMetrics().counter(kvmX86Taps().txKickSuppressed).inc();
        return;
    }

    const Cycles t1 = exitToHost(t0, v);
    const Cycles t2 = cpu.charge(t1, params.ioeventfdSignal);
    enterVm(t2, v);
    PhysicalCpu &worker = mach.cpu(_vhost->params().workerPcpu);
    const Cycles t3 = worker.charge(t2, params.vhostNotifyLatency);
    txPumpActive = true;
    EventFn kick = [this, t3] { pumpTx(t3); };
    if (chIoeventfd)
        chIoeventfd->send(t3, std::move(kick));
    else
        queue().scheduleAt(t3, std::move(kick));
}

void
KvmX86::pumpTx(Cycles t)
{
    if (_vhost->txRing().availDepth() == 0) {
        txPumpActive = false;
        return;
    }
    _vhost->txFromGuest(t, [this](Cycles td, const Packet &pkt) {
        auto it = txDone.find(pkt.seq);
        if (it != txDone.end()) {
            Done done = std::move(it->second);
            txDone.erase(it);
            done(td);
        }
        mach.nic().transmit(td, pkt);
        while (!txBacklog.empty() && !_vhost->txRing().availFull()) {
            auto item = std::move(txBacklog.front());
            txBacklog.pop_front();
            guestTransmit(td, *item.first, item.second.first,
                          std::move(item.second.second));
        }
        pumpTx(td);
    });
}

void
KvmX86::onPhysIrq(Cycles t, PcpuId cpu, IrqId irq)
{
    if (irq == sgiRescheduleIrq) {
        handleKick(t, cpu);
        return;
    }
    if (irq == spiNicIrq) {
        handleNicIrq(t, cpu);
        return;
    }
    machineMetrics().counter(kvmX86Taps().unhandledPhysIrq).inc();
}

void
KvmX86::handleKick(Cycles t, PcpuId cpu)
{
    auto &ctx = hostCtx[static_cast<std::size_t>(cpu)];
    auto &q = kickActions[static_cast<std::size_t>(cpu)];

    if (ctx.inVm && ctx.loaded) {
        Vcpu &v = *ctx.loaded;
        Cycles th = exitToHost(t, v);
        th = mach.cpu(cpu).charge(th, params.hostIpiHandler);
        if (q.empty()) {
            enterVm(th, v);
            return;
        }
        auto action = std::move(q.front());
        q.pop_front();
        action(th);
        return;
    }
    const Cycles th =
        mach.cpu(cpu).charge(t, mach.costs().irqEntryExit);
    if (!q.empty()) {
        auto action = std::move(q.front());
        q.pop_front();
        action(th);
    }
}

void
KvmX86::handleNicIrq(Cycles t, PcpuId cpu)
{
    if (!netVm)
        return;
    PhysicalCpu &irq_cpu = mach.cpu(cpu);
    const Cycles t1 = irq_cpu.charge(t, net.irqPath);
    const auto aggs = groDrain(mach.nic(), net.groFrames);
    for (const auto &agg : aggs) {
        if (onHostDatalinkRx)
            onHostDatalinkRx(t1, agg);
        deliverPacketToVm(t1, *netVm, agg, [](Cycles) {});
    }
}


void
KvmX86::blockVcpu(Vcpu &v)
{
    auto &ctx = hostCtx[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(ctx.loaded == &v,
                   "blockVcpu: ", v.name(), " not loaded");
    // Guest blocked: the VCPU thread sits in the host run loop; the
    // PCPU is in host context awaiting a wakeup.
    ctx.inVm = false;
    v.setState(VcpuState::Idle);
    mach.cpu(v.pcpu()).setContext("host (vcpu blocked)");
}

} // namespace virtsim
