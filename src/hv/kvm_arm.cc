#include "hv/kvm_arm.hh"

#include "os/kernel.hh"
#include "sim/log.hh"

namespace virtsim {

namespace {

/** KVM instrumentation taps, interned once per process. */
struct KvmTaps
{
    TapId exit = internTap("kvm.exit");
    TapId enter = internTap("kvm.enter");
    TapId worldSwitch = internTap("kvm.world_switch");
    TapId trapHypercall = internTap("kvm.trap.hypercall");
    TapId trapIrqchip = internTap("kvm.trap.irqchip");
    TapId trapVipi = internTap("kvm.trap.vipi");
    TapId trapVmSwitch = internTap("kvm.trap.vm_switch");
    TapId trapIoOut = internTap("kvm.trap.io_out");
    TapId ioIn = internTap("kvm.io_in");
    TapId virqInjected = internTap("kvm.virq_injected");
    TapId txKick = internTap("kvm.io.tx_kick");
    TapId rxDeliver = internTap("kvm.io.rx_deliver");
    /** Guest-visible operation envelopes (TraceCat::Op): emitted
     *  after their constituent spans so sim/attrib can parent by
     *  interval containment and count operations. Names are shared
     *  with the other hypervisors so differential reports align. */
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
    TapId virtualIpis = internTap("kvm.virtual_ipis");
    TapId vmSwitches = internTap("kvm.vm_switches");
    TapId ioSignalOut = internTap("kvm.io_signal_out");
    TapId ioSignalIn = internTap("kvm.io_signal_in");
    TapId rxNotificationSuppressed =
        internTap("kvm.rx_notification_suppressed");
    TapId txBackpressure = internTap("kvm.tx_backpressure");
    TapId txKickSuppressed = internTap("kvm.tx_kick_suppressed");
    TapId unhandledPhysIrq = internTap("kvm.unhandled_phys_irq");
};

constexpr auto &kvmTaps = tapsOf<KvmTaps>;

} // namespace

KvmArm::KvmArm(Machine &m)
    : Hypervisor(m),
      hostCtx(static_cast<std::size_t>(m.numCpus())),
      kickActions(static_cast<std::size_t>(m.numCpus())),
      net(NetstackCosts::linux(m.freq()))
{
    VIRTSIM_ASSERT(m.arch() == Arch::Arm, "KvmArm needs an ARM machine");
    kvmTaps();
    // Give every physical CPU a distinguishable host context so that
    // isolation tests can detect cross-context leaks.
    for (std::size_t i = 0; i < hostCtx.size(); ++i)
        hostCtx[i].regs.fillPattern(0x405700 + i);
}

Vm &
KvmArm::createVm(const std::string &name, int n_vcpus,
                 const std::vector<PcpuId> &pinning)
{
    Vm &vm = Hypervisor::createVm(name, n_vcpus, pinning);
    dists[vm.id()] = std::make_unique<VgicDistributor>(vm);
    return vm;
}

TapId
KvmArm::worldSwitchTap() const
{
    return kvmTaps().worldSwitch;
}

void
KvmArm::start()
{
    Hypervisor::start();
    mach.irqChip().setPhysIrqHandler(
        [this](Cycles t, PcpuId cpu, IrqId irq) {
            onPhysIrq(t, cpu, irq);
        });
    // Load the first VM's VCPUs onto their physical CPUs; they begin
    // executing guest code at t=0 (initial condition, not charged).
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
KvmArm::dist(Vm &vm)
{
    auto it = dists.find(vm.id());
    VIRTSIM_ASSERT(it != dists.end(), "no vgic for vm ", vm.name());
    return *it->second;
}

Cycles
KvmArm::exitToHost(Cycles t, Vcpu &v)
{
    auto &ctx = hostCtx[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(ctx.inVm && ctx.loaded == &v,
                   "exitToHost: ", v.name(), " not running on pcpu ",
                   v.pcpu());
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const CostModel &cm = mach.costs();

    // Trap to the EL2 lowvisor and dispatch.
    Cycles c = cm.trapToEl2 + params.el2Dispatch;
    // Save the complete VM state to memory — including reading the
    // VGIC state back from the interrupt controller, the dominant
    // term (Table III). The host's EL1 state is re-established as
    // part of the same sequence.
    c += wse.save(cpu, v.savedRegs(), kvmArmSwitchedState, t + c);
    // The host needs full hardware access: disable Stage-2 and traps.
    c += cm.stage2Toggle;
    // Return to the host kernel in EL1 (second half of the double
    // trap).
    c += cm.eretToEl1;

    // Host register values become live (transfer cost accounted
    // above, in the measured per-class numbers).
    for (RegClass cls : {RegClass::Gp, RegClass::Fp, RegClass::El1Sys,
                         RegClass::Timer})
        cpu.regs().copyClassFrom(ctx.regs, cls);

    ctx.inVm = false;
    v.setState(VcpuState::InHyp);
    cpu.setMode(CpuMode::El1);
    cpu.setContext("host");
    machineMetrics().counter(kvmTaps().vmExits).inc();
    const Cycles tr = cpu.charge(t, c);
    const KvmTaps &taps = kvmTaps();
    trace().span(t, tr, taps.exit, TraceCat::Switch,
                 static_cast<std::uint16_t>(v.pcpu()), c);
    vmMetrics(v.vm()).counter(taps.worldSwitch).inc();
    cpuMetrics(v.pcpu()).counter(taps.worldSwitch).inc();
    return tr;
}

Cycles
KvmArm::enterVm(Cycles t, Vcpu &v)
{
    auto &ctx = hostCtx[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(!ctx.inVm, "enterVm: pcpu ", v.pcpu(),
                   " already in a VM");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const CostModel &cm = mach.costs();

    // Preserve the host's live EL1 values before the guest's own
    // state overwrites them.
    for (RegClass cls : {RegClass::Gp, RegClass::Fp, RegClass::El1Sys,
                         RegClass::Timer})
        ctx.regs.copyClassFrom(cpu.regs(), cls);

    // Any software-pending virtual interrupts get flushed into the
    // hardware list registers before entry.
    Cycles flush = 0;
    VgicDistributor &d = dist(v.vm());
    while (d.hasPending(v.id())) {
        const IrqId virq = d.popPending(v.id());
        if (mach.gic().injectVirq(t, v.pcpu(), virq) < 0) {
            // No free list register; keep it software-pending.
            d.setPending(v.id(), virq);
            break;
        }
        flush += mach.gic().lrWriteCost();
    }

    Cycles c = cm.trapToEl2 + params.el2Dispatch + flush;
    c += wse.restore(cpu, v.savedRegs(), kvmArmSwitchedState, t + c);
    c += cm.stage2Toggle; // re-enable Stage-2 translation and traps
    c += cm.eretToEl1;

    ctx.inVm = true;
    ctx.loaded = &v;
    v.setLoaded(true);
    v.setState(VcpuState::Running);
    cpu.setMode(CpuMode::El1);
    cpu.setContext(v.name());
    machineMetrics().counter(kvmTaps().vmEntries).inc();
    const Cycles tr = cpu.charge(t, c);
    const KvmTaps &taps = kvmTaps();
    trace().span(t, tr, taps.enter, TraceCat::Switch,
                 static_cast<std::uint16_t>(v.pcpu()), c);
    vmMetrics(v.vm()).counter(taps.worldSwitch).inc();
    cpuMetrics(v.pcpu()).counter(taps.worldSwitch).inc();
    return tr;
}

void
KvmArm::hypercall(Cycles t, Vcpu &v, Done done)
{
    const Cycles t1 = exitToHost(t, v);
    const Cycles t2 =
        mach.cpu(v.pcpu()).charge(t1, params.hypercallHandler);
    const Cycles t3 = enterVm(t2, v);
    machineMetrics().counter(kvmTaps().hypercalls).inc();
    vmMetrics(v.vm()).histogram(kvmTaps().trapHypercall).add(t3 - t);
    trace().span(t, t3, kvmTaps().opHypercall, TraceCat::Op,
                 static_cast<std::uint16_t>(v.pcpu()));
    queue().scheduleAt(t3, [t3, done] { done(t3); });
}

void
KvmArm::irqControllerTrap(Cycles t, Vcpu &v, Done done)
{
    // The distributor access traps to EL2, and because the emulation
    // lives in the host kernel (Figure 3), the exit must complete all
    // the way to host EL1.
    const Cycles t1 = exitToHost(t, v);
    const Cycles t2 =
        mach.cpu(v.pcpu()).charge(t1, params.vgicDistEmulation);
    const Cycles t3 = enterVm(t2, v);
    machineMetrics().counter(kvmTaps().irqchipTraps).inc();
    vmMetrics(v.vm()).histogram(kvmTaps().trapIrqchip).add(t3 - t);
    trace().span(t, t3, kvmTaps().opIrqTrap, TraceCat::Op,
                 static_cast<std::uint16_t>(v.pcpu()));
    queue().scheduleAt(t3, [t3, done] { done(t3); });
}

Cycles
KvmArm::flushAndResume(Cycles t, Vcpu &v, Done done)
{
    // Host context on v's pcpu: program the list register(s) and
    // world-switch back into the VM; the guest then acknowledges the
    // interrupt from its virtual CPU interface and dispatches.
    const Cycles te = enterVm(t, v);
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const IrqId virq = mach.gic().guestAckVirq(v.pcpu(), te);
    Cycles c = mach.gic().guestAckCost() + params.guestIrqDispatch;
    if (virq < 0)
        machineMetrics().counter(kvmTaps().spuriousWakeup).inc();
    const Cycles ta = cpu.charge(te, c);
    queue().scheduleAt(ta, [ta, done] { done(ta); });
    // After the handler runs the guest completes the interrupt — the
    // 71-cycle hardware fast path — freeing the list register. This
    // trails the measurement endpoint (handler entry), as in the
    // paper's methodology.
    if (virq >= 0)
        cpu.charge(ta, mach.gic().guestCompleteVirq(v.pcpu(), virq));
    return ta;
}

void
KvmArm::injectVirq(Cycles t, Vcpu &v, IrqId virq, Done done)
{
    VgicDistributor &d = dist(v.vm());
    d.setPending(v.id(), virq);
    machineMetrics().counter(kvmTaps().virqInjected).inc();
    vmMetrics(v.vm()).counter(kvmTaps().virqInjected).inc();
    trace().instant(t, kvmTaps().virqInjected, TraceCat::Irq,
                    static_cast<std::uint16_t>(v.pcpu()),
                    static_cast<std::uint64_t>(virq));

    switch (v.state()) {
      case VcpuState::Running: {
        // Target is executing guest code: kick it with a physical
        // SGI; the receiver-side action completes the injection.
        kickActions[static_cast<std::size_t>(v.pcpu())].push_back(
            [this, &v, done](Cycles th) {
                flushAndResume(th, v, done);
            });
        mach.gic().sendIpi(t, v.pcpu(), sgiRescheduleIrq);
        break;
      }
      case VcpuState::Idle: {
        // Blocked VCPU thread: the full wake path — cross-CPU
        // wake_up, idle exit, schedule, KVM run-loop re-entry — then
        // world switch in.
        PhysicalCpu &cpu = mach.cpu(v.pcpu());
        const Cycles tw = cpu.charge(t, params.vcpuWakeFromIdle);
        flushAndResume(tw, v, done);
        break;
      }
      case VcpuState::InHyp: {
        // Already in the hypervisor on its pcpu; the pending virq
        // rides along with the next VM entry. Approximate the
        // residual cost with the flush that entry will perform.
        PhysicalCpu &cpu = mach.cpu(v.pcpu());
        const Cycles tw = cpu.charge(t, mach.gic().lrWriteCost());
        queue().scheduleAt(tw, [tw, done] { done(tw); });
        break;
      }
    }
}

void
KvmArm::virtualIpi(Cycles t, Vcpu &src, Vcpu &dst, Done done)
{
    VIRTSIM_ASSERT(src.pcpu() != dst.pcpu(),
                   "virtual IPI microbenchmark requires distinct pcpus");
    machineMetrics().counter(kvmTaps().virtualIpis).inc();

    // Sender: the GICD_SGIR write traps; emulation happens in the
    // host kernel after a full exit.
    const Cycles t1 = exitToHost(t, src);
    PhysicalCpu &scpu = mach.cpu(src.pcpu());
    Cycles c = params.sgiEmulation;
    c += params.kickInitiate;
    c += mach.costs().irqChipRegAccess; // physical SGIR write
    const Cycles t2 = scpu.charge(t1, c);

    // The kick races ahead; the sender's own re-entry is off the
    // measured path but still consumes its CPU.
    vmMetrics(src.vm()).histogram(kvmTaps().trapVipi).add(t2 - t);
    // The operation envelope closes when the receiver dispatches its
    // handler — after every constituent span, as attribution needs.
    Done wrapped = [this, t,
                    track = static_cast<std::uint16_t>(src.pcpu()),
                    done](Cycles ta) {
        trace().span(t, ta, kvmTaps().opVipi, TraceCat::Op, track);
        done(ta);
    };
    injectVirq(t2, dst, sgiRescheduleIrq + 8, std::move(wrapped));
    enterVm(t2, src);
}

void
KvmArm::virqComplete(Cycles t, Vcpu &v, Done done)
{
    // The ARM fast path: the VM completes the interrupt directly via
    // the GIC virtual CPU interface. No trap (Table II: 71 cycles).
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
KvmArm::vmSwitch(Cycles t, Vcpu &from, Vcpu &to, Done done)
{
    VIRTSIM_ASSERT(from.pcpu() == to.pcpu(),
                   "vm switch is a same-pcpu operation");
    VIRTSIM_ASSERT(&from.vm() != &to.vm(), "vm switch between two VMs");
    // Exit to the host, let the host scheduler switch VCPU threads
    // (vcpu_put / vcpu_load), enter the other VM.
    const Cycles t1 = exitToHost(t, from);
    from.setState(VcpuState::Idle);
    from.setLoaded(false);
    const Cycles t2 =
        mach.cpu(from.pcpu()).charge(t1, params.vcpuSwitchWork);
    const Cycles t3 = enterVm(t2, to);
    machineMetrics().counter(kvmTaps().vmSwitches).inc();
    vmMetrics(to.vm()).histogram(kvmTaps().trapVmSwitch).add(t3 - t);
    trace().span(t, t3, kvmTaps().opVmSwitch, TraceCat::Op,
                 static_cast<std::uint16_t>(from.pcpu()));
    queue().scheduleAt(t3, [t3, done] { done(t3); });
}

void
KvmArm::ioSignalOut(Cycles t, Vcpu &v, Done done)
{
    VIRTSIM_ASSERT(_vhost, "ioSignalOut requires an attached vNIC");
    // Guest kick -> trap -> host ioeventfd signal -> vhost worker
    // notices. Measurement ends when the virtual device has the
    // signal (Table I).
    const Cycles t1 = exitToHost(t, v);
    const Cycles t2 =
        mach.cpu(v.pcpu()).charge(t1, params.ioeventfdSignal);
    enterVm(t2, v); // guest resumes; off the measured path
    PhysicalCpu &worker = mach.cpu(_vhost->params().workerPcpu);
    const Cycles t3 = worker.charge(t2, params.vhostNotifyLatency);
    machineMetrics().counter(kvmTaps().ioSignalOut).inc();
    vmMetrics(v.vm()).histogram(kvmTaps().trapIoOut).add(t3 - t);
    trace().span(t, t3, kvmTaps().opIoOut, TraceCat::Op,
                 static_cast<std::uint16_t>(v.pcpu()));
    queue().scheduleAt(t3, [t3, done] { done(t3); });
}

void
KvmArm::ioSignalIn(Cycles t, Vcpu &v, Done done)
{
    VIRTSIM_ASSERT(_vhost, "ioSignalIn requires an attached vNIC");
    // vhost signals the VM: irqfd from the worker's CPU, then the
    // injection path (wake or kick depending on the VCPU state).
    PhysicalCpu &worker = mach.cpu(_vhost->params().workerPcpu);
    const Cycles t1 = worker.charge(t, params.irqfdInject);
    machineMetrics().counter(kvmTaps().ioSignalIn).inc();
    trace().instant(t, kvmTaps().ioIn, TraceCat::Io,
                    static_cast<std::uint16_t>(v.pcpu()));
    Done wrapped = [this, t,
                    track = static_cast<std::uint16_t>(v.pcpu()),
                    done](Cycles ta) {
        trace().span(t, ta, kvmTaps().opIoIn, TraceCat::Op, track);
        done(ta);
    };
    injectVirq(t1, v, spiNicIrq, std::move(wrapped));
}

void
KvmArm::declareShardChannels(ShardedEventKernel &kern)
{
    if (!_vhost)
        return;
    const VhostBackend::Params &vp = _vhost->params();
    // Softirq-to-worker rx handoff: zero modelled latency, so the
    // host IRQ CPU and the vhost worker must share a lane (the kernel
    // checks at declaration).
    _vhost->bindWakeChannel(
        &kern.channel("vhost.wake", cpuShard(vp.hostIrqPcpu),
                      cpuShard(vp.workerPcpu), 0));
    // Guest tx kick: any VCPU may trap and signal the ioeventfd; the
    // kthread notify latency is the conservative lookahead that lets
    // the kick cross lanes.
    chIoeventfd = &kern.channel("kvm.ioeventfd", anyShard,
                                cpuShard(vp.workerPcpu),
                                params.vhostNotifyLatency);
}

void
KvmArm::attachVirtualNic(Vm &vm, VhostBackend::Params vp)
{
    VIRTSIM_ASSERT(!_vhost, "only one virtual NIC supported");
    netVm = &vm;
    _vhost = std::make_unique<VhostBackend>(mach, vm, net, vp);
    // The frontend pre-posts rx descriptors backed by guest buffers,
    // exactly like virtio-net keeps its rx ring replenished.
    for (int i = 0; i < 256; ++i) {
        VirtioDesc d;
        d.buf = mach.memory().alloc(vm.name(), 2048);
        _vhost->rxRing().guestPost(d);
    }
    // Physical NIC interrupts go to the host IRQ CPU.
    mach.irqChip().routeExternal(spiNicIrq, vp.hostIrqPcpu);
}

void
KvmArm::deliverPacketToVm(Cycles t, Vm &vm, const Packet &pkt, Done done)
{
    VIRTSIM_ASSERT(_vhost && netVm == &vm,
                   "deliverPacketToVm: vm has no attached vNIC");
    trace().instant(t, kvmTaps().rxDeliver, TraceCat::Io, noTrack,
                    pkt.seq);
    _vhost->hostRxToGuest(t, pkt, true,
                          [this, &vm, pkt, done](Cycles tr) {
                              notifyGuestRx(tr, vm, pkt, done);
                          });
}

void
KvmArm::notifyGuestRx(Cycles t, Vm &vm, const Packet &pkt, Done done)
{
    const VcpuId target = pickVirqTarget(vm);
    Vcpu &v = vm.vcpu(target);
    PhysicalCpu &cpu = mach.cpu(v.pcpu());

    auto guest_pop = [this, &vm, pkt, done](Cycles tg) {
        // Guest driver reaps the used descriptor and reposts it.
        bool ok = false;
        VirtioDesc d;
        _vhost->rxRing().guestPopUsed(d, ok);
        if (ok)
            _vhost->rxRing().guestPost(d);
        if (onGuestRx)
            onGuestRx(tg, vm, pkt);
        done(tg);
    };

    if (v.state() != VcpuState::Idle && t < rxQuietUntil) {
        // The guest's NAPI poll from a just-delivered notification is
        // still active: no further interrupt (virtio EVENT_IDX); the
        // poll loop reaps this descriptor too. Every event outside
        // the window pays a full interrupt — the per-event delivery
        // cost that saturates VCPU0 in Section V.
        machineMetrics().counter(kvmTaps().rxNotificationSuppressed).inc();
        const Cycles tg = cpu.charge(t, params.guestDriverRxPop);
        queue().scheduleAt(tg, [tg, guest_pop] { guest_pop(tg); });
        return;
    }
    rxQuietUntil = t + mach.freq().cycles(2.5);

    // Interrupt path: irqfd from the vhost worker, then wake/kick.
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
KvmArm::guestTransmit(Cycles t, Vcpu &v, const Packet &pkt, Done done)
{
    VIRTSIM_ASSERT(_vhost, "guestTransmit requires an attached vNIC");
    if (_vhost->txRing().availFull()) {
        // Ring full: the virtio driver stops the queue until the
        // backend frees descriptors (TCP backpressure).
        txBacklog.emplace_back(&v, std::make_pair(pkt, std::move(done)));
        machineMetrics().counter(kvmTaps().txBackpressure).inc();
        return;
    }
    PhysicalCpu &cpu = mach.cpu(v.pcpu());

    // Guest driver: fill a descriptor referencing the guest buffer
    // (zero copy) and publish it.
    VirtioDesc d;
    d.buf = invalidBuffer; // payload stays in guest memory in place
    d.pkt = pkt;
    const Cycles c = _vhost->txRing().guestPost(d) + 150;
    const Cycles t0 = cpu.charge(t, c);
    txDone[pkt.seq] = std::move(done);

    if (txPumpActive) {
        // Backend is actively draining the ring: notification
        // suppressed, no kick, no exit.
        machineMetrics().counter(kvmTaps().txKickSuppressed).inc();
        return;
    }

    // Kick: MMIO write traps, host signals the ioeventfd, the vhost
    // worker wakes and starts draining.
    const Cycles t1 = exitToHost(t0, v);
    const Cycles t2 = cpu.charge(t1, params.ioeventfdSignal);
    enterVm(t2, v);
    PhysicalCpu &worker = mach.cpu(_vhost->params().workerPcpu);
    const Cycles t3 = worker.charge(t2, params.vhostNotifyLatency);
    trace().span(t0, t3, kvmTaps().txKick, TraceCat::Io,
                 static_cast<std::uint16_t>(v.pcpu()), pkt.seq);
    txPumpActive = true;
    EventFn kick = [this, t3] { pumpTx(t3); };
    if (chIoeventfd)
        chIoeventfd->send(t3, std::move(kick));
    else
        queue().scheduleAt(t3, std::move(kick));
}

void
KvmArm::pumpTx(Cycles t)
{
    if (_vhost->txRing().availDepth() == 0) {
        txPumpActive = false;
        return;
    }
    _vhost->txFromGuest(t, [this](Cycles td, const Packet &pkt) {
        // Physical datalink-tx point: the paper's "send" tap.
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
KvmArm::onPhysIrq(Cycles t, PcpuId cpu, IrqId irq)
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
        // The virtual timer fired while a VM ran: the physical
        // interrupt is taken to EL2 and translated into a virtual
        // timer interrupt for the loaded VCPU (Section II).
        auto &ctx = hostCtx[static_cast<std::size_t>(cpu)];
        if (ctx.loaded && ctx.inVm)
            injectVirq(t, *ctx.loaded, ppiVtimerIrq, [](Cycles) {});
        return;
    }
    machineMetrics().counter(kvmTaps().unhandledPhysIrq).inc();
}

void
KvmArm::handleKick(Cycles t, PcpuId cpu)
{
    auto &ctx = hostCtx[static_cast<std::size_t>(cpu)];
    auto &queue_ = kickActions[static_cast<std::size_t>(cpu)];

    Cycles th = t;
    if (ctx.inVm && ctx.loaded) {
        // Physical IRQ while in guest: full exit, host acknowledges
        // the SGI (IAR read, handler, EOI write).
        Vcpu &v = *ctx.loaded;
        th = exitToHost(t, v);
        const Cycles ack = mach.costs().irqChipRegAccess +
                           params.reschedIrqHandler +
                           mach.costs().irqChipRegAccess;
        th = mach.cpu(cpu).charge(th, ack);
        if (queue_.empty()) {
            // Spurious kick: just resume the guest.
            enterVm(th, v);
            return;
        }
        auto action = std::move(queue_.front());
        queue_.pop_front();
        action(th);
        return;
    }
    // Host context: cheap IRQ handling, then run the action.
    th = mach.cpu(cpu).charge(t, mach.costs().irqEntryExit);
    if (!queue_.empty()) {
        auto action = std::move(queue_.front());
        queue_.pop_front();
        action(th);
    }
}

void
KvmArm::handleNicIrq(Cycles t, PcpuId cpu)
{
    if (!netVm)
        return;
    PhysicalCpu &irq_cpu = mach.cpu(cpu);
    Cycles t1 = irq_cpu.charge(t, net.irqPath);

    // Drain the rx queue, GRO-coalescing same-flow frames into
    // aggregates the stack processes as one unit.
    Packet pkt;
    Packet agg{};
    int agg_frames = 0;
    auto flush_agg = [&](Cycles ts) {
        if (agg_frames == 0)
            return;
        if (onHostDatalinkRx)
            onHostDatalinkRx(ts, agg);
        deliverPacketToVm(ts, *netVm, agg, [](Cycles) {});
        agg = Packet{};
        agg_frames = 0;
    };
    while (mach.nic().popRx(pkt)) {
        if (agg_frames == 0) {
            agg = pkt;
            agg_frames = 1;
        } else if (agg.flow == pkt.flow && pkt.bytes >= 200 &&
                   agg.bytes >= 200 &&
                   agg_frames < net.groFrames &&
                   agg.bytes + pkt.bytes <= 64 * 1024) {
            agg.bytes += pkt.bytes;
            ++agg_frames;
        } else {
            flush_agg(t1);
            agg = pkt;
            agg_frames = 1;
        }
    }
    flush_agg(t1);
}


void
KvmArm::blockVcpu(Vcpu &v)
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
