#include "hv/kvm_arm_vhe.hh"

#include "sim/log.hh"

namespace virtsim {

namespace {

struct VheTaps
{
    TapId exit = internTap("kvm.exit");
    TapId enter = internTap("kvm.enter");
    TapId worldSwitch = internTap("kvm.world_switch");
    TapId trapVmSwitch = internTap("kvm.trap.vm_switch");
    TapId opVmSwitch = internTap("op.vm_switch");
    /** Machine-domain event counters. */
    TapId vmExits = internTap("kvm.vm_exits");
    TapId vmEntries = internTap("kvm.vm_entries");
    TapId vmSwitches = internTap("kvm.vm_switches");
};

constexpr auto &vheTaps = tapsOf<VheTaps>;

} // namespace

KvmArmVhe::KvmArmVhe(Machine &m) : KvmArm(m)
{
    vheTaps();
}

TapId
KvmArmVhe::worldSwitchTap() const
{
    return vheTaps().worldSwitch;
}

Cycles
KvmArmVhe::exitToHost(Cycles t, Vcpu &v)
{
    auto &ctx = hostCtx[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(ctx.inVm && ctx.loaded == &v,
                   "exitToHost: ", v.name(), " not running on pcpu ",
                   v.pcpu());
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const CostModel &cm = mach.costs();

    // The trap lands directly in the EL2-resident host kernel. The
    // guest's EL1 system registers, VGIC and timer state stay live:
    // the host's own state is backed by the extra EL2 registers, so
    // nothing but the GP registers needs to reach memory (Section
    // VI: "trapping from EL1 to EL2 does not require saving and
    // restoring state beyond general purpose registers").
    const Cycles c = cm.trapToEl2 + vheDispatch +
                     wse.save(cpu, v.savedRegs(), {RegClass::Gp},
                              t + cm.trapToEl2 + vheDispatch);

    ctx.inVm = false;
    v.setState(VcpuState::InHyp);
    cpu.setMode(CpuMode::El2);
    cpu.setContext("host-el2");
    machineMetrics().counter(vheTaps().vmExits).inc();
    const Cycles tr = cpu.charge(t, c);
    const VheTaps &taps = vheTaps();
    trace().span(t, tr, taps.exit, TraceCat::Switch,
                 static_cast<std::uint16_t>(v.pcpu()), c);
    vmMetrics(v.vm()).counter(taps.worldSwitch).inc();
    cpuMetrics(v.pcpu()).counter(taps.worldSwitch).inc();
    return tr;
}

Cycles
KvmArmVhe::enterVm(Cycles t, Vcpu &v)
{
    auto &ctx = hostCtx[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(!ctx.inVm, "enterVm: pcpu ", v.pcpu(),
                   " already in a VM");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const CostModel &cm = mach.costs();

    // Flush any software-pending virqs, restore GP, eret.
    Cycles flush = 0;
    VgicDistributor &d = dist(v.vm());
    while (d.hasPending(v.id())) {
        const IrqId virq = d.popPending(v.id());
        if (mach.gic().injectVirq(t, v.pcpu(), virq) < 0) {
            d.setPending(v.id(), virq);
            break;
        }
        flush += mach.gic().lrWriteCost();
    }
    const Cycles c =
        flush +
        wse.restore(cpu, v.savedRegs(), {RegClass::Gp}, t + flush) +
        cm.eretToEl1;

    ctx.inVm = true;
    ctx.loaded = &v;
    v.setLoaded(true);
    v.setState(VcpuState::Running);
    cpu.setMode(CpuMode::El1);
    cpu.setContext(v.name());
    machineMetrics().counter(vheTaps().vmEntries).inc();
    const Cycles tr = cpu.charge(t, c);
    const VheTaps &taps = vheTaps();
    trace().span(t, tr, taps.enter, TraceCat::Switch,
                 static_cast<std::uint16_t>(v.pcpu()), c);
    vmMetrics(v.vm()).counter(taps.worldSwitch).inc();
    cpuMetrics(v.pcpu()).counter(taps.worldSwitch).inc();
    return tr;
}

void
KvmArmVhe::vmSwitch(Cycles t, Vcpu &from, Vcpu &to, Done done)
{
    VIRTSIM_ASSERT(from.pcpu() == to.pcpu(),
                   "vm switch is a same-pcpu operation");
    // Between two VMs the full EL1 world must still move: VHE only
    // removed the *host* from EL1.
    const Cycles t1 = exitToHost(t, from);
    from.setState(VcpuState::Idle);
    from.setLoaded(false);
    PhysicalCpu &cpu = mach.cpu(from.pcpu());
    Cycles c = wse.save(cpu, from.savedRegs(),
                        {RegClass::Fp, RegClass::El1Sys, RegClass::Vgic,
                         RegClass::Timer, RegClass::El2Config,
                         RegClass::El2VirtMem}, t1);
    c += params.vcpuSwitchWork;
    c += wse.restore(cpu, to.savedRegs(),
                     {RegClass::Fp, RegClass::El1Sys, RegClass::Vgic,
                      RegClass::Timer, RegClass::El2Config,
                      RegClass::El2VirtMem},
                     t1 + c);
    const Cycles t2 = cpu.charge(t1, c);
    const Cycles t3 = enterVm(t2, to);
    machineMetrics().counter(vheTaps().vmSwitches).inc();
    vmMetrics(to.vm()).histogram(vheTaps().trapVmSwitch).add(t3 - t);
    trace().span(t, t3, vheTaps().opVmSwitch, TraceCat::Op,
                 static_cast<std::uint16_t>(from.pcpu()));
    queue().scheduleAt(t3, [t3, done] { done(t3); });
}

} // namespace virtsim
