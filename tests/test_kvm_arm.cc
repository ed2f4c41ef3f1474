/**
 * @file
 * Tests for the split-mode KVM ARM model: transition state machine,
 * emergent Table II costs, injection paths, and state isolation
 * between guest and host.
 */

#include <gtest/gtest.h>

#include "core/testbed.hh"
#include "counters.hh"

using namespace virtsim;

namespace {

struct KvmArmFixture : public ::testing::Test
{
    KvmArmFixture() : tb(TestbedConfig{.kind = SutKind::KvmArm})
    {
        kvm = dynamic_cast<KvmArm *>(tb.hypervisor());
    }

    Testbed tb;
    KvmArm *kvm = nullptr;
};

} // namespace

TEST_F(KvmArmFixture, IdentifiesAsType2)
{
    ASSERT_NE(kvm, nullptr);
    EXPECT_EQ(kvm->name(), "KVM ARM");
    EXPECT_EQ(kvm->type(), HvType::Type2);
    EXPECT_EQ(to_string(kvm->type()), "Type 2");
}

TEST_F(KvmArmFixture, HypercallCosts6500Cycles)
{
    Vcpu &v = tb.guest()->vcpu(0);
    Cycles done_at = 0;
    kvm->hypercall(0, v, [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 6500u); // Table II, emergent
}

TEST_F(KvmArmFixture, ExitAndEnterSplitPerTable3)
{
    Vcpu &v = tb.guest()->vcpu(0);
    const Cycles exit = kvm->exitToHost(0, v);
    // trap + dispatch + full save (4,202) + toggle + eret
    EXPECT_EQ(exit, 12u + 260u + 4202u + 60u + 12u);
    const Cycles enter = kvm->enterVm(exit, v);
    EXPECT_EQ(enter - exit, 12u + 260u + 1506u + 60u + 12u);
}

TEST_F(KvmArmFixture, ExitRequiresRunningVcpu)
{
    Vcpu &v = tb.guest()->vcpu(0);
    kvm->exitToHost(0, v);
    EXPECT_DEATH(kvm->exitToHost(100, v), "not running");
}

TEST_F(KvmArmFixture, EnterRequiresFreePcpu)
{
    Vcpu &v = tb.guest()->vcpu(0);
    EXPECT_DEATH(kvm->enterVm(0, v), "already in a VM");
}

TEST_F(KvmArmFixture, GuestStateSurvivesHypercalls)
{
    Vcpu &v = tb.guest()->vcpu(0);
    tb.machine().cpu(0).regs().fillPattern(0x60e57);
    bool checked = false;
    kvm->hypercall(0, v, [&](Cycles) {
        checked = tb.machine().cpu(0).regs().matchesPattern(0x60e57);
    });
    tb.run();
    EXPECT_TRUE(checked);
}

TEST_F(KvmArmFixture, IrqControllerTrapCosts7370)
{
    Vcpu &v = tb.guest()->vcpu(0);
    Cycles done_at = 0;
    kvm->irqControllerTrap(0, v, [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 7370u); // Table II
}

TEST_F(KvmArmFixture, VirqCompletionIsTheArmFastPath)
{
    Vcpu &v = tb.guest()->vcpu(0);
    tb.machine().gic().injectVirq(0, v.pcpu(), spiNicIrq);
    tb.machine().gic().guestAckVirq(v.pcpu());
    Cycles done_at = 0;
    kvm->virqComplete(0, v, [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 71u); // Table II: no trap
    EXPECT_EQ(countOf(tb.machine(), "kvm.vm_exits"), 0u);
}

TEST_F(KvmArmFixture, InjectToRunningVcpuUsesKick)
{
    Vcpu &v = tb.guest()->vcpu(1);
    Cycles handled = 0;
    kvm->injectVirq(0, v, spiNicIrq, [&](Cycles t) { handled = t; });
    tb.run();
    EXPECT_GT(handled, 0u);
    // Kick = SGI + full exit + re-entry on the target.
    EXPECT_EQ(countOf(tb.machine(), "irqchip.ipi_sent"),
              1u);
    EXPECT_EQ(countOf(tb.machine(), "kvm.vm_exits"), 1u);
    EXPECT_EQ(countOf(tb.machine(), "kvm.vm_entries"), 1u);
}

TEST_F(KvmArmFixture, InjectToIdleVcpuPaysWakePath)
{
    Vcpu &v = tb.guest()->vcpu(1);
    kvm->blockVcpu(v);
    EXPECT_EQ(v.state(), VcpuState::Idle);
    Cycles handled = 0;
    kvm->injectVirq(0, v, spiNicIrq, [&](Cycles t) { handled = t; });
    tb.run();
    // Wake path: vcpuWakeFromIdle dominates; no SGI needed.
    EXPECT_GT(handled, kvm->params.vcpuWakeFromIdle);
    EXPECT_EQ(countOf(tb.machine(), "irqchip.ipi_sent"),
              0u);
    EXPECT_EQ(v.state(), VcpuState::Running);
}

TEST_F(KvmArmFixture, VmSwitchMatchesTable2)
{
    Vm &vm1 = kvm->createVm("vm1", 4, {0, 1, 2, 3});
    Cycles done_at = 0;
    kvm->vmSwitch(0, tb.guest()->vcpu(0), vm1.vcpu(0),
                  [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 10387u); // Table II
}

TEST_F(KvmArmFixture, VmSwitchIsolatesRegisterState)
{
    Vm &vm1 = kvm->createVm("vm1", 4, {0, 1, 2, 3});
    auto sig = [](std::uint64_t tag) {
        return std::vector<std::uint64_t>(RegFile::bankSize(RegClass::Gp),
                                          tag);
    };
    vm1.vcpu(0).savedRegs().bank(RegClass::Gp) = sig(0xb);
    tb.machine().cpu(0).regs().bank(RegClass::Gp) = sig(0xa);

    bool vm1_ok = false, vm0_ok = false;
    kvm->vmSwitch(0, tb.guest()->vcpu(0), vm1.vcpu(0), [&](Cycles t) {
        vm1_ok =
            tb.machine().cpu(0).regs().bank(RegClass::Gp) == sig(0xb);
        kvm->vmSwitch(t, vm1.vcpu(0), tb.guest()->vcpu(0),
                      [&](Cycles) {
                          vm0_ok = tb.machine()
                                       .cpu(0)
                                       .regs()
                                       .bank(RegClass::Gp) == sig(0xa);
                      });
    });
    tb.run();
    EXPECT_TRUE(vm1_ok);
    EXPECT_TRUE(vm0_ok);
}

TEST_F(KvmArmFixture, IoSignalsMatchTable2)
{
    Vcpu &v = tb.guest()->vcpu(0);
    Cycles out_at = 0;
    kvm->ioSignalOut(0, v, [&](Cycles t) { out_at = t; });
    tb.run();
    EXPECT_EQ(out_at, 6024u); // Table II

    kvm->blockVcpu(v);
    // Measure from the VCPU's quiescent point (its frontier), as the
    // microbenchmark driver does.
    const Cycles t0 = tb.frontier(0);
    Cycles in_at = 0;
    kvm->ioSignalIn(t0, v, [&](Cycles t) { in_at = t; });
    tb.run();
    EXPECT_EQ(in_at - t0, 13872u); // Table II
}

TEST_F(KvmArmFixture, TransmitSuppressesKicksWhilePumping)
{
    Vcpu &v = tb.guest()->vcpu(0);
    for (int i = 0; i < 8; ++i) {
        Packet p;
        p.flow = 1;
        p.bytes = 1500;
        p.seq = static_cast<std::uint64_t>(i + 1);
        kvm->guestTransmit(tb.queue().now(), v, p, [](Cycles) {});
    }
    tb.run();
    EXPECT_EQ(countOf(tb.machine(), "nic.tx_packets"), 8u);
    EXPECT_GT(
        countOf(tb.machine(), "kvm.tx_kick_suppressed"),
        0u);
    // Far fewer exits than packets: notification suppression works.
    EXPECT_LT(countOf(tb.machine(), "kvm.vm_exits"), 8u);
}

TEST_F(KvmArmFixture, DeliverPacketReachesGuestDriver)
{
    Packet p;
    p.flow = 9;
    p.bytes = 1500;
    Cycles vm_rx = 0;
    tb.onVmRx = [&](Cycles t, const Packet &pkt) {
        EXPECT_EQ(pkt.flow, 9u);
        vm_rx = t;
    };
    tb.setIdle(0, true);
    kvm->deliverPacketToVm(1000, *tb.guest(), p, [](Cycles) {});
    tb.run();
    EXPECT_GT(vm_rx, 1000u);
    // The idle netserver was woken through the expensive path.
    EXPECT_EQ(tb.guest()->vcpu(0).state(), VcpuState::Running);
}
